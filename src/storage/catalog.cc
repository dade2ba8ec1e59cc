#include "storage/catalog.h"

namespace ptp {

void Catalog::Put(Relation rel) {
  std::string name = rel.name();
  auto stats = std::make_shared<RelationStatsMemo>(rel.NumTuples());
  relations_.insert_or_assign(std::move(name),
                              Entry{std::move(rel), std::move(stats)});
}

Result<const Relation*> Catalog::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return &it->second.relation;
}

std::shared_ptr<RelationStatsMemo> Catalog::Stats(
    const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.stats;
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, entry] : relations_) names.push_back(name);
  return names;
}

size_t Catalog::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, entry] : relations_) {
    total += entry.relation.NumTuples();
  }
  return total;
}

}  // namespace ptp
