#ifndef PTP_STORAGE_CATALOG_H_
#define PTP_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/relation.h"
#include "storage/stats.h"

namespace ptp {

/// A named collection of base relations plus the shared string dictionary.
/// This plays the role of the "database" a query is evaluated against; the
/// simulated cluster partitions a Catalog's relations across workers.
class Catalog {
 public:
  Catalog() = default;

  /// Registers `rel` under rel.name(); replaces any existing entry and its
  /// statistics.
  void Put(Relation rel);

  /// Looks up a relation by name.
  Result<const Relation*> Get(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  /// The statistics memo of relation `name` (null when absent): shared by
  /// every query normalized against this catalog until the next Put of
  /// `name`, so each count is computed once per relation version.
  std::shared_ptr<RelationStatsMemo> Stats(const std::string& name) const;

  /// Names of all registered relations, sorted.
  std::vector<std::string> Names() const;

  Dictionary& dictionary() { return dictionary_; }
  const Dictionary& dictionary() const { return dictionary_; }

  /// Sum of NumTuples over all relations.
  size_t TotalTuples() const;

 private:
  struct Entry {
    Relation relation;
    std::shared_ptr<RelationStatsMemo> stats;
  };
  std::map<std::string, Entry> relations_;
  Dictionary dictionary_;
};

}  // namespace ptp

#endif  // PTP_STORAGE_CATALOG_H_
