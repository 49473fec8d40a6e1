#ifndef ZOMBIE_INDEX_KMEANS_GROUPER_H_
#define ZOMBIE_INDEX_KMEANS_GROUPER_H_

#include <cstdint>
#include <string>

#include "index/grouper.h"
#include "index/kmeans.h"
#include "index/signature.h"

namespace zombie {

/// Content-based index groups: cheap signatures clustered with k-means.
/// The paper's primary grouping — topical clusters concentrate useful items
/// without looking at labels or running the (expensive) feature code.
class KMeansGrouper : public Grouper {
 public:
  KMeansGrouper(size_t num_groups, uint64_t seed);

  GroupingResult Group(const Corpus& corpus) override;
  std::string name() const override;

 private:
  size_t num_groups_;
  uint64_t seed_;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_KMEANS_GROUPER_H_
