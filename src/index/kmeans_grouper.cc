#include "index/kmeans_grouper.h"

#include "util/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

KMeansGrouper::KMeansGrouper(size_t num_groups, uint64_t seed)
    : num_groups_(num_groups), seed_(seed) {
  ZCHECK_GE(num_groups, 1u);
}

GroupingResult KMeansGrouper::Group(const Corpus& corpus) {
  Stopwatch watch;
  GroupingResult result;
  result.method = name();
  if (corpus.empty()) {
    result.groups.resize(0);
    result.build_wall_micros = watch.ElapsedMicros();
    return result;
  }

  SignatureMatrix sigs = ComputeSignatures(corpus);

  KMeansConfig kcfg;
  kcfg.k = std::min(num_groups_, corpus.size());
  kcfg.seed = seed_;
  KMeansResult km = RunKMeans(sigs.rows, kcfg);

  result.groups.resize(kcfg.k);
  for (size_t i = 0; i < km.assignments.size(); ++i) {
    ZCHECK_LT(km.assignments[i], kcfg.k);
    result.groups[km.assignments[i]].push_back(static_cast<uint32_t>(i));
  }
  result.build_virtual_micros = sigs.virtual_cost_micros;
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

std::string KMeansGrouper::name() const {
  return StrFormat("kmeans%zu", num_groups_);
}

}  // namespace zombie
