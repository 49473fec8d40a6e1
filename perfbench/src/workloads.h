#ifndef ZOMBIE_PERFBENCH_WORKLOADS_H_
#define ZOMBIE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "featureeng/revision_script.h"
#include "report.h"
#include "util/status.h"

namespace zombie {
namespace perfbench {

struct BenchArgs {
  /// session_cold, session_replay or grid_drift.
  std::string workload;
  /// Every input (corpus, schedule, engine seeds) derives from it.
  uint64_t seed = 1;
  /// Timed rounds run until this much wall time has passed (and at least
  /// three rounds); a run stops only at the end of a round.
  double seconds = 20.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Parent of the private temporary directory (store files), which is
  /// deleted at exit.
  std::string work_dir = ".";
  /// Traced run only: where the last traced unit's spans are written.
  std::string spans_path;
  /// Digests recorded for known seeds (golden_digests.txt); required.
  std::string golden_path;
};

struct BenchResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<std::string>& WorkloadNames();
/// Reported by every workload with trace off, in this order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Reported by every workload with trace on, in this order.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Sets up, warms up, and measures one workload; prints the human-readable
/// report to stdout. Errors are environment failures (unwritable work
/// directory, unreadable golden file); output mismatches are reported in
/// the result instead.
StatusOr<BenchResult> RunWorkload(const BenchArgs& args);

/// Engineer wait of a full-scan session over `script`: every document
/// featurized once per revision (the holdout included), which is what
/// RunSession in SessionMode::kFullScan charges. Closed form, so set-up
/// need not run the minutes-long scan; perfbench_test checks it against
/// RunSession on a small corpus.
int64_t FullScanSessionVirtualMicros(const Corpus& corpus,
                                     const RevisionScript& script);

}  // namespace perfbench
}  // namespace zombie

#endif  // ZOMBIE_PERFBENCH_WORKLOADS_H_
