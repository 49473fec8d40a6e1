// perfbench: the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload session_cold|session_replay|grid_drift --seed N
//             --seconds S --trace 0|1 --golden perfbench/golden_digests.txt
//             [--work-dir D] [--spans F]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --golden F [--work-dir D] "
               "[--spans F]\n",
               msg);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using zombie::perfbench::BenchArgs;
  zombie::SetLogLevel(zombie::LogLevel::kWarning);
  BenchArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed takes an integer");
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0) {
        return Usage("--seconds takes a positive integer");
      }
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--golden") {
      args.golden_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (args.golden_path.empty()) return Usage("--golden is required");

  zombie::StatusOr<zombie::perfbench::BenchResult> result =
      zombie::perfbench::RunWorkload(args);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const zombie::perfbench::BenchResult& r = result.value();
  for (const zombie::perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  std::printf("\n%s\n",
              zombie::perfbench::ResultJson(r.correct, r.attempted, r.failed,
                                            r.metrics)
                  .c_str());
  std::fflush(stdout);
  return 0;
}
