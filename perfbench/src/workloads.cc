#include "workloads.h"

#include <stdlib.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "bench_common.h"
#include "core/analysis.h"
#include "core/baselines.h"
#include "core/session.h"
#include "data/corpus_source.h"
#include "data/generator.h"
#include "data/webcat_generator.h"
#include "decorators.h"
#include "featureeng/extraction_service.h"
#include "featureeng/feature_cache.h"
#include "featureeng/persistent_feature_store.h"
#include "index/incremental_grouper.h"
#include "index/kmeans_grouper.h"
#include "ledger.h"
#include "ml/feature_pruner.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace zombie {
namespace perfbench {

namespace {

// Sizes (README.md "Sizing"): 12,000-document corpora and 32-group
// indexes. A run draws several variants (corpora) from its seed, sets each
// up once (setup_s is the median over them), and runs its units in rounds
// of one unit per variant, so one corpus cannot swing a run's numbers.
constexpr size_t kDocs = 12000;
constexpr size_t kGroups = 32;
constexpr size_t kSessionVariants = 3;
constexpr size_t kGridVariants = 6;
constexpr size_t kMinRounds = 3;
constexpr double kSpeedupQualityFraction = 0.95;

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kRoundRobin, PolicyKind::kUniformRandom,
    PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
    PolicyKind::kSlidingUcb, PolicyKind::kThompson,
    PolicyKind::kExp3, PolicyKind::kSoftmax,
};

uint64_t VariantSeed(uint64_t seed, size_t variant) {
  return HashCombine(seed, variant);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process. Every workload is single-threaded, so on
// an unshared core this is the wall time; unlike wall time it leaves out
// time the process waits for a core, and the hypervisor's steal time where
// the guest kernel accounts it.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

// Peak resident memory of the timed units. Set-up and warm-up raise the
// process's high-water mark, so it is reset (clear_refs "5") once they end
// and read back (VmHWM) after the units.
Status ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) return Status::IOError("cannot reset the peak RSS (clear_refs)");
  return Status::OK();
}

StatusOr<double> PeakRssMegabytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return Status::IOError("no VmHWM in /proc/self/status");
}

// --- Private temporary directory, removed with everything in it. --------
class TempDir {
 public:
  static StatusOr<std::unique_ptr<TempDir>> Create(const std::string& parent) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string pattern = parent + "/perfbench-XXXXXX";
    if (ec || mkdtemp(pattern.data()) == nullptr) {
      return Status::IOError("cannot create a temporary directory under " +
                             parent);
    }
    return std::unique_ptr<TempDir>(new TempDir(std::move(pattern)));
  }

  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

// --- Recorded digests: "<seed> <key> <digest>" lines, '#' comments. -------
using Golden = std::map<std::pair<uint64_t, std::string>, std::string>;

StatusOr<Golden> LoadGolden(const std::string& path) {
  Golden golden;
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read golden digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t seed = 0;
    std::string key;
    std::string digest;
    if (!(fields >> seed >> key >> digest)) {
      return Status::InvalidArgument("malformed golden line: " + line);
    }
    golden[{seed, key}] = digest;
  }
  return golden;
}

/// Output checks of one kind ("session", "grid_runs", ...) across a run's
/// variants. Variant v's expected digest is the one recorded for
/// (seed, "<key>.<v>") when there is a record, else the reference the run
/// produced itself: in set-up, or at the variant's first unit. A reference
/// that disagrees with the record fails the run outright.
class VariantChecks {
 public:
  VariantChecks(const Golden& golden, uint64_t seed, std::string key,
                size_t variants)
      : key_(std::move(key)), recorded_(variants), reference_(variants) {
    for (size_t v = 0; v < variants; ++v) {
      auto it = golden.find({seed, Key(v)});
      if (it != golden.end()) recorded_[v] = it->second;
    }
  }

  void SetReference(size_t v, const std::string& digest) {
    reference_[v] = digest;
    std::printf("digest %-18s %s (%s)\n", Key(v).c_str(), digest.c_str(),
                !recorded_[v].has_value() ? "no record for this seed"
                : *recorded_[v] == digest ? "matches record"
                                          : "MISMATCH against record");
    if (recorded_[v].has_value() && *recorded_[v] != digest) {
      references_ok_ = false;
    }
  }

  /// Checks one unit's digest; the variant's first digest becomes its
  /// reference when set-up recorded none.
  bool Check(size_t v, const std::string& digest) {
    if (!reference_[v].has_value()) SetReference(v, digest);
    return digest == recorded_[v].value_or(*reference_[v]);
  }

  bool references_ok() const { return references_ok_; }

 private:
  std::string Key(size_t v) const { return key_ + "." + std::to_string(v); }

  std::string key_;
  std::vector<std::optional<std::string>> recorded_;
  std::vector<std::optional<std::string>> reference_;
  bool references_ok_ = true;
};

/// One timed unit of work (a session, or a grid pass) as seen from outside.
struct UnitRecord {
  size_t variant = 0;
  size_t round = 0;  // 1-based; set for untraced units
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> run_ms;  // one per engine run inside the unit
  // CPU seconds of each engine run, where the unit times its runs (grid).
  std::vector<double> run_cpu_seconds;
  double items = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Engine-side and component-side counts of the traced units.
struct LayerTally {
  size_t units = 0;
  double wall_nanos = 0.0;
  double index_build_micros = 0.0;
  double featurize_micros = 0.0;
  double featurize_calls = 0.0;
  double holdout_micros = 0.0;
  double holdout_calls = 0.0;
  double select_hist_micros = 0.0;
  double select_hist_calls = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  uint64_t store_appends = 0;
  double prune_kept = 0.0;
  double prune_input = 0.0;
  uint64_t decision_records = 0;

  void AddEngineHistograms(const MetricsRegistry& metrics) {
    for (const auto& [name, h] : metrics.Snapshot().histograms) {
      if (name == "featureeng.extract_us") {
        featurize_micros += h.sum;
        featurize_calls += static_cast<double>(h.count);
      } else if (name == "engine.holdout_eval_us") {
        holdout_micros += h.sum;
        holdout_calls += static_cast<double>(h.count);
      } else if (name.rfind("bandit.select_us.", 0) == 0) {
        select_hist_micros += h.sum;
        select_hist_calls += static_cast<double>(h.count);
      }
    }
  }
  void AddCache(const FeatureCacheStats& before,
                const FeatureCacheStats& after) {
    cache_hits += after.hits - before.hits;
    cache_misses += after.misses - before.misses;
  }
  void AddStore(const PersistentFeatureStoreStats& before,
                const PersistentFeatureStoreStats& after) {
    store_hits += after.hits - before.hits;
    store_misses += after.misses - before.misses;
    store_appends += after.appends - before.appends;
  }
};

/// Runs timed units in rounds of one unit per variant and stops only at
/// the end of a round, once kMinRounds rounds and `seconds` of wall time
/// have passed, so every variant runs the same number of units. In a
/// traced run each variant's untraced unit is followed by a traced one, so
/// both see the same machine state. `run_unit(traced, variant)`.
template <typename RunUnit>
void TimedLoop(const BenchArgs& args, size_t variants, RunUnit run_unit,
               std::vector<UnitRecord>* untraced,
               std::vector<UnitRecord>* traced) {
  const double start = NowSeconds();
  for (size_t round = 1;; ++round) {
    for (size_t v = 0; v < variants; ++v) {
      untraced->push_back(run_unit(false, v));
      untraced->back().variant = v;
      untraced->back().round = round;
      if (args.trace) {
        traced->push_back(run_unit(true, v));
        traced->back().variant = v;
      }
    }
    if (round >= kMinRounds && NowSeconds() - start >= args.seconds) break;
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> UnitWalls(const std::vector<UnitRecord>& units) {
  std::vector<double> walls;
  for (const UnitRecord& u : units) walls.push_back(u.wall_seconds);
  return walls;
}

void PrintSamples(const char* what, std::vector<double> samples,
                  const char* unit) {
  std::sort(samples.begin(), samples.end());
  std::printf("%-26s median %.4f %s over %zu samples (min %.4f, max %.4f)\n",
              what, Median(samples), unit, samples.size(),
              samples.empty() ? 0.0 : samples.front(),
              samples.empty() ? 0.0 : samples.back());
}

/// Deterministic end-to-end figures: one value per variant, except the
/// printed-only speedup.
struct EndToEnd {
  std::vector<double> engineer_wait_s;
  std::vector<double> quality;
  double virtual_speedup = 0.0;
};

/// A variant's cost in CPU seconds. Its units repeat identical work (their
/// digests are checked) and the shared host only ever adds time, so the
/// cost is the fastest repetition: of the whole unit (sessions), or of each
/// engine run and of the rest of the unit separately (grid), which finds
/// the quiet moments of a busy host at a finer grain.
double FastestCost(const std::vector<const UnitRecord*>& units) {
  double fastest_unit = units.front()->cpu_seconds;
  for (const UnitRecord* u : units) {
    fastest_unit = std::min(fastest_unit, u->cpu_seconds);
  }
  const size_t runs = units.front()->run_cpu_seconds.size();
  if (runs == 0) return fastest_unit;
  std::vector<double> fastest_run(runs, fastest_unit);
  double fastest_rest = fastest_unit;
  for (const UnitRecord* u : units) {
    double in_runs = 0.0;
    for (size_t k = 0; k < runs; ++k) {
      fastest_run[k] = std::min(fastest_run[k], u->run_cpu_seconds[k]);
      in_runs += u->run_cpu_seconds[k];
    }
    fastest_rest = std::min(fastest_rest, u->cpu_seconds - in_runs);
  }
  double cost = fastest_rest;
  for (double t : fastest_run) cost += t;
  return cost;
}

/// End-to-end metrics shared by every workload, from the untraced units.
/// Times are CPU seconds of the process (CpuSeconds). items_per_cpu_s is
/// the variants' items over the sum of their costs (FastestCost); each
/// variant's median unit is printed beside its cost. Waits are summarised
/// by their median over the variants (robust to one corpus whose runs do
/// not plateau), quality by its mean. `unit_name` names one unit in the
/// printed report;
/// `peak_rss_mb` is read after the units.
std::vector<Metric> EndToEndMetricsOf(const std::vector<double>& setup_cpu_s,
                                      const std::vector<UnitRecord>& units,
                                      size_t variants, const EndToEnd& det,
                                      double peak_rss_mb,
                                      const char* unit_name) {
  std::printf("\n-- end-to-end (untraced units) --\n");
  std::vector<double> run_ms;
  std::vector<double> unit_walls;
  for (const UnitRecord& u : units) {
    std::printf("unit round=%zu variant=%zu cpu=%.4f s wall=%.4f s "
                "items=%.0f\n",
                u.round, u.variant, u.cpu_seconds, u.wall_seconds, u.items);
    run_ms.insert(run_ms.end(), u.run_ms.begin(), u.run_ms.end());
    unit_walls.push_back(u.wall_seconds);
  }
  double cost_sum = 0.0;
  double items_sum = 0.0;
  size_t units_per_variant = 0;
  for (size_t v = 0; v < variants; ++v) {
    std::vector<const UnitRecord*> mine;
    std::vector<double> cpu;
    for (const UnitRecord& u : units) {
      if (u.variant != v) continue;
      mine.push_back(&u);
      cpu.push_back(u.cpu_seconds);
    }
    const double cost = FastestCost(mine);
    cost_sum += cost;
    items_sum += mine.front()->items;
    units_per_variant = mine.size();
    std::printf("variant %zu: cost %.4f CPU s, median unit %.4f CPU s over "
                "%zu units; %.0f items\n",
                v, cost, Median(cpu), mine.size(), mine.front()->items);
  }
  const double session_cpu_s = cost_sum / static_cast<double>(variants);
  const double items_per_cpu_s = Ratio(items_sum, cost_sum);
  PrintSamples("setup_s", setup_cpu_s, "CPU s (per-variant set-ups)");
  std::printf("%-26s %.1f items per CPU s (items of %zu variants over their "
              "cost)\n",
              "items_per_cpu_s", items_per_cpu_s, variants);
  // Printed, not reported: items are fixed by the seed, so at a given seed
  // this moves exactly as items_per_cpu_s does (README.md).
  std::printf("%-26s %.4f CPU s per %s (mean cost over %zu variants of "
              "%zu units each)\n",
              "session_cpu_s", session_cpu_s, unit_name, variants,
              units_per_variant);
  // Printed, not reported: wall times follow the host's load as well as
  // the program (README.md "Sizing and steadiness").
  PrintSamples("session_wall_s", unit_walls, "s per unit");
  if (!run_ms.empty()) {
    std::printf("%-26s %.4f ms over %zu engine runs\n", "run_ms_mean",
                Mean(run_ms), run_ms.size());
  }
  std::optional<double> p50 = Percentile(run_ms, 0.50);
  if (p50.has_value()) {
    std::printf("%-26s %.4f ms over %zu engine runs\n", "run_ms_p50", *p50,
                run_ms.size());
  }
  std::optional<double> p90 = Percentile(run_ms, 0.90);
  if (p90.has_value()) {
    std::printf("%-26s %.4f ms over %zu engine runs\n", "run_ms_p90", *p90,
                run_ms.size());
  } else {
    std::printf("%-26s refused: %zu engine runs leave fewer than %zu beyond "
                "p90\n",
                "run_ms_p90", run_ms.size(), kMinSamplesBeyondPercentile);
  }
  std::printf("%-26s %.1f MB (high-water mark of the timed units)\n",
              "peak_rss_mb", peak_rss_mb);
  std::printf("%-26s %.6f virtual s (median over %zu variants)\n",
              "engineer_wait_s", Median(det.engineer_wait_s), variants);
  // Printed, not reported: with a single random scan per variant as its
  // baseline the figure swings 40% from seed to seed (README.md).
  std::printf("%-26s %.6f x\n", "virtual_speedup", det.virtual_speedup);
  std::printf("%-26s %.6f F1 (mean over %zu variants)\n", "quality",
              Mean(det.quality), variants);
  return {
      {"setup_s", Median(setup_cpu_s), "s"},
      {"items_per_cpu_s", items_per_cpu_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"engineer_wait_s", Median(det.engineer_wait_s), "s"},
      {"quality", Mean(det.quality), "F1"},
  };
}


/// Per-layer metrics of the traced units, plus the printed table.
/// `select_from_histogram`: the bandit policy is not injectable (sessions
/// build their own), so select time comes from the engine's histogram.
std::vector<Metric> PerLayerMetricsOf(const LayerTally& t,
                                      const Ledger& ledger,
                                      double index_build_ms,
                                      bool select_from_histogram,
                                      double trace_overhead) {
  const double units = static_cast<double>(t.units);
  auto per_unit = [&](double v) { return v / units; };
  auto calls = [&](Op op) {
    return static_cast<double>(ledger.totals(op).calls);
  };
  auto micros = [&](Op op) {
    return static_cast<double>(ledger.totals(op).nanos) / 1e3;
  };
  const double score_us = micros(Op::kMlScore);
  const double update_us = micros(Op::kMlUpdate);
  const double select_us = select_from_histogram ? t.select_hist_micros
                                                 : micros(Op::kBanditSelect);
  const double select_calls = select_from_histogram
                                  ? t.select_hist_calls
                                  : calls(Op::kBanditSelect);

  // Self time per layer, in microseconds over all traced units. Nothing
  // here nests inside anything else (see Ledger), so sums are exact.
  double self_us[kNumLayers] = {};
  self_us[static_cast<size_t>(Layer::kIndex)] = t.index_build_micros;
  self_us[static_cast<size_t>(Layer::kFeatureeng)] = t.featurize_micros;
  for (size_t i = 0; i < kNumOps; ++i) {
    self_us[static_cast<size_t>(OpLayer(static_cast<Op>(i)))] +=
        micros(static_cast<Op>(i));
  }
  if (select_from_histogram) {
    self_us[static_cast<size_t>(Layer::kBandit)] += t.select_hist_micros;
  }
  const double wall_us = t.wall_nanos / 1e3;
  double attributed = 0.0;
  for (double v : self_us) attributed += v;

  std::vector<Metric> m = {
      {"index.build_ms", index_build_ms, "ms"},
      {"index.assign_us", per_unit(micros(Op::kIndexAssign)), "us"},
      {"index.assign_calls", per_unit(calls(Op::kIndexAssign)), "count"},
      {"index.new_arms", per_unit(static_cast<double>(ledger.new_arms())),
       "count"},
      {"featureeng.featurize_us", per_unit(t.featurize_micros), "us"},
      {"featureeng.featurize_calls", per_unit(t.featurize_calls), "count"},
      {"featureeng.cache_hit_ratio",
       Ratio(static_cast<double>(t.cache_hits),
             static_cast<double>(t.cache_hits + t.cache_misses)),
       "ratio"},
      {"featureeng.store_hit_ratio",
       Ratio(static_cast<double>(t.store_hits),
             static_cast<double>(t.store_hits + t.store_misses)),
       "ratio"},
      {"featureeng.store_appends",
       per_unit(static_cast<double>(t.store_appends)), "count"},
      {"ml.holdout_eval_ms", per_unit(t.holdout_micros) / 1e3, "ms"},
      {"ml.holdout_evals", per_unit(t.holdout_calls), "count"},
      {"ml.score_us", per_unit(score_us), "us"},
      {"ml.score_calls", per_unit(calls(Op::kMlScore)), "count"},
      {"ml.update_us", per_unit(update_us), "us"},
      {"ml.update_calls", per_unit(calls(Op::kMlUpdate)), "count"},
      // No freeze (pruning off) keeps every feature.
      {"ml.prune_kept_ratio",
       t.prune_input > 0.0 ? t.prune_kept / t.prune_input : 1.0, "ratio"},
      {"bandit.select_us", per_unit(select_us), "us"},
      {"bandit.select_calls", per_unit(select_calls), "count"},
      {"bandit.score_arms_calls", per_unit(calls(Op::kBanditScoreArms)),
       "count"},
      {"core.reward_us", per_unit(micros(Op::kCoreReward)), "us"},
      {"core.reward_calls", per_unit(calls(Op::kCoreReward)), "count"},
      {"obs.decision_records",
       per_unit(static_cast<double>(t.decision_records)), "count"},
  };
  for (size_t l = 0; l < kNumLayers; ++l) {
    m.push_back({std::string(LayerName(static_cast<Layer>(l))) +
                     ".self_share",
                 Ratio(self_us[l], wall_us), "share"});
  }
  m.push_back({"core.unattributed_share", 1.0 - Ratio(attributed, wall_us),
               "share"});
  m.push_back({"obs.trace_overhead", trace_overhead, "x"});

  std::printf(
      "\n-- traced run: %zu traced units, %.3f s traced wall --\n"
      "%-12s %14s %8s\n",
      t.units, wall_us / 1e6, "layer", "self ms/unit", "share");
  for (size_t l = 0; l < kNumLayers; ++l) {
    std::printf("%-12s %14.3f %8.4f\n", LayerName(static_cast<Layer>(l)),
                per_unit(self_us[l]) / 1e3, Ratio(self_us[l], wall_us));
  }
  std::printf("%-12s %14.3f %8.4f  (1 - sum of self shares)\n",
              "unattributed", per_unit(wall_us - attributed) / 1e3,
              1.0 - Ratio(attributed, wall_us));
  std::printf("\n%-22s %14s %14s %10s\n", "operation", "calls/unit",
              "us/unit", "ns/call");
  auto row = [&](const char* name, double n, double us) {
    std::printf("%-22s %14.1f %14.1f %10.1f\n", name, per_unit(n),
                per_unit(us), n > 0.0 ? us * 1e3 / n : 0.0);
  };
  row("featureeng.featurize", t.featurize_calls, t.featurize_micros);
  row("ml.holdout_eval", t.holdout_calls, t.holdout_micros);
  for (size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    if (op == Op::kBanditSelect && select_from_histogram) continue;
    row(OpName(op), calls(op), micros(op));
  }
  if (select_from_histogram) {
    row("bandit.select (hist)", t.select_hist_calls, t.select_hist_micros);
  }
  std::printf(
      "\nratios: cache hits %llu of %llu lookups; store hits %llu of %llu "
      "lookups; pruning kept %.0f of %.0f input features\n",
      static_cast<unsigned long long>(t.cache_hits),
      static_cast<unsigned long long>(t.cache_hits + t.cache_misses),
      static_cast<unsigned long long>(t.store_hits),
      static_cast<unsigned long long>(t.store_hits + t.store_misses),
      t.prune_kept, t.prune_input);
  std::printf(
      "notes: featurize and holdout-eval times come from the engine's "
      "microsecond histograms\n  (each call truncated to whole us); "
      "ml.holdout_eval contains the holdout's ml.score calls,\n  so it is "
      "shown per operation but ml self time counts only the decorated "
      "learner calls.\n");
  if (select_from_histogram) {
    std::printf(
        "  sessions build their own epsilon-greedy policy, so bandit.select "
        "is the engine histogram\n  (sub-us selects mostly read 0 us), and "
        "index.assign_* is absent: sessions index offline.\n");
  } else {
    std::printf(
        "  index.build_ms is the base index build, timed once in set-up; "
        "the grid reuses it.\n");
  }
  std::printf("  obs.trace_overhead = median traced unit wall / median "
              "untraced unit wall = %.4f\n",
              trace_overhead);
  return m;
}

// ===========================================================================
// Sessions: the E8 engineer session over WebCat.
// ===========================================================================

Corpus MakeSessionCorpus(uint64_t seed) {
  WebCatOptions w;
  w.num_documents = kDocs;
  w.seed = seed;
  w.mean_extraction_cost_ms = 25.0;
  SyntheticCorpusConfig cfg = MakeWebCatConfig(w);
  cfg.mean_doc_length = 480.0;
  return SyntheticCorpusGenerator(cfg).Generate();
}

struct SessionState {
  explicit SessionState(uint64_t seed_in)
      : seed(seed_in),
        corpus(MakeSessionCorpus(seed_in)),
        script(MakeWebCatRevisionScript()),
        full_scan_virtual_micros(
            FullScanSessionVirtualMicros(corpus, script)) {}

  uint64_t seed;
  Corpus corpus;
  RevisionScript script;
  int64_t full_scan_virtual_micros;
  /// session_replay: opened over the file a set-up session populated.
  std::unique_ptr<PersistentFeatureStore> replay_store;
  /// session_replay: digest of the session that populated the store.
  std::string populate_digest;
};

std::string SessionDigest(const SessionResult& r) {
  Digest d;
  for (const RevisionOutcome& o : r.revisions) {
    d.Add(StrFormat("%s items=%zu v=%lld q=%.17g stop=%s",
                    o.revision_name.c_str(), o.items_processed,
                    static_cast<long long>(o.virtual_micros),
                    o.final_quality, StopReasonName(o.stop_reason)));
  }
  d.Add(StrFormat("index=%lld total=%lld best=%.17g",
                  static_cast<long long>(r.index_virtual_micros),
                  static_cast<long long>(r.total_virtual_micros),
                  r.best_quality));
  return d.Hex();
}

struct SessionUnit {
  UnitRecord record;
  SessionResult result;
  std::string digest;
};

/// One whole RunSession call: fresh in-memory cache, the given store.
/// Untraced units attach only the engine's trace sink, whose engine.run
/// spans give the per-revision wall times.
SessionUnit RunSessionUnit(const SessionState& s, PersistentFeatureStore* store,
                           Ledger* ledger, LayerTally* tally) {
  FeatureCache cache;
  ObsOptions oo;
  oo.metrics = ledger != nullptr;
  oo.trace = true;
  oo.decision_log = false;
  ObsContext obs(oo);
  std::unique_ptr<Learner> learner = std::make_unique<NaiveBayesLearner>();
  std::unique_ptr<RewardFunction> reward = std::make_unique<LabelReward>();
  if (ledger != nullptr) {
    learner = std::make_unique<TimedLearner>(std::move(learner), ledger);
    reward = std::make_unique<TimedReward>(std::move(reward), ledger);
  }
  KMeansGrouper grouper(kGroups, s.seed);
  EngineOptions opts = bench::BenchEngineOptions(s.seed);
  opts.obs = &obs;
  const PersistentFeatureStoreStats store_before = store->Stats();

  SessionUnit unit;
  const double start = NowSeconds();
  const double cpu_start = CpuSeconds();
  unit.result = RunSession(s.corpus, s.script, SessionMode::kZombie, &grouper,
                           *learner, *reward, opts,
                           /*warm_start_bandit=*/true, &cache,
                           PrefetchOptions{}, store);
  unit.record.cpu_seconds = CpuSeconds() - cpu_start;
  unit.record.wall_seconds = NowSeconds() - start;

  for (const TraceEvent& e : obs.trace()->Events()) {
    if (e.name == "engine.run") {
      unit.record.run_ms.push_back(static_cast<double>(e.dur_micros) / 1e3);
    }
  }
  for (const RevisionOutcome& o : unit.result.revisions) {
    unit.record.items += static_cast<double>(o.items_processed);
  }
  unit.digest = SessionDigest(unit.result);
  unit.record.attempted = 1;
  if (tally != nullptr) {
    tally->index_build_micros +=
        static_cast<double>(unit.result.index_wall_micros);
    tally->AddEngineHistograms(*obs.metrics());
    tally->AddCache(FeatureCacheStats{}, cache.Stats());
    tally->AddStore(store_before, store->Stats());
  }
  return unit;
}

StatusOr<std::unique_ptr<PersistentFeatureStore>> OpenFreshStore(
    const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return PersistentFeatureStore::Open(path);
}

StatusOr<std::unique_ptr<SessionState>> PrepareSession(
    uint64_t seed, bool replay, const std::string& store_path) {
  auto s = std::make_unique<SessionState>(seed);
  if (replay) {
    {
      StatusOr<std::unique_ptr<PersistentFeatureStore>> store =
          OpenFreshStore(store_path);
      if (!store.ok()) return store.status();
      s->populate_digest =
          RunSessionUnit(*s, store.value().get(), nullptr, nullptr).digest;
    }
    // Reopen, as a new process would: the open-time scan recovers the
    // records the populating session appended.
    StatusOr<std::unique_ptr<PersistentFeatureStore>> reopened =
        PersistentFeatureStore::Open(store_path);
    if (!reopened.ok()) return reopened.status();
    s->replay_store = std::move(reopened.value());
  }
  return s;
}

StatusOr<BenchResult> RunSessionWorkload(const BenchArgs& args, bool replay,
                                         const Golden& golden,
                                         const TempDir& tmp) {
  const std::string cold_path = tmp.path() + "/cold.store";
  std::vector<double> setup_cpu_s;
  std::vector<std::unique_ptr<SessionState>> states;
  for (size_t v = 0; v < kSessionVariants; ++v) {
    const double start = NowSeconds();
    const double cpu_start = CpuSeconds();
    StatusOr<std::unique_ptr<SessionState>> prepared = PrepareSession(
        VariantSeed(args.seed, v), replay,
        tmp.path() + "/replay-" + std::to_string(v) + ".store");
    if (!prepared.ok()) return prepared.status();
    states.push_back(std::move(prepared.value()));
    setup_cpu_s.push_back(CpuSeconds() - cpu_start);
    std::printf("setup variant=%zu cpu=%.4f s wall=%.4f s\n", v,
                setup_cpu_s.back(), NowSeconds() - start);
  }

  VariantChecks checks(golden, args.seed, "session", kSessionVariants);
  if (replay) {
    // session_replay must reproduce the populating (cold) session outcome
    // for outcome: the store's as-if contract.
    for (size_t v = 0; v < kSessionVariants; ++v) {
      checks.SetReference(v, states[v]->populate_digest);
    }
  }

  Ledger ledger;
  LayerTally tally;
  std::vector<std::optional<SessionResult>> firsts(kSessionVariants);
  // A cold unit gets a brand-new store file; a replay unit reads the
  // populated one.
  auto run_unit = [&](bool traced, size_t v) -> StatusOr<SessionUnit> {
    const SessionState& s = *states[v];
    std::unique_ptr<PersistentFeatureStore> fresh;
    PersistentFeatureStore* store = s.replay_store.get();
    if (!replay) {
      StatusOr<std::unique_ptr<PersistentFeatureStore>> opened =
          OpenFreshStore(cold_path);
      if (!opened.ok()) return opened.status();
      fresh = std::move(opened.value());
      store = fresh.get();
    }
    SessionUnit unit = RunSessionUnit(s, store, traced ? &ledger : nullptr,
                                      traced ? &tally : nullptr);
    unit.record.failed = checks.Check(v, unit.digest) ? 0 : 1;
    if (!firsts[v].has_value()) firsts[v] = unit.result;
    return unit;
  };

  StatusOr<SessionUnit> warm = run_unit(false, 0);
  if (!warm.ok()) return warm.status();
  const bool warm_ok = warm.value().record.failed == 0;
  Status reset = ResetPeakRss();
  if (!reset.ok()) return reset;

  Status failure = Status::OK();
  std::vector<UnitRecord> untraced;
  std::vector<UnitRecord> traced;
  uint32_t unit_id = 0;
  TimedLoop(
      args, kSessionVariants,
      [&](bool traced_turn, size_t v) {
        if (traced_turn) ledger.BeginUnit(unit_id);
        ++unit_id;
        StatusOr<SessionUnit> u = run_unit(traced_turn, v);
        if (traced_turn) ledger.EndUnit();
        if (!u.ok()) {
          failure = u.status();
          UnitRecord bad;
          bad.attempted = 1;
          bad.failed = 1;
          return bad;
        }
        if (traced_turn) {
          ++tally.units;
          tally.wall_nanos += u.value().record.wall_seconds * 1e9;
        }
        return u.value().record;
      },
      &untraced, &traced);
  if (!failure.ok()) return failure;
  StatusOr<double> peak_rss_mb = PeakRssMegabytes();
  if (!peak_rss_mb.ok()) return peak_rss_mb.status();

  BenchResult result;
  for (const std::vector<UnitRecord>* units : {&untraced, &traced}) {
    for (const UnitRecord& u : *units) {
      result.attempted += u.attempted;
      result.failed += u.failed;
    }
  }
  result.correct = checks.references_ok() && warm_ok && result.failed == 0;

  EndToEnd det;
  for (size_t v = 0; v < kSessionVariants; ++v) {
    const SessionResult& r = *firsts[v];
    const double wait = static_cast<double>(r.total_virtual_micros);
    det.engineer_wait_s.push_back(wait / 1e6);
    det.virtual_speedup +=
        Ratio(static_cast<double>(states[v]->full_scan_virtual_micros),
              wait) /
        kSessionVariants;
    det.quality.push_back(r.best_quality);
    std::printf("variant %zu: Zombie session wait %.3f virtual s, full-scan "
                "wait %.3f virtual s (closed form), best F1 %.4f\n",
                v, wait / 1e6,
                static_cast<double>(states[v]->full_scan_virtual_micros) / 1e6,
                r.best_quality);
  }
  std::vector<Metric> e2e =
      EndToEndMetricsOf(setup_cpu_s, untraced, kSessionVariants, det,
                        peak_rss_mb.value(), "session");
  if (!args.trace) {
    result.metrics = std::move(e2e);
    return result;
  }
  const double overhead =
      Ratio(Median(UnitWalls(traced)), Median(UnitWalls(untraced)));
  result.metrics = PerLayerMetricsOf(
      tally, ledger, tally.index_build_micros / 1e3 / tally.units,
      /*select_from_histogram=*/true, overhead);
  if (!args.spans_path.empty()) {
    Status st = ledger.WriteSpans(args.spans_path);
    if (!st.ok()) return st;
  }
  return result;
}

// ===========================================================================
// grid_drift: a policy x reward sweep over a drifting EntityExtract stream.
// ===========================================================================

IncrementalKMeansOptions GridGrouperOptions(uint64_t seed) {
  IncrementalKMeansOptions o;
  o.num_groups = kGroups;
  o.seed = seed;
  return o;
}

ArrivalScheduleOptions GridScheduleOptions(uint64_t seed) {
  ArrivalScheduleOptions o;
  o.docs_per_virtual_second = 100.0;
  o.order = ArrivalOrder::kDomainGrouped;
  o.seed = seed;
  return o;
}

/// One grid variant: an EntityExtract corpus whose last third streams in
/// by domain, its primed incremental k-means index, one extraction service
/// over a cache warmed here, and the random full scan its speedups are
/// measured against. `seed` is also the engine seed of every run.
struct GridState {
  explicit GridState(uint64_t seed_in)
      : seed(seed_in),
        task(MakeTask(TaskKind::kEntity, kDocs, seed_in)),
        base_size(2 * kDocs / 3),
        grouper(GridGrouperOptions(seed_in)),
        grouping(grouper.GroupBase(task.corpus, base_size)),
        source(&task.corpus, base_size,
               BuildArrivalSchedule(task.corpus, base_size,
                                    GridScheduleOptions(seed_in))),
        service(&task.pipeline, &cache) {
    for (size_t i = 0; i < task.corpus.size(); ++i) {
      const uint32_t id = static_cast<uint32_t>(i);
      service.Featurize(task.corpus.doc(id), id, task.corpus);
    }
    ZombieEngine engine(&task.corpus, &service,
                        FullScanOptions(bench::BenchEngineOptions(seed)));
    scan = RunRandomBaseline(engine, NaiveBayesLearner());
  }

  uint64_t seed;
  Task task;
  size_t base_size;
  IncrementalKMeansGrouper grouper;
  GroupingResult grouping;
  ScheduledCorpusSource source;
  FeatureCache cache;
  ExtractionService service;
  RunResult scan;
};

struct GridUnit {
  UnitRecord record;
  std::vector<RunResult> runs;
  std::string runs_digest;
  std::string decisions_digest;
};

/// One unit: the 8 policies x {label, improvement} over one variant, each
/// run timed from outside, then the unit's DecisionLog serialized.
GridUnit RunGridUnit(GridState& s, Ledger* ledger, LayerTally* tally) {
  ObsOptions oo;
  oo.metrics = ledger != nullptr;
  oo.trace = false;
  oo.decision_log = true;
  ObsContext obs(oo);
  std::unique_ptr<Learner> learner = std::make_unique<NaiveBayesLearner>();
  std::vector<std::unique_ptr<RewardFunction>> rewards;
  rewards.push_back(MakeReward(RewardKind::kLabel));
  rewards.push_back(MakeReward(RewardKind::kImprovement));
  std::vector<std::unique_ptr<BanditPolicy>> policies;
  for (PolicyKind kind : kAllPolicies) policies.push_back(MakePolicy(kind));
  std::unique_ptr<IncrementalGrouper> timed_grouper;
  const IncrementalGrouper* igrouper = &s.grouper;
  if (ledger != nullptr) {
    learner = std::make_unique<TimedLearner>(std::move(learner), ledger);
    for (auto& r : rewards) {
      r = std::make_unique<TimedReward>(std::move(r), ledger);
    }
    for (auto& p : policies) {
      p = std::make_unique<TimedPolicy>(std::move(p), ledger);
    }
    timed_grouper =
        std::make_unique<TimedIncrementalGrouper>(s.grouper.Clone(), ledger);
    igrouper = timed_grouper.get();
  }
  EngineOptions opts = bench::BenchEngineOptions(s.seed);
  opts.pruning = ConservativePruning();
  opts.obs = &obs;
  const ZombieEngine engine(&s.task.corpus, &s.service, opts);
  const FeatureCacheStats cache_before = s.cache.Stats();

  GridUnit unit;
  Digest runs_digest;
  const double start = NowSeconds();
  const double cpu_start = CpuSeconds();
  for (const auto& reward : rewards) {
    for (const auto& policy : policies) {
      RunSpec spec(s.grouping, *policy, *learner, *reward);
      spec.stream = &s.source;
      spec.incremental_grouper = igrouper;
      const double run_start = NowSeconds();
      const double run_cpu_start = CpuSeconds();
      RunResult r = engine.Run(spec);
      unit.record.run_cpu_seconds.push_back(CpuSeconds() - run_cpu_start);
      unit.record.run_ms.push_back((NowSeconds() - run_start) * 1e3);
      unit.record.items += static_cast<double>(r.items_processed);
      runs_digest.Add(r.Fingerprint());
      unit.runs.push_back(std::move(r));
    }
  }
  std::string jsonl;
  {
    ScopedOp t(ledger, Op::kObsSerialize);
    jsonl = obs.decisions()->ToJsonl();
  }
  unit.record.cpu_seconds = CpuSeconds() - cpu_start;
  unit.record.wall_seconds = NowSeconds() - start;
  unit.record.attempted = unit.runs.size();
  unit.runs_digest = runs_digest.Hex();
  Digest d;
  d.Add(jsonl);
  unit.decisions_digest = d.Hex();
  if (tally != nullptr) {
    tally->AddEngineHistograms(*obs.metrics());
    tally->AddCache(cache_before, s.cache.Stats());
    tally->decision_records += obs.decisions()->num_records();
    for (const std::string& label : obs.decisions()->Labels()) {
      for (const PruneEvent& e : obs.decisions()->PruneEvents(label)) {
        tally->prune_kept += static_cast<double>(e.kept_features);
        tally->prune_input += static_cast<double>(e.input_dimension);
      }
    }
  }
  return unit;
}

StatusOr<BenchResult> RunGridWorkload(const BenchArgs& args,
                                      const Golden& golden) {
  std::vector<double> setup_cpu_s;
  std::vector<std::unique_ptr<GridState>> states;
  VariantChecks scan_checks(golden, args.seed, "grid_scan", kGridVariants);
  for (size_t v = 0; v < kGridVariants; ++v) {
    const double start = NowSeconds();
    const double cpu_start = CpuSeconds();
    states.push_back(std::make_unique<GridState>(VariantSeed(args.seed, v)));
    setup_cpu_s.push_back(CpuSeconds() - cpu_start);
    std::printf("setup variant=%zu cpu=%.4f s wall=%.4f s\n", v,
                setup_cpu_s.back(), NowSeconds() - start);
    Digest d;
    d.Add(states.back()->scan.Fingerprint());
    scan_checks.SetReference(v, d.Hex());
  }

  VariantChecks run_checks(golden, args.seed, "grid_runs", kGridVariants);
  VariantChecks decision_checks(golden, args.seed, "grid_decisions",
                                kGridVariants);
  std::vector<std::vector<RunResult>> firsts(kGridVariants);
  std::vector<std::vector<std::string>> fingerprints(kGridVariants);
  Ledger ledger;
  LayerTally tally;
  // A run fails when its fingerprint differs from the variant's first
  // unit; a unit whose digests disagree with the reference or the record
  // fails every one of its runs.
  auto run_unit = [&](bool traced, size_t v) {
    GridUnit unit = RunGridUnit(*states[v], traced ? &ledger : nullptr,
                                traced ? &tally : nullptr);
    const bool unit_ok = run_checks.Check(v, unit.runs_digest) &&
                         decision_checks.Check(v, unit.decisions_digest);
    if (firsts[v].empty()) {
      for (const RunResult& r : unit.runs) {
        fingerprints[v].push_back(r.Fingerprint());
      }
      firsts[v] = unit.runs;
    }
    for (size_t k = 0; k < unit.runs.size(); ++k) {
      if (!unit_ok || unit.runs[k].Fingerprint() != fingerprints[v][k]) {
        ++unit.record.failed;
      }
    }
    return unit;
  };

  const GridUnit warm = run_unit(false, 0);
  const bool warm_ok = warm.record.failed == 0;
  Status reset = ResetPeakRss();
  if (!reset.ok()) return reset;

  std::vector<UnitRecord> untraced;
  std::vector<UnitRecord> traced;
  uint32_t unit_id = 0;
  TimedLoop(
      args, kGridVariants,
      [&](bool traced_turn, size_t v) {
        if (traced_turn) ledger.BeginUnit(unit_id);
        ++unit_id;
        GridUnit unit = run_unit(traced_turn, v);
        if (traced_turn) {
          ledger.EndUnit();
          ++tally.units;
          tally.wall_nanos += unit.record.wall_seconds * 1e9;
        }
        return unit.record;
      },
      &untraced, &traced);
  StatusOr<double> peak_rss_mb = PeakRssMegabytes();
  if (!peak_rss_mb.ok()) return peak_rss_mb.status();

  BenchResult result;
  for (const std::vector<UnitRecord>* units : {&untraced, &traced}) {
    for (const UnitRecord& u : *units) {
      result.attempted += u.attempted;
      result.failed += u.failed;
    }
  }
  result.correct = scan_checks.references_ok() && run_checks.references_ok() &&
                   decision_checks.references_ok() && warm_ok &&
                   result.failed == 0;

  // Deterministic metrics over every variant's runs. Speedups are ratios
  // with a heavy right tail (a scan that is slow to reach 95% inflates one
  // trial tenfold), so they are averaged geometrically.
  EndToEnd det;
  double log_speedup_sum = 0.0;
  size_t valid = 0;
  size_t trials = 0;
  for (size_t v = 0; v < kGridVariants; ++v) {
    double wait_micros = 0.0;
    size_t valid_v = 0;
    for (const RunResult& r : firsts[v]) {
      wait_micros += static_cast<double>(r.total_virtual_micros());
      const SpeedupReport sp =
          ComputeSpeedup(states[v]->scan, r, kSpeedupQualityFraction);
      ++trials;
      if (sp.valid()) {
        log_speedup_sum += std::log(sp.time_speedup);
        ++valid;
        ++valid_v;
      }
    }
    det.engineer_wait_s.push_back(wait_micros / 1e6);
    det.quality.push_back(MeanFinalQuality(firsts[v]));
    std::printf("variant %zu: unit wait %.3f virtual s, mean final F1 %.4f, "
                "scan final F1 %.4f, %zu of %zu speedups valid\n",
                v, wait_micros / 1e6, det.quality.back(),
                states[v]->scan.final_quality, valid_v, firsts[v].size());
  }
  det.virtual_speedup =
      valid > 0 ? std::exp(log_speedup_sum / static_cast<double>(valid)) : 0.0;
  std::printf("virtual_speedup: geometric mean of %zu valid of %zu trials "
              "(time to %.0f%% of the random full scan's final quality)\n",
              valid, trials, kSpeedupQualityFraction * 100.0);
  std::vector<Metric> e2e =
      EndToEndMetricsOf(setup_cpu_s, untraced, kGridVariants, det,
                        peak_rss_mb.value(), "grid unit");
  if (!args.trace) {
    result.metrics = std::move(e2e);
    return result;
  }
  double build_ms = 0.0;
  for (const auto& s : states) {
    build_ms += static_cast<double>(s->grouping.build_wall_micros) / 1e3 /
                kGridVariants;
  }
  const double overhead =
      Ratio(Median(UnitWalls(traced)), Median(UnitWalls(untraced)));
  result.metrics = PerLayerMetricsOf(tally, ledger, build_ms,
                                     /*select_from_histogram=*/false,
                                     overhead);
  if (!args.spans_path.empty()) {
    Status st = ledger.WriteSpans(args.spans_path);
    if (!st.ok()) return st;
  }
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"session_cold",
                                                 "session_replay",
                                                 "grid_drift"};
  return names;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"items_per_cpu_s", "1/s"},
      {"peak_rss_mb", "MB"},    {"engineer_wait_s", "s"},
      {"quality", "F1"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"index.build_ms", "ms"},
      {"index.assign_us", "us"},
      {"index.assign_calls", "count"},
      {"index.new_arms", "count"},
      {"featureeng.featurize_us", "us"},
      {"featureeng.featurize_calls", "count"},
      {"featureeng.cache_hit_ratio", "ratio"},
      {"featureeng.store_hit_ratio", "ratio"},
      {"featureeng.store_appends", "count"},
      {"ml.holdout_eval_ms", "ms"},
      {"ml.holdout_evals", "count"},
      {"ml.score_us", "us"},
      {"ml.score_calls", "count"},
      {"ml.update_us", "us"},
      {"ml.update_calls", "count"},
      {"ml.prune_kept_ratio", "ratio"},
      {"bandit.select_us", "us"},
      {"bandit.select_calls", "count"},
      {"bandit.score_arms_calls", "count"},
      {"core.reward_us", "us"},
      {"core.reward_calls", "count"},
      {"obs.decision_records", "count"},
      {"index.self_share", "share"},
      {"featureeng.self_share", "share"},
      {"ml.self_share", "share"},
      {"bandit.self_share", "share"},
      {"core.self_share", "share"},
      {"obs.self_share", "share"},
      {"core.unattributed_share", "share"},
      {"obs.trace_overhead", "x"},
  };
  return specs;
}

int64_t FullScanSessionVirtualMicros(const Corpus& corpus,
                                     const RevisionScript& script) {
  int64_t total = 0;
  for (size_t r = 0; r < script.size(); ++r) {
    const FeaturePipeline pipeline = script.BuildPipeline(r, corpus);
    for (size_t i = 0; i < corpus.size(); ++i) {
      const Document& doc = corpus.doc(static_cast<uint32_t>(i));
      total += pipeline.ExtractionCostMicros(doc) + doc.labeling_cost_micros;
    }
  }
  return total;
}

StatusOr<BenchResult> RunWorkload(const BenchArgs& args) {
  StatusOr<Golden> golden = LoadGolden(args.golden_path);
  if (!golden.ok()) return golden.status();
  StatusOr<std::unique_ptr<TempDir>> tmp = TempDir::Create(args.work_dir);
  if (!tmp.ok()) return tmp.status();
  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "session_cold" || args.workload == "session_replay") {
    return RunSessionWorkload(args, args.workload == "session_replay",
                              golden.value(), *tmp.value());
  }
  if (args.workload == "grid_drift") {
    return RunGridWorkload(args, golden.value());
  }
  return Status::InvalidArgument("unknown workload: " + args.workload);
}

}  // namespace perfbench
}  // namespace zombie
