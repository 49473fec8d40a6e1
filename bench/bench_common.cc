#include "bench_common.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "ml/naive_bayes.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {
namespace bench {

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  long parsed = std::atol(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

}  // namespace

size_t BenchCorpusSize() { return EnvSize("ZOMBIE_BENCH_DOCS", 12000); }

std::vector<uint64_t> BenchSeeds() {
  size_t trials = EnvSize("ZOMBIE_BENCH_TRIALS", 3);
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < trials; ++i) seeds.push_back(i + 1);
  return seeds;
}

size_t BenchThreads() {
  // 0 = let the driver resolve hardware concurrency.
  return EnvSize("ZOMBIE_BENCH_THREADS", 0);
}

EngineOptions BenchEngineOptions(uint64_t seed) {
  EngineOptions o;
  o.seed = seed;
  o.holdout_size = 400;
  o.eval_every = 25;
  return o;
}

RunResult RunZombieTrial(const Task& task, const GroupingResult& grouping,
                         const BanditPolicy& policy,
                         const RewardFunction& reward,
                         const Learner& learner, const EngineOptions& opts) {
  ZombieEngine engine(&task.corpus, &task.pipeline, opts);
  return engine.Run(RunSpec(grouping, policy, learner, reward));
}

std::vector<RunResult> RunZombieTrials(const Task& task,
                                       const GroupingResult& grouping,
                                       PolicyKind policy,
                                       const RewardFunction& reward,
                                       const Learner& learner,
                                       const EngineOptions& base,
                                       FeatureCache* cache) {
  ExperimentDriverOptions dopts;
  dopts.num_threads = BenchThreads();
  dopts.engine = base;
  dopts.cache = cache;
  ExperimentDriver driver(&task.corpus, &task.pipeline, dopts);
  ExperimentGrid grid;
  grid.policies = {policy};
  grid.groupings = {&grouping};
  grid.rewards = {&reward};
  grid.learners = {&learner};
  grid.seeds = BenchSeeds();
  StatusOr<std::vector<TrialResult>> trials = driver.RunGrid(grid);
  ZCHECK_OK(trials.status());
  std::vector<RunResult> runs;
  runs.reserve(trials.value().size());
  for (TrialResult& t : trials.value()) runs.push_back(std::move(t.run));
  return runs;
}

std::vector<RunResult> RunScanTrials(const Task& task,
                                     const EngineOptions& base,
                                     bool sequential, const Learner* learner) {
  ExperimentDriverOptions dopts;
  dopts.num_threads = BenchThreads();
  dopts.engine = base;
  ExperimentDriver driver(&task.corpus, &task.pipeline, dopts);
  // The scan baselines default to naive Bayes, matching the Zombie side in
  // every experiment that calls this helper.
  NaiveBayesLearner nb;
  return driver.RunScanBaselines(BenchSeeds(),
                                 learner != nullptr ? *learner : nb,
                                 sequential);
}

MeanSpeedup AverageSpeedup(const std::vector<RunResult>& baselines,
                           const std::vector<RunResult>& zombies,
                           double quality_fraction) {
  ZCHECK_EQ(baselines.size(), zombies.size());
  MeanSpeedup m;
  m.total_trials = baselines.size();
  double time_sum = 0.0;
  double items_sum = 0.0;
  for (size_t i = 0; i < baselines.size(); ++i) {
    SpeedupReport s =
        ComputeSpeedup(baselines[i], zombies[i], quality_fraction);
    if (!s.valid()) continue;
    time_sum += s.time_speedup;
    items_sum += s.items_speedup;
    ++m.valid_trials;
  }
  if (m.valid_trials > 0) {
    m.time_speedup = time_sum / static_cast<double>(m.valid_trials);
    m.items_speedup = items_sum / static_cast<double>(m.valid_trials);
  }
  return m;
}

void FinishTable(const TableWriter& table, const char* name) {
  table.Print();
  const char* dir = std::getenv("ZOMBIE_BENCH_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::string path = std::string(dir) + "/" + name + ".csv";
  if (table.WriteCsvFile(path)) {
    std::printf("(csv written to %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

void PrintPreamble(const char* experiment_id, const char* reproduces,
                   const char* expected_shape) {
  std::printf("=== %s ===\n", experiment_id);
  std::printf("reproduces: %s\n", reproduces);
  std::printf("expected shape: %s\n", expected_shape);
  std::printf("scale: %zu docs, %zu trials (ZOMBIE_BENCH_DOCS / "
              "ZOMBIE_BENCH_TRIALS to change)\n\n",
              BenchCorpusSize(), BenchSeeds().size());
}

// --- BenchReporter ----------------------------------------------------------

namespace {

/// Escapes a string for a JSON literal (names are plain ASCII labels, but
/// escape defensively).
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string GitRev() {
  for (const char* var : {"ZOMBIE_GIT_REV", "GITHUB_SHA"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && v[0] != '\0') return v;
  }
  return "unknown";
}

}  // namespace

BenchReporter::BenchReporter(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchReporter::Add(Entry entry) {
  entries_.push_back(std::move(entry));
}

void BenchReporter::AddRuns(const std::string& name,
                            const std::vector<RunResult>& runs,
                            double cache_hit_rate) {
  Entry e;
  e.name = name;
  e.cache_hit_rate = cache_hit_rate;
  if (!runs.empty()) {
    double n = static_cast<double>(runs.size());
    for (const RunResult& r : runs) {
      e.wall_micros += static_cast<double>(r.wall_micros);
      e.virtual_micros += static_cast<double>(r.total_virtual_micros());
      e.items += static_cast<double>(r.items_processed);
      e.quality += r.final_quality;
    }
    e.wall_micros /= n;
    e.virtual_micros /= n;
    e.items /= n;
    e.quality /= n;
  }
  entries_.push_back(std::move(e));
}

void BenchReporter::AddMetric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void BenchReporter::AttachMetrics(const MetricsRegistry& metrics) {
  observability_json_ = metrics.ToJson();
}

void BenchReporter::Finish() {
  const char* dir = std::getenv("ZOMBIE_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";

  std::string json;
  json += "{\n";
  json += "  \"schema_version\": 2,\n";
  json += StrFormat("  \"bench\": \"%s\",\n", JsonEscape(name_).c_str());
  json += StrFormat("  \"git_rev\": \"%s\",\n", JsonEscape(GitRev()).c_str());
  json += StrFormat("  \"generated_unix\": %lld,\n",
                    static_cast<long long>(std::time(nullptr)));
  json += StrFormat("  \"total_wall_micros\": %lld,\n",
                    static_cast<long long>(total_.ElapsedMicros()));
  json += "  \"entries\": [\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"wall_micros\": %.3f, "
        "\"virtual_micros\": %.3f, \"items\": %.3f, \"quality\": %.6f, "
        "\"cache_hit_rate\": %.6f}%s\n",
        JsonEscape(e.name).c_str(), e.wall_micros, e.virtual_micros,
        e.items, e.quality, e.cache_hit_rate,
        i + 1 < entries_.size() ? "," : "");
  }
  json += "  ],\n";
  json += "  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += StrFormat("%s\"%s\": %.6f", i == 0 ? "" : ", ",
                      JsonEscape(metrics_[i].first).c_str(),
                      metrics_[i].second);
  }
  json += "}";
  if (!observability_json_.empty()) {
    json += ",\n  \"observability\": ";
    json += observability_json_;
  }
  json += "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace bench
}  // namespace zombie
