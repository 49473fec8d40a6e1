#include "core/engine.h"

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/convergence.h"
#include "data/corpus_source.h"
#include "featureeng/persistent_feature_store.h"
#include "index/grouped_corpus.h"
#include "index/incremental_grouper.h"
#include "ml/dataset.h"
#include "ml/evaluator.h"
#include "ml/feature_pruner.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

GroupingResult MakeSingleGroupGrouping(size_t corpus_size) {
  GroupingResult g;
  g.method = "single";
  g.groups.resize(1);
  g.groups[0].reserve(corpus_size);
  for (size_t i = 0; i < corpus_size; ++i) {
    g.groups[0].push_back(static_cast<uint32_t>(i));
  }
  return g;
}

ZombieEngine::ZombieEngine(const Corpus* corpus,
                           const FeaturePipeline* pipeline,
                           EngineOptions options)
    : corpus_(corpus),
      owned_service_(std::make_unique<ExtractionService>(pipeline)),
      service_(owned_service_.get()),
      options_(options) {
  ZCHECK(corpus != nullptr);
  ZCHECK_OK(options.Validate());
  ZCHECK(!corpus->empty()) << "cannot run on an empty corpus";
}

ZombieEngine::ZombieEngine(const Corpus* corpus, ExtractionService* service,
                           EngineOptions options)
    : corpus_(corpus), service_(service), options_(options) {
  ZCHECK(corpus != nullptr);
  ZCHECK(service != nullptr);
  ZCHECK_OK(options.Validate());
  ZCHECK(!corpus->empty()) << "cannot run on an empty corpus";
}

namespace {

int32_t BinaryLabel(int32_t raw) { return raw == 1 ? 1 : 0; }

/// Plateau stop requires the quality estimate to have lifted off the
/// floor: a flat-at-zero curve means the learner has not seen the rare
/// class yet, not that it has converged.
constexpr double kPlateauMinQuality = 0.02;

/// The decline stop: this many consecutive evaluations more than the
/// margin below the peak quality.
constexpr size_t kDeclineWindow = 12;
constexpr double kDeclineMargin = 0.08;

/// Positive-class share the holdout is stratified to.
constexpr double kHoldoutPositiveFraction = 0.25;

/// Per-arm bookkeeping beside ArmStats. The warm-start pseudo-observations
/// are subtracted from the reported arm summary.
struct ArmTally {
  size_t pseudo_pulls = 0;
  double pseudo_reward = 0.0;
  size_t positives = 0;
};

size_t CacheSlot(CacheOutcome outcome) {
  return static_cast<size_t>(static_cast<int>(outcome) + 1);
}

/// The run's metric series, fetched once. Every handle is null when metrics
/// are off, so recording costs one null check.
struct EngineMetrics {
  EngineMetrics(MetricsRegistry* registry, const BanditPolicy& policy,
                const Learner& learner) {
    if (registry == nullptr) return;
    registry->GetCounter("engine.runs")->Increment();
    pulls = registry->GetCounter("engine.pulls");
    positives = registry->GetCounter("engine.positives");
    evals = registry->GetCounter("engine.evals");
    cache[CacheSlot(CacheOutcome::kDisabled)] =
        registry->GetCounter("featureeng.cache.bypass");
    cache[CacheSlot(CacheOutcome::kMiss)] =
        registry->GetCounter("featureeng.cache.misses");
    cache[CacheSlot(CacheOutcome::kHit)] =
        registry->GetCounter("featureeng.cache.hits");
    extract = registry->GetHistogram("featureeng.extract_us");
    eval = registry->GetHistogram("engine.eval_us");
    holdout_eval = registry->GetHistogram("engine.holdout_eval_us");
    select = registry->GetHistogram("bandit.select_us." + policy.name());
    update = registry->GetHistogram("learner.update_us." + learner.name());
  }

  Counter* pulls = nullptr;
  Counter* positives = nullptr;
  Counter* evals = nullptr;
  std::array<Counter*, 3> cache = {};  // indexed by CacheSlot
  Histogram* extract = nullptr;
  Histogram* eval = nullptr;
  Histogram* holdout_eval = nullptr;  // the scoring pass alone
  Histogram* select = nullptr;
  Histogram* update = nullptr;
};

/// Streaming ingestion (RunSpec::stream), built only for streaming runs.
/// It consumes arrivals once the *virtual* clock passes their timestamp, at
/// eval boundaries and starvation fast-forwards only, so ingestion is
/// byte-identical across thread counts, cache/store modes and SIMD levels.
/// The arm set is borrowed: a group born from an arrival becomes one arm
/// of `grouped`, `stats`, `policy` and `arms`.
class Ingestion {
 public:
  Ingestion(const RunSpec& spec, MetricsRegistry* metrics,
            GroupedCorpus* grouped, ArmStats* stats, BanditPolicy* policy,
            std::vector<ArmTally>* arms)
      : arrivals_(spec.stream->arrivals()),
        grouper_(spec.incremental_grouper->Clone()),
        grouped_(grouped),
        stats_(stats),
        policy_(policy),
        arms_(arms) {
    if (metrics == nullptr) return;
    windows_ = metrics->GetCounter("ingest.windows");
    docs_ = metrics->GetCounter("ingest.docs");
    new_arms_ = metrics->GetCounter("ingest.new_arms");
    splits_ = metrics->GetCounter("ingest.splits");
  }

  bool pending() const { return cursor_ < arrivals_.size(); }
  int64_t next_arrival_micros() const {
    return arrivals_[cursor_].at_virtual_micros;
  }
  std::vector<IngestEvent>& events() { return events_; }

  /// Consumes every arrival stamped at or before `now`: routes it through
  /// the incremental grouper, appends it to its groups, and registers any
  /// group born from it (split or new domain) as a fresh arm.
  void Consume(const Corpus& corpus, int64_t now, size_t items) {
    uint64_t docs_added = 0;
    uint64_t new_arms = 0;
    uint64_t splits = 0;
    while (cursor_ < arrivals_.size() &&
           arrivals_[cursor_].at_virtual_micros <= now) {
      const uint32_t doc = arrivals_[cursor_].doc_index;
      ++cursor_;
      IngestAssignment asg = grouper_->AssignOrSplit(corpus, doc);
      ZCHECK(!asg.groups.empty());
      for (const NewGroupSeed& seed : asg.new_groups) {
        size_t g = grouped_->AddGroup(seed.members);
        size_t arm = stats_->AddArm();
        ZCHECK_EQ(arm, g);
        policy_->OnArmAdded(arm);
        arms_->emplace_back();
        ++new_arms;
        splits += seed.source_group != kNoSourceGroup;
      }
      grouped_->AppendDocument(doc, asg.groups);
      // The arm may have been exhausted while starved of supply; it is
      // the same group, so it revives with its reward history intact.
      for (size_t g : asg.groups) stats_->Reactivate(g);
      ++docs_added;
    }
    if (docs_added == 0) return;
    ZCHECK_EQ(grouped_->num_groups(), grouper_->num_groups());
    IngestEvent ev;
    ev.items = static_cast<uint64_t>(items);
    ev.virtual_micros = now;
    ev.docs_added = docs_added;
    ev.new_arms = new_arms;
    ev.splits = splits;
    ev.total_arms = static_cast<uint64_t>(stats_->num_arms());
    events_.push_back(ev);
    if (windows_ != nullptr) {
      windows_->Increment();
      docs_->Increment(docs_added);
      new_arms_->Increment(new_arms);
      splits_->Increment(splits);
    }
  }

 private:
  const std::vector<DocumentArrival>& arrivals_;
  std::unique_ptr<IncrementalGrouper> grouper_;
  GroupedCorpus* grouped_;
  ArmStats* stats_;
  BanditPolicy* policy_;
  std::vector<ArmTally>* arms_;
  size_t cursor_ = 0;  // next unconsumed arrival
  std::vector<IngestEvent> events_;
  Counter* windows_ = nullptr;
  Counter* docs_ = nullptr;
  Counter* new_arms_ = nullptr;
  Counter* splits_ = nullptr;
};

/// Online feature pruning (EngineOptions::pruning), built only when
/// enabled. The mask freezes at most once, at an eval boundary, from the
/// item count and learner state only, so a pruned run is byte-identical
/// across thread counts, cache/store modes and SIMD levels.
class PruneFreeze {
 public:
  PruneFreeze(const FeaturePrunerOptions& options, MetricsRegistry* metrics)
      : pruner_(options), metrics_(metrics) {}

  const FeaturePruner* pruner() const { return &pruner_; }
  void Observe(const SparseVector& x) { pruner_.ObserveExample(x); }
  std::vector<PruneEvent>& events() { return events_; }

  /// Freezes the mask when due and compacts the learner, the holdout and
  /// the probe, so the boundary's evaluation already runs compacted. True
  /// when the mask froze here.
  bool MaybeFreeze(Learner* learner, size_t items, int64_t virtual_micros,
                   HoldoutEvaluator* holdout, Dataset* probe) {
    if (!pruner_.MaybeFreeze(learner, items)) return false;
    *holdout = HoldoutEvaluator(pruner_.CompactDataset(holdout->holdout()));
    *probe = pruner_.CompactDataset(*probe);
    const PruneStats& ps = pruner_.stats();
    PruneEvent ev;
    ev.items = static_cast<uint64_t>(items);
    ev.virtual_micros = virtual_micros;
    ev.input_dimension = static_cast<uint64_t>(ps.input_dimension);
    ev.kept_features = static_cast<uint64_t>(ps.kept_features);
    ev.pruned_features = static_cast<uint64_t>(ps.pruned_features);
    events_.push_back(ev);
    if (metrics_ != nullptr) {
      metrics_->GetCounter("prune.freezes")->Increment();
      metrics_->GetGauge("prune.frozen_at_items")
          ->Set(static_cast<double>(ps.frozen_at_items));
      metrics_->GetGauge("prune.input_dimension")
          ->Set(static_cast<double>(ps.input_dimension));
      metrics_->GetGauge("prune.kept_features")
          ->Set(static_cast<double>(ps.kept_features));
      metrics_->GetGauge("prune.pruned_features")
          ->Set(static_cast<double>(ps.pruned_features));
    }
    return true;
  }

 private:
  FeaturePruner pruner_;
  MetricsRegistry* metrics_;
  std::vector<PruneEvent> events_;
};

/// The early-stop rules, checked after each boundary evaluation; the first
/// that holds ends the run.
std::optional<StopReason> EarlyStop(const StopRule& stop, size_t items,
                                    double quality,
                                    const ConvergenceDetector& plateau,
                                    size_t evals_below_peak) {
  if (stop.plateau_enabled && items >= stop.min_items &&
      quality > kPlateauMinQuality && plateau.converged()) {
    return StopReason::kPlateau;
  }
  if (stop.decline_enabled && items >= stop.min_items &&
      evals_below_peak >= kDeclineWindow) {
    return StopReason::kDecline;
  }
  return std::nullopt;
}

/// One run's state and its phases: set-up (the constructor), then Drive's
/// loop of pull steps and eval boundaries, then Finish.
class EngineRun {
 public:
  EngineRun(const Corpus& corpus, ExtractionService* service,
            const EngineOptions& options, const RunSpec& spec)
      : corpus_(corpus),
        service_(service),
        options_(options),
        base_size_(spec.stream != nullptr ? spec.stream->base_size()
                                          : corpus.size()),
        rng_(options.seed),
        registry_(options.obs != nullptr ? options.obs->metrics() : nullptr),
        tracer_(options.obs != nullptr ? options.obs->trace() : nullptr),
        dlog_(options.obs != nullptr ? options.obs->decisions() : nullptr),
        run_span_(tracer_, "engine.run", "engine"),
        learner_(spec.learner->Clone()),
        policy_(spec.policy->Clone()),
        reward_(spec.reward->Clone()),
        metrics_(registry_, *policy_, *learner_),
        prune_(options.pruning.enabled
                   ? std::optional<PruneFreeze>(std::in_place,
                                                options.pruning, registry_)
                   : std::nullopt),
        grouped_(&corpus, *spec.grouping, rng_.Fork().NextUint64(),
                 spec.shuffle_groups, base_size_),
        holdout_(FeaturizeHoldout()),
        needs_probe_(reward_->requires_probe()),
        stats_(grouped_.num_groups()),
        arms_(grouped_.num_groups()),
        select_rng_(rng_.Fork()) {
    result_.grouper_name = spec.grouping->method;
    if (needs_probe_) {
      size_t probe_size = std::min(options.probe_size, holdout_.size());
      for (size_t i = 0; i < probe_size; ++i) {
        probe_.Add(holdout_.holdout().example(i));
      }
    }
    policy_->Reset(grouped_.num_groups());
    if (spec.warm_start != nullptr &&
        spec.warm_start->size() == grouped_.num_groups()) {
      WarmStart(*spec.warm_start);
    }
    if (spec.stream != nullptr) {
      ingestion_.emplace(spec, registry_, &grouped_, &stats_, policy_.get(),
                         &arms_);
    }
    result_.policy_name = policy_->name();
    result_.reward_name = reward_->name();
    result_.learner_name = learner_->name();
    // Keyed by configuration + seed, so the decision log does not depend
    // on which driver thread executed the run.
    if (dlog_ != nullptr) {
      run_label_ = StrFormat(
          "%s/%s/%s/%s/s%llu", policy_->name().c_str(),
          spec.grouping->method.c_str(), reward_->name().c_str(),
          learner_->name().c_str(),
          static_cast<unsigned long long>(options.seed));
    }
    if (options.cost_aware_rewards) {
      // Base prefix only: the normalizer must not read documents the
      // stream has not yet revealed (and must stay fixed as arrivals land).
      for (size_t i = 0; i < base_size_; ++i) {
        mean_item_cost_ += static_cast<double>(
            service_->ExtractionCostMicros(corpus.doc(i)));
      }
      mean_item_cost_ /= static_cast<double>(base_size_);
      if (mean_item_cost_ <= 0.0) mean_item_cost_ = 1.0;
    }
  }

  /// The curve's origin, then pull steps with a boundary every
  /// `eval_every` items until a stop rule or the budget ends the run, then
  /// Finish.
  RunResult Drive() {
    Evaluate();  // the curve's origin: the untrained learner
    TraceSpan loop_span(tracer_, "engine.loop", "engine");
    size_t arm = 0;
    uint32_t doc_id = 0;
    while (!stopped_) {
      if (!NextItem(&arm, &doc_id)) continue;
      Pull(arm, doc_id);
      if (items_ % options_.eval_every == 0) Boundary();
      if (!stopped_ && items_ >= options_.stop.max_items) {
        Stop(StopReason::kBudget);
      }
    }
    return Finish();
  }

 private:
  /// Picks an arm and pops its next item. False when this iteration has no
  /// item to pull: a drained arm was retired, a starved stream was
  /// fast-forwarded, or the run stopped on exhaustion.
  bool NextItem(size_t* arm, uint32_t* doc_id) {
    if (stats_.num_active() == 0) {
      if (ingestion_ && ingestion_->pending()) {
        // Starved, not exhausted: every current group is drained but the
        // stream still has arrivals. Fast-forward the virtual clock to the
        // next arrival (the engine would genuinely be idle until then) and
        // ingest, which reactivates at least one arm.
        const int64_t next_at = ingestion_->next_arrival_micros();
        const int64_t now = StreamNow();
        if (next_at > now) clock_.Advance(next_at - now);
        Ingest();
        return false;
      }
      Stop(StopReason::kExhausted);
      return false;
    }
    {
      ScopedHistogramTimer select_timer(metrics_.select);
      *arm = policy_->SelectArm(stats_, &select_rng_);
    }
    ZCHECK(stats_.active(*arm)) << "policy selected an exhausted arm";
    std::optional<uint32_t> next = grouped_.NextFromGroup(*arm);
    if (!next.has_value()) {
      stats_.Deactivate(*arm);
      return false;
    }
    *doc_id = *next;
    return true;
  }

  /// Featurizes the item, trains on it and rewards its arm.
  void Pull(size_t arm, uint32_t doc_id) {
    if (metrics_.pulls != nullptr) metrics_.pulls->Increment();
    const Document& doc = corpus_.doc(doc_id);
    SparseVector x = Featurize(doc_id, doc);
    const int64_t extraction_cost =
        service_->ExtractionCostMicros(doc) + doc.labeling_cost_micros;
    clock_.Advance(extraction_cost);
    int32_t y = BinaryLabel(doc.label);
    if (y == 1 && metrics_.positives != nullptr) {
      metrics_.positives->Increment();
    }

    RewardInputs inputs;
    inputs.features = x;
    inputs.label = y;
    inputs.score_before = learner_->Score(x);
    inputs.probability_before =
        Learner::ProbabilityFromScore(inputs.score_before);
    inputs.seen_positive = result_.positives_processed;
    inputs.seen_negative = items_ - result_.positives_processed;
    double probe_before = 0.0;
    if (needs_probe_) {
      probe_before = carried_probe_quality_.has_value()
                         ? *carried_probe_quality_
                         : ProbeQuality();
    }

    if (prune_) prune_->Observe(x);
    {
      ScopedHistogramTimer update_timer(metrics_.update);
      learner_->Update(x, y);
    }
    ++items_;
    if (y == 1) {
      ++result_.positives_processed;
      ++arms_[arm].positives;
    }

    inputs.learner = learner_.get();
    if (needs_probe_) {
      carried_probe_quality_ = ProbeQuality();
      inputs.probe_quality_delta = *carried_probe_quality_ - probe_before;
    }
    double r = reward_->Compute(inputs);
    if (options_.cost_aware_rewards) {
      double relative_cost =
          static_cast<double>(service_->ExtractionCostMicros(doc)) /
          mean_item_cost_;
      // Clamp so one freak-cheap item cannot dominate the arm estimate
      // (rewards must stay in [0, 1] for the Bernoulli-style policies).
      r = std::min(1.0, r / std::max(relative_cost, 0.25));
    }
    if (dlog_ != nullptr) {
      // Captured before Observe, so the scores reflect the posterior the
      // policy selected from. No field reads wall time (DecisionRecord).
      policy_->ScoreArms(stats_, &score_buffer_);
      DecisionRecord rec;
      rec.iteration = static_cast<uint64_t>(items_ - 1);  // 0-based
      rec.arm = static_cast<uint32_t>(arm);
      rec.doc_id = doc_id;
      rec.reward = r;
      rec.cache = last_cache_;
      rec.extraction_cost_micros = extraction_cost;
      rec.virtual_micros = clock_.NowMicros();
      rec.arm_scores = score_buffer_;
      decisions_.push_back(std::move(rec));
    }
    stats_.Record(arm, r);
    policy_->Observe(arm, r);
  }

  /// Ingest, then prune freeze, then evaluate, then the early-stop rules.
  void Boundary() {
    // Arrivals whose timestamp has passed join the index before the
    // holdout scores: the new arms are visible to everything downstream.
    Ingest();
    if (prune_ && prune_->MaybeFreeze(learner_.get(), items_,
                                      clock_.NowMicros(), &holdout_, &probe_)) {
      carried_probe_quality_.reset();
    }
    const double quality = Evaluate();
    std::optional<StopReason> reason = EarlyStop(
        options_.stop, items_, quality, plateau_, evals_below_peak_);
    if (reason.has_value()) Stop(*reason);
  }

  /// Scores the learner on the holdout and appends a curve point at the
  /// current item count; returns its quality.
  double Evaluate() {
    ScopedHistogramTimer eval_timer(metrics_.eval);
    TraceSpan eval_span(tracer_, "engine.evaluate", "engine");
    if (metrics_.evals != nullptr) metrics_.evals->Increment();
    BinaryMetrics m;
    {
      ScopedHistogramTimer holdout_eval_timer(metrics_.holdout_eval);
      m = options_.tune_threshold
              ? EvaluateLearnerTuned(*learner_, holdout_.holdout())
              : holdout_.Evaluate(*learner_);
    }
    CurvePoint p;
    p.items_processed = items_;
    p.virtual_micros = clock_.NowMicros();
    p.quality = m.f1;
    p.metrics = m;
    result_.curve.Add(p);
    plateau_.Add(p.quality);
    if (p.quality < peak_quality_ - kDeclineMargin) {
      ++evals_below_peak_;
    } else {
      evals_below_peak_ = 0;
    }
    peak_quality_ = std::max(peak_quality_, p.quality);
    return p.quality;
  }

  /// Closes the curve, builds the arm summaries and commits the run's
  /// DecisionLog entries.
  RunResult Finish() {
    // Final evaluation if the last item batch wasn't evaluated.
    if (result_.curve.empty() ||
        result_.curve.point(result_.curve.size() - 1).items_processed !=
            items_) {
      Evaluate();
    }
    result_.items_processed = items_;
    result_.loop_virtual_micros = clock_.NowMicros();
    // The last curve point was scored at exactly `items_` on the final
    // learner state and holdout, so it is the final evaluation.
    result_.final_metrics =
        result_.curve.point(result_.curve.size() - 1).metrics;
    result_.final_quality = result_.final_metrics.f1;
    result_.wall_micros = wall_.ElapsedMicros();

    // grouped_.num_groups(), not the base count: streaming may have opened
    // arms mid-run, and they report like any other.
    result_.arms.resize(grouped_.num_groups());
    for (size_t a = 0; a < result_.arms.size(); ++a) {
      result_.arms[a].group_size = grouped_.group_size(a);
      result_.arms[a].pulls = stats_.pulls(a) - arms_[a].pseudo_pulls;
      result_.arms[a].total_reward =
          stats_.total_reward(a) - arms_[a].pseudo_reward;
      result_.arms[a].positives_seen = arms_[a].positives;
    }
    if (dlog_ != nullptr) {
      dlog_->AppendRun(run_label_, std::move(decisions_));
      if (prune_ && !prune_->events().empty()) {
        dlog_->AppendPruneEvents(run_label_, std::move(prune_->events()));
      }
      if (ingestion_ && !ingestion_->events().empty()) {
        dlog_->AppendIngestEvents(run_label_,
                                  std::move(ingestion_->events()));
      }
    }
    // Gauges: repeated exports from runs sharing a store overwrite.
    if (service_->store() != nullptr) {
      service_->store()->ExportMetrics(registry_);
    }
    return std::move(result_);
  }

  /// Samples the holdout from the base prefix (unarrived documents must not
  /// leak into evaluation), excludes it from training and featurizes it up
  /// front, charging its virtual cost apart from the loop's.
  Dataset FeaturizeHoldout() {
    TraceSpan holdout_span(tracer_, "engine.holdout", "engine");
    const size_t holdout_size =
        std::max<size_t>(std::min(options_.holdout_size, base_size_ / 2), 1);
    const std::vector<uint32_t> ids = SampleStratifiedHoldout(
        corpus_, base_size_, holdout_size, rng_.Fork());
    for (uint32_t id : ids) grouped_.MarkProcessed(id);
    Dataset data;
    for (uint32_t id : ids) {
      const Document& doc = corpus_.doc(id);
      data.Add(Featurize(id, doc), BinaryLabel(doc.label));
      clock_.Advance(service_->ExtractionCostMicros(doc) +
                     doc.labeling_cost_micros);
    }
    result_.holdout_virtual_micros = clock_.NowMicros();
    clock_.Reset();  // loop_virtual_micros is tracked separately
    return data;
  }

  /// Seeds each arm with a handful of pseudo-observations at its previous
  /// mean reward: enough to bias early selection, few enough that fresh
  /// evidence overrides stale knowledge quickly.
  void WarmStart(const std::vector<ArmSummary>& prior_arms) {
    for (size_t a = 0; a < prior_arms.size(); ++a) {
      const ArmSummary& prior = prior_arms[a];
      if (prior.pulls == 0) continue;
      double mean = prior.total_reward / static_cast<double>(prior.pulls);
      size_t pseudo = std::min<size_t>(prior.pulls, 5);
      for (size_t k = 0; k < pseudo; ++k) {
        stats_.Record(a, mean);
        policy_->Observe(a, mean);
      }
      arms_[a].pseudo_pulls = pseudo;
      arms_[a].pseudo_reward = mean * static_cast<double>(pseudo);
    }
  }

  /// Every extraction goes through the ExtractionService. Its memoization
  /// is wall-clock-only, so learner updates, rewards and the virtual clock
  /// are byte-identical whether extraction is raw, cached or stored.
  SparseVector Featurize(uint32_t doc_id, const Document& doc) {
    ScopedHistogramTimer extract_timer(metrics_.extract);
    SparseVector x = service_->Featurize(
        doc, doc_id, corpus_, &last_cache_,
        prune_ ? prune_->pruner() : nullptr);
    Counter* outcome = metrics_.cache[CacheSlot(last_cache_)];
    if (outcome != nullptr) outcome->Increment();
    return x;
  }

  /// Stream-visible virtual time: the holdout charge plus the loop clock.
  int64_t StreamNow() const {
    return result_.holdout_virtual_micros + clock_.NowMicros();
  }
  void Ingest() {
    if (ingestion_) ingestion_->Consume(corpus_, StreamNow(), items_);
  }
  void Stop(StopReason reason) {
    result_.stop_reason = reason;
    stopped_ = true;
  }

  /// Probe quality uses AUC, not the run's F1: thresholded metrics almost
  /// never move for a single update, so their deltas would starve the
  /// improvement reward of signal.
  double ProbeQuality() const {
    return EvaluateLearner(*learner_, probe_).auc;
  }

  const Corpus& corpus_;
  ExtractionService* const service_;
  const EngineOptions& options_;
  /// The offline prefix that grouping, holdout sampling and cost
  /// normalization see; offline runs use the whole corpus.
  const size_t base_size_;
  Stopwatch wall_;
  Rng rng_;
  VirtualClock clock_;
  RunResult result_;
  MetricsRegistry* const registry_;
  TraceRecorder* const tracer_;
  DecisionLog* const dlog_;
  TraceSpan run_span_;
  std::unique_ptr<Learner> learner_;
  std::unique_ptr<BanditPolicy> policy_;
  std::unique_ptr<RewardFunction> reward_;
  const EngineMetrics metrics_;
  std::optional<PruneFreeze> prune_;
  CacheOutcome last_cache_ = CacheOutcome::kDisabled;
  // Declared in set-up order: rng_ forks for the index, then the holdout,
  // then arm selection.
  GroupedCorpus grouped_;
  HoldoutEvaluator holdout_;
  const bool needs_probe_;
  Dataset probe_;
  ArmStats stats_;
  std::vector<ArmTally> arms_;
  Rng select_rng_;
  std::optional<Ingestion> ingestion_;
  std::string run_label_;
  double mean_item_cost_ = 0.0;
  size_t items_ = 0;
  bool stopped_ = false;
  /// Probe quality of the current model, carried from one pull's
  /// post-update measurement to the next pull's pre-update one: nothing in
  /// between touches the learner. The prune freeze moves the scores, so it
  /// clears the carry.
  std::optional<double> carried_probe_quality_;
  ConvergenceDetector plateau_;
  double peak_quality_ = 0.0;
  size_t evals_below_peak_ = 0;
  std::vector<DecisionRecord> decisions_;
  std::vector<double> score_buffer_;
};

}  // namespace

std::vector<uint32_t> SampleStratifiedHoldout(const Corpus& corpus,
                                              size_t base_size,
                                              size_t holdout_size, Rng rng) {
  std::vector<uint32_t> ids(base_size);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&ids);
  size_t corpus_positives = 0;
  for (size_t i = 0; i < base_size; ++i) {
    corpus_positives += corpus.doc(i).label == 1;
  }
  size_t want_pos = static_cast<size_t>(
      kHoldoutPositiveFraction * static_cast<double>(holdout_size));
  want_pos = std::min(want_pos, corpus_positives / 2);
  size_t want_neg = holdout_size - want_pos;
  std::vector<uint32_t> chosen;
  std::vector<uint32_t> leftovers;
  for (uint32_t id : ids) {
    bool positive = corpus.doc(id).label == 1;
    if (positive && want_pos > 0) {
      chosen.push_back(id);
      --want_pos;
    } else if (!positive && want_neg > 0) {
      chosen.push_back(id);
      --want_neg;
    } else {
      leftovers.push_back(id);
    }
    if (want_pos == 0 && want_neg == 0) break;
  }
  for (uint32_t id : leftovers) {
    if (chosen.size() >= holdout_size) break;
    chosen.push_back(id);
  }
  return chosen;
}

RunResult ZombieEngine::Run(const RunSpec& spec) const {
  ZCHECK(spec.grouping != nullptr);
  ZCHECK(spec.policy != nullptr);
  ZCHECK(spec.learner != nullptr);
  ZCHECK(spec.reward != nullptr);
  if (spec.stream != nullptr) {
    ZCHECK(spec.incremental_grouper != nullptr)
        << "streaming runs need the grouper that built spec.grouping";
    ZCHECK(&spec.stream->corpus() == corpus_)
        << "stream must be scheduled over the engine's corpus";
    ZCHECK_EQ(spec.incremental_grouper->num_groups(),
              spec.grouping->groups.size())
        << "spec.grouping must be the incremental grouper's GroupBase "
           "result";
  }
  return EngineRun(*corpus_, service_, options_, spec).Drive();
}

}  // namespace zombie
