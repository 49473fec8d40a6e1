#include "core/engine.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/convergence.h"
#include "core/speculative_prefetcher.h"
#include "data/corpus_source.h"
#include "featureeng/feature_cache.h"
#include "index/grouped_corpus.h"
#include "index/incremental_grouper.h"
#include "ml/dataset.h"
#include "ml/evaluator.h"
#include "ml/feature_pruner.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

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
    : corpus_(corpus), pipeline_(pipeline), options_(options) {
  ZCHECK(corpus != nullptr);
  ZCHECK(pipeline != nullptr);
  ZCHECK_OK(options.Validate());
  ZCHECK(!corpus->empty()) << "cannot run on an empty corpus";
}

ZombieEngine::ZombieEngine(const Corpus* corpus, ExtractionService* service,
                           EngineOptions options)
    : corpus_(corpus),
      pipeline_(service != nullptr ? &service->pipeline() : nullptr),
      service_(service),
      options_(options) {
  ZCHECK(corpus != nullptr);
  ZCHECK(service != nullptr);
  ZCHECK(options.feature_cache == nullptr)
      << "with a borrowed ExtractionService the cache belongs to the "
         "service, not EngineOptions";
  ZCHECK(options.feature_store == nullptr)
      << "with a borrowed ExtractionService the feature store belongs to "
         "the service, not EngineOptions";
  ZCHECK_OK(options.Validate());
  ZCHECK(!corpus->empty()) << "cannot run on an empty corpus";
}

namespace {

int32_t BinaryLabel(int32_t raw) { return raw == 1 ? 1 : 0; }

}  // namespace

RunResult ZombieEngine::Run(const RunSpec& spec) const {
  ZCHECK(spec.grouping != nullptr);
  ZCHECK(spec.policy != nullptr);
  ZCHECK(spec.learner != nullptr);
  ZCHECK(spec.reward != nullptr);
  const GroupingResult& grouping = *spec.grouping;
  const bool streaming = spec.stream != nullptr;
  if (streaming) {
    ZCHECK(spec.incremental_grouper != nullptr)
        << "streaming runs need the grouper that built spec.grouping";
    ZCHECK(&spec.stream->corpus() == corpus_)
        << "stream must be scheduled over the engine's corpus";
    ZCHECK_EQ(spec.incremental_grouper->num_groups(), grouping.groups.size())
        << "spec.grouping must be the incremental grouper's GroupBase "
           "result";
  }
  // The offline prefix: grouping, holdout sampling, and cost normalization
  // all see only these documents. Offline runs use the whole corpus, so
  // every base_size-derived quantity below reduces to the pre-streaming
  // value byte for byte.
  const size_t base_size =
      streaming ? spec.stream->base_size() : corpus_->size();
  const BanditPolicy& policy_prototype = *spec.policy;
  const Learner& learner_prototype = *spec.learner;
  const RewardFunction& reward_prototype = *spec.reward;
  const std::vector<ArmSummary>* warm_start = spec.warm_start;
  Stopwatch wall;
  Rng rng(options_.seed);
  VirtualClock clock;

  RunResult result;
  result.grouper_name = grouping.method;

  // --- Observability sinks (all null when disabled). Everything recorded
  // here is measurement only — no instrumented branch may influence the
  // run (RunResult stays byte-identical with obs on or off). -------------
  ObsContext* obs = options_.obs;
  MetricsRegistry* metrics = obs != nullptr ? obs->metrics() : nullptr;
  TraceRecorder* tracer = obs != nullptr ? obs->trace() : nullptr;
  DecisionLog* dlog = obs != nullptr ? obs->decisions() : nullptr;
  Counter* pulls_counter = nullptr;
  Counter* positives_counter = nullptr;
  Counter* evals_counter = nullptr;
  Counter* cache_hit_counter = nullptr;
  Counter* cache_miss_counter = nullptr;
  Counter* cache_bypass_counter = nullptr;
  Histogram* extract_hist = nullptr;
  Histogram* eval_hist = nullptr;
  Histogram* holdout_eval_hist = nullptr;
  if (metrics != nullptr) {
    metrics->GetCounter("engine.runs")->Increment();
    pulls_counter = metrics->GetCounter("engine.pulls");
    positives_counter = metrics->GetCounter("engine.positives");
    evals_counter = metrics->GetCounter("engine.evals");
    cache_hit_counter = metrics->GetCounter("featureeng.cache.hits");
    cache_miss_counter = metrics->GetCounter("featureeng.cache.misses");
    cache_bypass_counter = metrics->GetCounter("featureeng.cache.bypass");
    extract_hist = metrics->GetHistogram("featureeng.extract_us");
    eval_hist = metrics->GetHistogram("engine.eval_us");
    holdout_eval_hist = metrics->GetHistogram("engine.holdout_eval_us");
  }
  TraceSpan run_span(tracer, "engine.run", "engine");

  // All featurization goes through the ExtractionService facade: either
  // the caller's shared service, or a transient per-run one wrapping
  // (pipeline, EngineOptions::feature_cache, RunSpec::prefetch). The
  // service's memoization and speculation are wall-clock-only (see its
  // equivalence contract), so everything downstream — learner updates,
  // rewards, the virtual clock — is byte-identical whether extraction is
  // raw, cached, or prefetched.
  ExtractionService* service = service_;
  std::unique_ptr<ExtractionService> run_service;
  if (service == nullptr) {
    run_service = std::make_unique<ExtractionService>(
        pipeline_, options_.feature_cache, spec.prefetch, tracer,
        options_.feature_store);
    service = run_service.get();
  }
  // Online feature pruning. Disabled (the default) constructs nothing and
  // every hook below is null-guarded, so the prune-off run is byte-for-byte
  // the pre-pruning engine. Enabled, the pruner observes training examples
  // and freezes its mask at a holdout-eval boundary — all decisions derive
  // from virtual-time-visible state only, so the pruned run is itself
  // byte-identical across thread counts, cache/store modes, and SIMD
  // levels.
  const FeaturePrunerOptions& prune_opts = spec.pruning_override != nullptr
                                               ? *spec.pruning_override
                                               : options_.pruning;
  std::unique_ptr<FeaturePruner> pruner;
  if (prune_opts.enabled) {
    pruner = std::make_unique<FeaturePruner>(prune_opts);
  }

  CacheOutcome last_cache = CacheOutcome::kDisabled;
  auto featurize = [&](uint32_t doc_id, const Document& doc) {
    ScopedHistogramTimer extract_timer(extract_hist);
    SparseVector x =
        service->Featurize(doc, doc_id, *corpus_, &last_cache, pruner.get());
    switch (last_cache) {
      case CacheOutcome::kDisabled:
        if (cache_bypass_counter != nullptr) {
          cache_bypass_counter->Increment();
        }
        break;
      case CacheOutcome::kHit:
        if (cache_hit_counter != nullptr) cache_hit_counter->Increment();
        break;
      case CacheOutcome::kMiss:
        if (cache_miss_counter != nullptr) cache_miss_counter->Increment();
        break;
    }
    return x;
  };

  GroupedCorpus grouped(corpus_, grouping, rng.Fork().NextUint64(),
                        spec.shuffle_groups, base_size);
  // Arm count at the start of the run; streaming may grow it (splits, new
  // domains), so the loop always reads the live counts from
  // grouped/stats.
  const size_t num_groups = grouped.num_groups();
  ZCHECK_GE(num_groups, 1u);

  // Speculative prefetch: overlaps each holdout evaluation window with
  // background extraction of the top-ranked arms' upcoming documents.
  // No-op unless the service has prefetch workers.
  SpeculativePrefetcher prefetcher(service, &grouped, tracer);

  // --- Holdout: sample, exclude from training, featurize up front. --------
  // Streaming: sampled from the offline base prefix only — unarrived
  // documents must not leak into evaluation (or be pre-marked processed
  // before they exist).
  size_t holdout_size = std::min(options_.holdout_size, base_size / 2);
  holdout_size = std::max<size_t>(holdout_size, 1);
  Dataset holdout_data;
  {
    TraceSpan holdout_span(tracer, "engine.holdout", "engine");
    std::vector<uint32_t> ids(base_size);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
    Rng holdout_rng = rng.Fork();
    holdout_rng.Shuffle(&ids);
    if (options_.holdout_positive_fraction >= 0.0) {
      // Stratified: walk the shuffled order taking positives/negatives
      // until each quota fills (falling back to whatever remains). Never
      // take more than half of the corpus's positives — on very skewed
      // corpora the holdout must not starve training of the rare class.
      size_t corpus_positives = 0;
      for (size_t i = 0; i < base_size; ++i) {
        corpus_positives += corpus_->doc(i).label == 1;
      }
      size_t want_pos = static_cast<size_t>(
          options_.holdout_positive_fraction *
          static_cast<double>(holdout_size));
      want_pos = std::min(want_pos, corpus_positives / 2);
      size_t want_neg = holdout_size - want_pos;
      std::vector<uint32_t> chosen;
      std::vector<uint32_t> leftovers;
      for (uint32_t id : ids) {
        bool positive = corpus_->doc(id).label == 1;
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
      ids = std::move(chosen);
    } else {
      ids.resize(holdout_size);
    }
    for (uint32_t id : ids) grouped.MarkProcessed(id);

    for (uint32_t id : ids) {
      const Document& doc = corpus_->doc(id);
      holdout_data.Add(featurize(id, doc), BinaryLabel(doc.label));
      if (options_.charge_holdout_cost) {
        clock.Advance(pipeline_->ExtractionCostMicros(doc) +
                      doc.labeling_cost_micros);
      }
    }
    result.holdout_virtual_micros = clock.NowMicros();
    clock.Reset();  // loop_virtual_micros is tracked separately
  }
  HoldoutEvaluator holdout(std::move(holdout_data));

  // Private pool for sharded holdout scoring (never the caller's driver
  // pool: nesting ParallelFor inside a driver task can leave every worker
  // blocked in Wait() on subtasks queued behind them). Scoring writes
  // disjoint slots of a pre-sized vector over fixed shard boundaries and
  // all reductions run serially, so results are byte-identical at any
  // thread count. The serial default (threads == 1) creates no pool and
  // allocates nothing extra.
  std::unique_ptr<ThreadPool> eval_pool;
  if (options_.holdout_eval_threads > 1) {
    eval_pool = std::make_unique<ThreadPool>(options_.holdout_eval_threads);
  }

  // Probe subset for probe-requiring rewards.
  Dataset probe;
  const bool needs_probe = reward_prototype.requires_probe();
  if (needs_probe) {
    size_t probe_size = std::min(options_.probe_size, holdout.size());
    for (size_t i = 0; i < probe_size; ++i) {
      probe.Add(holdout.holdout().example(i));
    }
  }

  // --- Components ----------------------------------------------------------
  std::unique_ptr<Learner> learner = learner_prototype.Clone();
  std::unique_ptr<BanditPolicy> policy = policy_prototype.Clone();
  std::unique_ptr<RewardFunction> reward = reward_prototype.Clone();
  policy->Reset(num_groups);
  ArmStats stats(num_groups, options_.arm_stats);
  std::vector<size_t> pseudo_pulls(num_groups, 0);
  std::vector<double> pseudo_reward(num_groups, 0.0);
  if (warm_start != nullptr && warm_start->size() == num_groups) {
    // Seed each arm with a handful of pseudo-observations at its previous
    // mean reward; enough to bias early selection, few enough that fresh
    // evidence overrides stale knowledge quickly. Pseudo counts are
    // subtracted from the reported arm summaries below.
    for (size_t a = 0; a < num_groups; ++a) {
      const ArmSummary& prior = (*warm_start)[a];
      if (prior.pulls == 0) continue;
      double mean = prior.total_reward / static_cast<double>(prior.pulls);
      size_t pseudo = std::min<size_t>(prior.pulls, 5);
      for (size_t k = 0; k < pseudo; ++k) {
        stats.Record(a, mean);
        policy->Observe(a, mean);
      }
      pseudo_pulls[a] = pseudo;
      pseudo_reward[a] = mean * static_cast<double>(pseudo);
    }
  }
  std::vector<size_t> arm_positives(num_groups, 0);
  Rng select_rng = rng.Fork();

  // --- Streaming ingestion --------------------------------------------------
  // The engine owns the cursor into the (const, pre-sorted) arrival
  // schedule; the source itself is never mutated, so sharing one
  // ScheduledCorpusSource across concurrent runs is safe. Arrivals become
  // visible when the *virtual* clock passes their timestamp, and the
  // engine consumes them only at holdout-eval boundaries (plus starvation
  // fast-forwards) — the same virtual-time-visible rule as prune freezes —
  // so ingestion is byte-identical across thread counts, cache/store
  // modes, and SIMD levels.
  std::unique_ptr<IncrementalGrouper> igrouper =
      streaming ? spec.incremental_grouper->Clone() : nullptr;
  size_t stream_cursor = 0;  // next unconsumed arrival
  std::vector<IngestEvent> ingest_events;
  Counter* ingest_windows_counter = nullptr;
  Counter* ingest_docs_counter = nullptr;
  Counter* ingest_new_arms_counter = nullptr;
  Counter* ingest_splits_counter = nullptr;
  if (metrics != nullptr && streaming) {
    ingest_windows_counter = metrics->GetCounter("ingest.windows");
    ingest_docs_counter = metrics->GetCounter("ingest.docs");
    ingest_new_arms_counter = metrics->GetCounter("ingest.new_arms");
    ingest_splits_counter = metrics->GetCounter("ingest.splits");
  }

  // Stream-visible virtual time: the holdout featurization charge plus the
  // loop clock (the clock resets after the holdout pass so the two spans
  // are tracked separately).
  auto stream_virtual_now = [&]() {
    return result.holdout_virtual_micros + clock.NowMicros();
  };

  // Consumes every arrival whose virtual timestamp has passed: routes the
  // document through the incremental grouper, appends it to its groups,
  // and registers any group born from it (split or new domain) as a fresh
  // bandit arm — GroupedCorpus::AddGroup, ArmStats::AddArm, and
  // BanditPolicy::OnArmAdded all number the new arm identically.
  auto ingest = [&](size_t items_now) {
    if (!streaming) return;
    const std::vector<DocumentArrival>& arrivals = spec.stream->arrivals();
    const int64_t now = stream_virtual_now();
    uint64_t docs_added = 0;
    uint64_t new_arms = 0;
    uint64_t splits = 0;
    while (stream_cursor < arrivals.size() &&
           arrivals[stream_cursor].at_virtual_micros <= now) {
      const uint32_t doc = arrivals[stream_cursor].doc_index;
      ++stream_cursor;
      IngestAssignment asg = igrouper->AssignOrSplit(*corpus_, doc);
      ZCHECK(!asg.groups.empty());
      for (const NewGroupSeed& seed : asg.new_groups) {
        size_t g = grouped.AddGroup(seed.members);
        size_t arm = stats.AddArm();
        ZCHECK_EQ(arm, g);
        policy->OnArmAdded(arm);
        pseudo_pulls.push_back(0);
        pseudo_reward.push_back(0.0);
        arm_positives.push_back(0);
        ++new_arms;
        splits += seed.source_group != kNoSourceGroup;
      }
      grouped.AppendDocument(doc, asg.groups);
      // The arm may have been exhausted while starved of supply; it is
      // the same group, so it revives with its reward history intact.
      for (size_t g : asg.groups) stats.Reactivate(g);
      ++docs_added;
    }
    if (docs_added == 0) return;
    ZCHECK_EQ(grouped.num_groups(), igrouper->num_groups());
    IngestEvent ev;
    ev.items = static_cast<uint64_t>(items_now);
    ev.virtual_micros = now;
    ev.docs_added = docs_added;
    ev.new_arms = new_arms;
    ev.splits = splits;
    ev.total_arms = static_cast<uint64_t>(stats.num_arms());
    ingest_events.push_back(ev);
    if (ingest_windows_counter != nullptr) {
      ingest_windows_counter->Increment();
      ingest_docs_counter->Increment(docs_added);
      ingest_new_arms_counter->Increment(new_arms);
      ingest_splits_counter->Increment(splits);
    }
  };

  result.policy_name = policy->name();
  result.reward_name = reward->name();
  result.learner_name = learner->name();

  // Per-component latency series and the decision log. The run label keys
  // decision records by configuration + seed, so the log is independent of
  // which driver thread executed the run.
  Histogram* select_hist = nullptr;
  Histogram* update_hist = nullptr;
  if (metrics != nullptr) {
    select_hist =
        metrics->GetHistogram("bandit.select_us." + policy->name());
    update_hist =
        metrics->GetHistogram("learner.update_us." + learner->name());
  }
  std::vector<DecisionRecord> decisions;
  std::vector<PruneEvent> prune_events;
  std::vector<double> score_buffer;
  const std::string run_label =
      dlog != nullptr
          ? StrFormat("%s/%s/%s/%s/s%llu", policy->name().c_str(),
                      grouping.method.c_str(), reward->name().c_str(),
                      learner->name().c_str(),
                      static_cast<unsigned long long>(options_.seed))
          : std::string();

  ConvergenceDetector plateau(options_.stop.plateau);
  const StopRule& stop = options_.stop;
  double peak_quality = 0.0;
  size_t evals_below_peak = 0;

  // Mean per-item pipeline cost, for cost-aware reward normalization.
  double mean_item_cost = 0.0;
  if (options_.cost_aware_rewards) {
    // Base prefix only: the normalizer must not read documents the stream
    // has not yet revealed (and must stay fixed as arrivals land).
    for (size_t i = 0; i < base_size; ++i) {
      mean_item_cost += static_cast<double>(
          pipeline_->ExtractionCostMicros(corpus_->doc(i)));
    }
    mean_item_cost /= static_cast<double>(base_size);
    if (mean_item_cost <= 0.0) mean_item_cost = 1.0;
  }

  auto evaluate = [&](size_t items) {
    ScopedHistogramTimer eval_timer(eval_hist);
    TraceSpan eval_span(tracer, "engine.evaluate", "engine");
    if (evals_counter != nullptr) evals_counter->Increment();
    BinaryMetrics m;
    {
      // The holdout scoring pass proper (no curve/stop bookkeeping): what
      // holdout_eval_threads parallelizes and engine.holdout_eval_us times.
      ScopedHistogramTimer holdout_eval_timer(holdout_eval_hist);
      m = options_.tune_threshold
              ? EvaluateLearnerTuned(*learner, holdout.holdout(), nullptr,
                                     eval_pool.get())
              : holdout.Evaluate(*learner, eval_pool.get());
    }
    CurvePoint p;
    p.items_processed = items;
    p.virtual_micros = clock.NowMicros();
    p.quality = QualityOf(m, options_.metric);
    p.metrics = m;
    result.curve.Add(p);
    plateau.Add(p.quality);
    if (p.quality < peak_quality - stop.decline_margin) {
      ++evals_below_peak;
    } else {
      evals_below_peak = 0;
    }
    peak_quality = std::max(peak_quality, p.quality);
    return p.quality;
  };

  // Probe quality uses AUC regardless of the run's reported metric: the
  // thresholded metrics almost never move for a single update, so their
  // deltas would starve the improvement reward of signal.
  auto probe_quality = [&]() {
    return QualityOf(EvaluateLearner(*learner, probe), QualityMetric::kAuc);
  };
  // Probe quality of the current model, carried from one pull's post-update
  // measurement to the next pull's pre-update one: nothing between the two
  // touches the learner, so the probe is scored once per model state. The
  // prune freeze compacts learner and probe, which moves the scores, so it
  // clears the carry.
  std::optional<double> carried_probe_quality;

  // Curve origin: the untrained learner.
  evaluate(0);

  // --- The inner loop -------------------------------------------------------
  TraceSpan loop_span(tracer, "engine.loop", "engine");
  size_t items = 0;
  bool stopped = false;
  while (!stopped) {
    if (stats.num_active() == 0) {
      if (streaming && stream_cursor < spec.stream->arrivals().size()) {
        // Starved, not exhausted: every current group is drained but the
        // stream still has arrivals. Fast-forward the virtual clock to the
        // next arrival (the engine would genuinely be idle until then) and
        // ingest. Consuming at least one arrival reactivates at least one
        // arm, so the loop makes progress.
        const int64_t next_at =
            spec.stream->arrivals()[stream_cursor].at_virtual_micros;
        const int64_t now = stream_virtual_now();
        if (next_at > now) clock.Advance(next_at - now);
        ingest(items);
        continue;
      }
      result.stop_reason = StopReason::kExhausted;
      break;
    }
    size_t arm;
    {
      ScopedHistogramTimer select_timer(select_hist);
      arm = policy->SelectArm(stats, &select_rng);
    }
    ZCHECK(stats.active(arm)) << "policy selected an exhausted arm";
    std::optional<uint32_t> doc_idx = grouped.NextFromGroup(arm);
    if (!doc_idx.has_value()) {
      stats.Deactivate(arm);
      continue;
    }
    if (pulls_counter != nullptr) pulls_counter->Increment();

    const Document& doc = corpus_->doc(*doc_idx);
    SparseVector x = featurize(*doc_idx, doc);
    const int64_t extraction_cost =
        pipeline_->ExtractionCostMicros(doc) + doc.labeling_cost_micros;
    clock.Advance(extraction_cost);
    int32_t y = BinaryLabel(doc.label);
    if (y == 1 && positives_counter != nullptr) {
      positives_counter->Increment();
    }

    RewardInputs inputs;
    inputs.features = x;
    inputs.label = y;
    inputs.score_before = learner->Score(x);
    inputs.probability_before = learner->PredictProbability(x);
    inputs.seen_positive = result.positives_processed;
    inputs.seen_negative = items - result.positives_processed;
    double probe_before = 0.0;
    if (needs_probe) {
      probe_before = carried_probe_quality.has_value()
                         ? *carried_probe_quality
                         : probe_quality();
    }

    // Activation counts feed the eventual prune ranking; one observation
    // per training example, in pull order (no-op once the mask froze).
    if (pruner != nullptr) pruner->ObserveExample(x);
    {
      ScopedHistogramTimer update_timer(update_hist);
      learner->Update(x, y);
    }
    ++items;
    if (y == 1) {
      ++result.positives_processed;
      ++arm_positives[arm];
    }

    inputs.learner = learner.get();
    if (needs_probe) {
      carried_probe_quality = probe_quality();
      inputs.probe_quality_delta = *carried_probe_quality - probe_before;
    }
    double r = reward->Compute(inputs);
    if (options_.cost_aware_rewards) {
      double relative_cost =
          static_cast<double>(pipeline_->ExtractionCostMicros(doc)) /
          mean_item_cost;
      // Clamp so one freak-cheap item cannot dominate the arm estimate
      // (rewards must stay in [0, 1] for the Bernoulli-style policies).
      r = std::min(1.0, r / std::max(relative_cost, 0.25));
    }
    if (dlog != nullptr) {
      // Captured before Observe so the scores reflect the posterior the
      // policy actually selected from. Every field is deterministic given
      // (corpus, grouping, seed) — no wall time — which is what makes the
      // log byte-identical across driver thread counts.
      policy->ScoreArms(stats, &score_buffer);
      DecisionRecord rec;
      rec.iteration = static_cast<uint64_t>(items - 1);  // 0-based pull index
      rec.arm = static_cast<uint32_t>(arm);
      rec.doc_id = *doc_idx;
      rec.reward = r;
      rec.cache = last_cache;
      rec.extraction_cost_micros = extraction_cost;
      rec.virtual_micros = clock.NowMicros();
      rec.arm_scores = score_buffer;
      decisions.push_back(std::move(rec));
    }
    stats.Record(arm, r);
    policy->Observe(arm, r);

    // --- Cadence: evaluate and apply stop rules. ---------------------------
    if (items % options_.eval_every == 0) {
      // Ingestion first: arrivals whose virtual timestamp has passed join
      // the index before speculation ranks arms and before the holdout
      // scores — the new arms are visible to everything downstream of
      // this boundary.
      ingest(items);
      // Speculate right before the evaluation so the prefetch workers run
      // while this thread is busy scoring the holdout. Candidate ranking
      // draws no randomness and mutates nothing the run observes.
      prefetcher.SpeculateBeforeEvaluation(*policy, stats);
      // Prune freeze happens at most once, exactly here — a holdout-eval
      // boundary — so the holdout kernels below already run compacted. The
      // freeze decision reads only items + learner state (deterministic);
      // the virtual clock never observes pruning bookkeeping.
      if (pruner != nullptr && pruner->MaybeFreeze(learner.get(), items)) {
        holdout =
            HoldoutEvaluator(pruner->CompactDataset(holdout.holdout()));
        if (needs_probe) {
          probe = pruner->CompactDataset(probe);
          carried_probe_quality.reset();
        }
        const PruneStats& ps = pruner->stats();
        PruneEvent ev;
        ev.items = static_cast<uint64_t>(items);
        ev.virtual_micros = clock.NowMicros();
        ev.input_dimension = static_cast<uint64_t>(ps.input_dimension);
        ev.kept_features = static_cast<uint64_t>(ps.kept_features);
        ev.pruned_features = static_cast<uint64_t>(ps.pruned_features);
        prune_events.push_back(ev);
        if (metrics != nullptr) {
          metrics->GetCounter("prune.freezes")->Increment();
          metrics->GetGauge("prune.frozen_at_items")
              ->Set(static_cast<double>(ps.frozen_at_items));
          metrics->GetGauge("prune.input_dimension")
              ->Set(static_cast<double>(ps.input_dimension));
          metrics->GetGauge("prune.kept_features")
              ->Set(static_cast<double>(ps.kept_features));
          metrics->GetGauge("prune.pruned_features")
              ->Set(static_cast<double>(ps.pruned_features));
        }
      }
      double q = evaluate(items);
      if (stop.target_quality >= 0.0 && q >= stop.target_quality) {
        result.stop_reason = StopReason::kTarget;
        stopped = true;
      } else if (stop.plateau_enabled && items >= stop.min_items &&
                 q > stop.plateau_min_quality && plateau.converged()) {
        result.stop_reason = StopReason::kPlateau;
        stopped = true;
      } else if (stop.decline_enabled && items >= stop.min_items &&
                 evals_below_peak >= stop.decline_window) {
        result.stop_reason = StopReason::kDecline;
        stopped = true;
      }
    }
    if (!stopped && items >= stop.max_items) {
      result.stop_reason = StopReason::kBudget;
      stopped = true;
    }
  }

  // Loop exit: pending speculation is now useless for this run. A per-run
  // service is cancelled outright; a borrowed (shared) one is left alone —
  // other runs may have speculation in flight, and its owner cancels at
  // teardown.
  if (run_service != nullptr) run_service->CancelPrefetch();

  // Final evaluation if the last item batch wasn't evaluated.
  if (result.curve.empty() ||
      result.curve.point(result.curve.size() - 1).items_processed != items) {
    evaluate(items);
  }

  result.items_processed = items;
  result.loop_virtual_micros = clock.NowMicros();
  // The last curve point was scored at exactly `items` on the final
  // learner state and holdout, so it is the final evaluation.
  result.final_metrics = result.curve.point(result.curve.size() - 1).metrics;
  result.final_quality = QualityOf(result.final_metrics, options_.metric);
  result.wall_micros = wall.ElapsedMicros();

  // grouped.num_groups(), not the base count: streaming may have opened
  // arms mid-run, and they report like any other.
  const size_t final_groups = grouped.num_groups();
  result.arms.resize(final_groups);
  for (size_t a = 0; a < final_groups; ++a) {
    result.arms[a].group_size = grouped.group_size(a);
    result.arms[a].pulls = stats.pulls(a) - pseudo_pulls[a];
    result.arms[a].total_reward = stats.total_reward(a) - pseudo_reward[a];
    result.arms[a].positives_seen = arm_positives[a];
  }
  if (dlog != nullptr) {
    dlog->AppendRun(run_label, std::move(decisions));
    if (!prune_events.empty()) {
      dlog->AppendPruneEvents(run_label, std::move(prune_events));
    }
    if (!ingest_events.empty()) {
      dlog->AppendIngestEvents(run_label, std::move(ingest_events));
    }
  }
  // Delta-tracked, so repeated exports from runs sharing a service (and a
  // metrics registry) accumulate without double-counting.
  service->ExportMetrics(metrics);
  return result;
}

}  // namespace zombie
