#ifndef ZOMBIE_DATA_CORPUS_SOURCE_H_
#define ZOMBIE_DATA_CORPUS_SOURCE_H_

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "util/status.h"

namespace zombie {

/// One scheduled document arrival: the document at dense corpus index
/// `doc_index` becomes visible once the run's virtual clock reaches
/// `at_virtual_micros`. Arrivals are kept sorted by time (ties by position
/// in the schedule), so consuming them in order is deterministic.
struct DocumentArrival {
  int64_t at_virtual_micros = 0;
  uint32_t doc_index = 0;
};

/// In what order the streamed suffix of the corpus arrives. The order is
/// part of the schedule (and therefore of the deterministic run), not a
/// presentation choice: domain-grouped arrival is what creates genuinely
/// drifting arm values for the non-stationary policies.
enum class ArrivalOrder {
  /// Corpus construction order (generators already interleave topics).
  kCorpus,
  /// Deterministically shuffled with the schedule seed.
  kShuffled,
  /// Grouped by domain id (stable within a domain): arrivals sweep through
  /// domains one at a time, so which index groups receive fresh documents
  /// shifts over virtual time — concept drift by construction.
  kDomainGrouped,
};

const char* ArrivalOrderName(ArrivalOrder order);

/// Knobs for BuildArrivalSchedule.
struct ArrivalScheduleOptions {
  /// Mean arrival rate, documents per virtual second. The gap between
  /// consecutive arrivals is (1e6 / rate) microseconds plus deterministic
  /// jitter.
  double docs_per_virtual_second = 100.0;
  /// Relative jitter on each inter-arrival gap, in [0, 1): gap is drawn
  /// uniformly from [mean * (1 - jitter), mean * (1 + jitter)]. 0 gives a
  /// strictly periodic stream.
  double jitter = 0.5;
  ArrivalOrder order = ArrivalOrder::kCorpus;
  uint64_t seed = 17;
};

/// Checks that `arrivals` covers [base_size, corpus.size()) exactly once:
/// InvalidArgument for a missing, duplicated, base or out-of-range
/// document, or a negative arrival time. Order does not matter.
[[nodiscard]] Status ValidateArrivalSchedule(
    const Corpus& corpus, size_t base_size,
    const std::vector<DocumentArrival>& arrivals);

/// The pull-based streaming view of a corpus: a fully materialized corpus
/// whose *visibility* is time-gated. Documents [0, base_size) exist from
/// the start (the offline base the index is built over); documents
/// [base_size, corpus.size()) arrive over virtual time per `arrivals`.
///
/// Pre-materializing the whole corpus — instead of mutating a Corpus
/// mid-run — is what keeps streaming deterministic and thread-safe for
/// free: prefetch workers hold `const Corpus&` across the run, document
/// views never invalidate, and the engine's only streaming state is a
/// cursor over the (immutable) schedule. The source itself is therefore
/// const through an entire run and safely shared across concurrent trials.
class ScheduledCorpusSource {
 public:
  /// `corpus` is borrowed and must outlive the source. Every arrival must
  /// reference a document in [base_size, corpus->size()) exactly once
  /// (checked by Validate). Arrivals are stably sorted by time here, so
  /// callers may pass them in any order; ties keep their relative order.
  ScheduledCorpusSource(const Corpus* corpus, size_t base_size,
                        std::vector<DocumentArrival> arrivals);

  const Corpus& corpus() const { return *corpus_; }

  /// Documents visible before any virtual time has passed.
  size_t base_size() const { return base_size_; }

  /// The full schedule, sorted by arrival time (ties in schedule order).
  const std::vector<DocumentArrival>& arrivals() const { return arrivals_; }

  /// Number of documents visible at `virtual_now` (base + arrived).
  size_t VisibleCount(int64_t virtual_now_micros) const;

  /// ValidateArrivalSchedule over this source's schedule.
  [[nodiscard]] Status Validate() const;

 private:
  const Corpus* corpus_;
  size_t base_size_;
  std::vector<DocumentArrival> arrivals_;
};

/// Builds the canonical schedule for streaming the suffix
/// [base_size, corpus.size()) of `corpus`: inter-arrival gaps from the
/// rate/jitter knobs, document order per `options.order`. Deterministic
/// given (corpus, base_size, options). `base_size` must be >= 1 and <=
/// corpus.size(); a base equal to the corpus size yields an empty (drained)
/// schedule.
std::vector<DocumentArrival> BuildArrivalSchedule(
    const Corpus& corpus, size_t base_size,
    const ArrivalScheduleOptions& options);

}  // namespace zombie

#endif  // ZOMBIE_DATA_CORPUS_SOURCE_H_
