#include "data/corpus_source.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {

const char* ArrivalOrderName(ArrivalOrder order) {
  switch (order) {
    case ArrivalOrder::kCorpus:
      return "corpus";
    case ArrivalOrder::kShuffled:
      return "shuffled";
    case ArrivalOrder::kDomainGrouped:
      return "domain";
  }
  return "?";
}

ScheduledCorpusSource::ScheduledCorpusSource(
    const Corpus* corpus, size_t base_size,
    std::vector<DocumentArrival> arrivals)
    : corpus_(corpus), base_size_(base_size), arrivals_(std::move(arrivals)) {
  ZCHECK(corpus_ != nullptr);
  ZCHECK_GE(base_size_, 1u) << "streaming needs a non-empty offline base";
  ZCHECK_LE(base_size_, corpus_->size());
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const DocumentArrival& a, const DocumentArrival& b) {
                     return a.at_virtual_micros < b.at_virtual_micros;
                   });
  ZCHECK_OK(ValidateArrivalSchedule(*corpus_, base_size_, arrivals_));
}

size_t ScheduledCorpusSource::VisibleCount(int64_t virtual_now_micros) const {
  DocumentArrival probe;
  probe.at_virtual_micros = virtual_now_micros;
  auto it = std::upper_bound(
      arrivals_.begin(), arrivals_.end(), probe,
      [](const DocumentArrival& a, const DocumentArrival& b) {
        return a.at_virtual_micros < b.at_virtual_micros;
      });
  return base_size_ + static_cast<size_t>(it - arrivals_.begin());
}

Status ValidateArrivalSchedule(const Corpus& corpus, size_t base_size,
                               const std::vector<DocumentArrival>& arrivals) {
  if (base_size > corpus.size()) {
    return Status::InvalidArgument(
        StrFormat("base of %zu documents exceeds the corpus of %zu",
                  base_size, corpus.size()));
  }
  if (arrivals.size() != corpus.size() - base_size) {
    return Status::InvalidArgument(StrFormat(
        "schedule has %zu arrivals for a streamed suffix of %zu documents",
        arrivals.size(), corpus.size() - base_size));
  }
  std::vector<uint8_t> seen(corpus.size() - base_size, 0);
  for (const DocumentArrival& a : arrivals) {
    if (a.doc_index < base_size || a.doc_index >= corpus.size()) {
      return Status::InvalidArgument(StrFormat(
          "arrival references doc %u outside the streamed range [%zu, %zu)",
          a.doc_index, base_size, corpus.size()));
    }
    if (a.at_virtual_micros < 0) {
      return Status::InvalidArgument(
          StrFormat("arrival for doc %u has negative time", a.doc_index));
    }
    uint8_t& flag = seen[a.doc_index - base_size];
    if (flag != 0) {
      return Status::InvalidArgument(
          StrFormat("doc %u arrives twice", a.doc_index));
    }
    flag = 1;
  }
  return Status::OK();
}

Status ScheduledCorpusSource::Validate() const {
  return ValidateArrivalSchedule(*corpus_, base_size_, arrivals_);
}

std::vector<DocumentArrival> BuildArrivalSchedule(
    const Corpus& corpus, size_t base_size,
    const ArrivalScheduleOptions& options) {
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  ZCHECK_GT(options.docs_per_virtual_second, 0.0);
  ZCHECK_GE(options.jitter, 0.0);
  ZCHECK_LT(options.jitter, 1.0);

  std::vector<uint32_t> order;
  order.reserve(corpus.size() - base_size);
  for (size_t i = base_size; i < corpus.size(); ++i) {
    order.push_back(static_cast<uint32_t>(i));
  }
  Rng rng(options.seed);
  switch (options.order) {
    case ArrivalOrder::kCorpus:
      break;
    case ArrivalOrder::kShuffled:
      rng.Shuffle(&order);
      break;
    case ArrivalOrder::kDomainGrouped:
      // Stable, so within one domain the corpus order is preserved; across
      // domains the stream sweeps domain ids in ascending order.
      std::stable_sort(order.begin(), order.end(),
                       [&corpus](uint32_t a, uint32_t b) {
                         return corpus.doc(a).domain < corpus.doc(b).domain;
                       });
      break;
  }

  const double mean_gap = 1e6 / options.docs_per_virtual_second;
  std::vector<DocumentArrival> schedule;
  schedule.reserve(order.size());
  double now = 0.0;
  for (uint32_t doc : order) {
    double gap = mean_gap;
    if (options.jitter > 0.0) {
      gap = mean_gap * rng.NextDouble(1.0 - options.jitter,
                                      1.0 + options.jitter);
    }
    now += gap;
    DocumentArrival a;
    a.at_virtual_micros = static_cast<int64_t>(std::llround(now));
    a.doc_index = doc;
    schedule.push_back(a);
  }
  return schedule;
}

}  // namespace zombie
