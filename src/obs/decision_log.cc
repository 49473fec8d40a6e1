#include "obs/decision_log.h"

#include <charconv>
#include <utility>

#include "obs/json_util.h"
#include "util/string_util.h"

namespace zombie {

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kDisabled:
      return "off";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
  }
  return "?";
}

void DecisionLog::AppendRun(const std::string& run_label,
                            std::vector<DecisionRecord> records) {
  MutexLock lock(&mu_);
  std::vector<DecisionRecord>& dest = runs_[run_label];
  if (dest.empty()) {
    dest = std::move(records);
  } else {
    dest.insert(dest.end(), std::make_move_iterator(records.begin()),
                std::make_move_iterator(records.end()));
  }
}

void DecisionLog::AppendPruneEvents(const std::string& run_label,
                                    std::vector<PruneEvent> events) {
  if (events.empty()) return;
  MutexLock lock(&mu_);
  std::vector<PruneEvent>& dest = prunes_[run_label];
  if (dest.empty()) {
    dest = std::move(events);
  } else {
    dest.insert(dest.end(), events.begin(), events.end());
  }
}

void DecisionLog::AppendIngestEvents(const std::string& run_label,
                                     std::vector<IngestEvent> events) {
  if (events.empty()) return;
  MutexLock lock(&mu_);
  std::vector<IngestEvent>& dest = ingests_[run_label];
  if (dest.empty()) {
    dest = std::move(events);
  } else {
    dest.insert(dest.end(), events.begin(), events.end());
  }
}

size_t DecisionLog::num_runs() const {
  MutexLock lock(&mu_);
  return runs_.size();
}

size_t DecisionLog::num_records() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& [label, records] : runs_) n += records.size();
  return n;
}

std::vector<std::string> DecisionLog::Labels() const {
  MutexLock lock(&mu_);
  std::vector<std::string> labels;
  labels.reserve(runs_.size());
  for (const auto& [label, records] : runs_) labels.push_back(label);
  return labels;
}

std::vector<DecisionRecord> DecisionLog::Records(
    const std::string& run_label) const {
  MutexLock lock(&mu_);
  auto it = runs_.find(run_label);
  return it == runs_.end() ? std::vector<DecisionRecord>() : it->second;
}

std::vector<PruneEvent> DecisionLog::PruneEvents(
    const std::string& run_label) const {
  MutexLock lock(&mu_);
  auto it = prunes_.find(run_label);
  return it == prunes_.end() ? std::vector<PruneEvent>() : it->second;
}

namespace {

// Upper bounds on serialized sizes, for ToJsonl's one reserve. A line's
// keys, punctuation, integer fields and reward fit kMaxLineChars (the
// widest, an ingest line, needs 109 + 6 x 20); each score takes at most 24
// chars ("-1.2345678901234567e-308") plus its ", " separator.
constexpr size_t kMaxLineChars = 256;
constexpr size_t kMaxNumberChars = 26;

template <typename Int>
void AppendDecimal(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

std::string DecisionLog::ToJsonl() const {
  using obs_internal::JsonEscape;
  MutexLock lock(&mu_);
  // Reserved once from an upper bound, so the string never regrows: each
  // doubling would copy the log and hold both copies at once.
  std::vector<std::string> escaped_labels;
  escaped_labels.reserve(runs_.size());
  size_t bound = 0;
  for (const auto& [label, records] : runs_) {
    escaped_labels.push_back(JsonEscape(label));
    size_t lines = records.size();
    size_t scores = 0;
    for (const DecisionRecord& r : records) scores += r.arm_scores.size();
    if (auto it = prunes_.find(label); it != prunes_.end()) {
      lines += it->second.size();
    }
    if (auto it = ingests_.find(label); it != ingests_.end()) {
      lines += it->second.size();
    }
    bound += lines * (kMaxLineChars + escaped_labels.back().size()) +
             scores * kMaxNumberChars;
  }
  std::string out;
  out.reserve(bound);
  obs_internal::JsonNumberMemo numbers;
  size_t run_index = 0;
  for (const auto& [label, records] : runs_) {
    const std::string& escaped = escaped_labels[run_index++];
    // Pull lines are appended piecewise, one per pull, so their fields skip
    // printf's format parsing; the bytes are the "%llu" / "%u" / "%lld"
    // text the event lines below still use.
    const std::string line_start = "{\"run\": \"" + escaped + "\", \"iter\": ";
    for (const DecisionRecord& r : records) {
      out += line_start;
      AppendDecimal(&out, r.iteration);
      out += ", \"arm\": ";
      AppendDecimal(&out, r.arm);
      out += ", \"doc\": ";
      AppendDecimal(&out, r.doc_id);
      out += ", \"reward\": ";
      numbers.Append(&out, r.reward);
      out += ", \"cache\": \"";
      out += CacheOutcomeName(r.cache);
      out += "\", \"cost_us\": ";
      AppendDecimal(&out, r.extraction_cost_micros);
      out += ", \"virtual_us\": ";
      AppendDecimal(&out, r.virtual_micros);
      out += ", \"scores\": [";
      for (size_t i = 0; i < r.arm_scores.size(); ++i) {
        if (i > 0) out += ", ";
        numbers.Append(&out, r.arm_scores[i]);
      }
      out += "]}\n";
    }
    // Prune freezes serialize after the run's pull records. Runs without
    // pruning have no prunes_ entry, so their bytes are exactly the
    // pre-pruning format.
    auto it = prunes_.find(label);
    if (it != prunes_.end()) {
      for (const PruneEvent& p : it->second) {
        out += StrFormat(
            "{\"run\": \"%s\", \"kind\": \"prune\", \"items\": %llu, "
            "\"virtual_us\": %lld, \"input_dim\": %llu, \"kept\": %llu, "
            "\"pruned\": %llu}\n",
            escaped.c_str(), static_cast<unsigned long long>(p.items),
            static_cast<long long>(p.virtual_micros),
            static_cast<unsigned long long>(p.input_dimension),
            static_cast<unsigned long long>(p.kept_features),
            static_cast<unsigned long long>(p.pruned_features));
      }
    }
    // Ingestion windows serialize last. Offline runs have no ingests_
    // entry, so their bytes are exactly the pre-streaming format.
    auto ing = ingests_.find(label);
    if (ing != ingests_.end()) {
      for (const IngestEvent& e : ing->second) {
        out += StrFormat(
            "{\"run\": \"%s\", \"kind\": \"ingest\", \"items\": %llu, "
            "\"virtual_us\": %lld, \"docs\": %llu, \"new_arms\": %llu, "
            "\"splits\": %llu, \"total_arms\": %llu}\n",
            escaped.c_str(), static_cast<unsigned long long>(e.items),
            static_cast<long long>(e.virtual_micros),
            static_cast<unsigned long long>(e.docs_added),
            static_cast<unsigned long long>(e.new_arms),
            static_cast<unsigned long long>(e.splits),
            static_cast<unsigned long long>(e.total_arms));
      }
    }
  }
  return out;
}

Status DecisionLog::WriteJsonl(const std::string& path) const {
  return obs_internal::WriteFile(path, ToJsonl());
}

}  // namespace zombie
