#include "ledger.h"

#include <chrono>
#include <cstdio>
#include <string>

namespace zombie {
namespace perfbench {

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kIndex:
      return "index";
    case Layer::kFeatureeng:
      return "featureeng";
    case Layer::kMl:
      return "ml";
    case Layer::kBandit:
      return "bandit";
    case Layer::kCore:
      return "core";
    case Layer::kObs:
      return "obs";
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kIndexAssign:
      return "index.assign";
    case Op::kIndexOther:
      return "index.other";
    case Op::kMlScore:
      return "ml.score";
    case Op::kMlUpdate:
      return "ml.update";
    case Op::kMlOther:
      return "ml.other";
    case Op::kBanditSelect:
      return "bandit.select";
    case Op::kBanditScoreArms:
      return "bandit.score_arms";
    case Op::kBanditOther:
      return "bandit.other";
    case Op::kCoreReward:
      return "core.reward";
    case Op::kCoreOther:
      return "core.other";
    case Op::kObsSerialize:
      return "obs.serialize";
  }
  return "?";
}

Layer OpLayer(Op op) {
  switch (op) {
    case Op::kIndexAssign:
    case Op::kIndexOther:
      return Layer::kIndex;
    case Op::kMlScore:
    case Op::kMlUpdate:
    case Op::kMlOther:
      return Layer::kMl;
    case Op::kBanditSelect:
    case Op::kBanditScoreArms:
    case Op::kBanditOther:
      return Layer::kBandit;
    case Op::kCoreReward:
    case Op::kCoreOther:
      return Layer::kCore;
    case Op::kObsSerialize:
      return Layer::kObs;
  }
  return Layer::kCore;
}

Ledger::Ledger(size_t span_capacity)
    : epoch_nanos_(SteadyNanos()), span_capacity_(span_capacity) {
  spans_.reserve(span_capacity_);
}

int64_t Ledger::NowNanos() const { return SteadyNanos() - epoch_nanos_; }

void Ledger::Record(Op op, int64_t start_nanos, int64_t end_nanos) {
  OpTotals& t = totals_[static_cast<size_t>(op)];
  ++t.calls;
  t.nanos += end_nanos - start_nanos;
  if (spans_.size() < span_capacity_) {
    spans_.push_back(Span{start_nanos, end_nanos - start_nanos, unit_, op});
  } else {
    ++dropped_spans_;
  }
}

void Ledger::BeginUnit(uint32_t unit) {
  spans_.clear();
  dropped_spans_ = 0;
  unit_ = unit;
  unit_start_nanos_ = NowNanos();
  unit_end_nanos_ = unit_start_nanos_;
}

void Ledger::EndUnit() { unit_end_nanos_ = NowNanos(); }

void Ledger::ResetTotals() {
  totals_ = {};
  new_arms_ = 0;
}

Status Ledger::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write spans to " + path);
  // Chrome trace events take microseconds; fractional values keep the
  // nanosecond resolution the spans were recorded at.
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"droppedSpans\":%zu,"
               "\"traceEvents\":[\n",
               dropped_spans_);
  std::fprintf(f,
               "{\"name\":\"unit\",\"cat\":\"unit\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%u}}",
               static_cast<double>(unit_start_nanos_) / 1e3,
               static_cast<double>(unit_end_nanos_ - unit_start_nanos_) / 1e3,
               unit_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%u}}",
                 OpName(s.op), LayerName(OpLayer(s.op)),
                 static_cast<double>(s.start_nanos) / 1e3,
                 static_cast<double>(s.duration_nanos) / 1e3, s.unit);
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace zombie
