#include "featureeng/pipeline.h"

#include "text/term_counts.h"
#include "util/logging.h"
#include "util/random.h"

namespace zombie {

FeaturePipeline::FeaturePipeline(std::string name) : name_(std::move(name)) {}

FeaturePipeline& FeaturePipeline::Add(
    std::unique_ptr<FeatureExtractor> extractor) {
  ZCHECK(extractor != nullptr);
  uint32_t offset =
      extractors_.empty()
          ? 0
          : offsets_.back() + extractors_.back()->dimension();
  offsets_.push_back(offset);
  extractors_.push_back(std::move(extractor));
  return *this;
}

SparseVector FeaturePipeline::Extract(const Document& doc,
                                      const Corpus& corpus) const {
  // Each extractor appends its local pairs straight onto `assembled`; they
  // are then range-checked and shifted into the extractor's offset in
  // place. The built-in extractors emit sorted runs, so the concatenation
  // is already in index order and FromPairs skips its sort.
  TermCounts assembled;
  for (size_t i = 0; i < extractors_.size(); ++i) {
    const size_t start = assembled.size();
    extractors_[i]->Extract(doc, corpus, &assembled);
    ZCHECK_GE(assembled.size(), start)
        << "extractor " << extractors_[i]->name()
        << " removed pairs it did not emit (Extract must append)";
    const uint32_t dim = extractors_[i]->dimension();
    for (size_t k = start; k < assembled.size(); ++k) {
      uint32_t& idx = assembled[k].first;
      ZCHECK_LT(idx, dim) << "extractor " << extractors_[i]->name()
                          << " emitted an out-of-range index";
      idx += offsets_[i];
    }
  }
  SparseVector v = SparseVector::FromPairs(std::move(assembled));
  if (l2_normalize_) {
    double norm = v.L2Norm();
    if (norm > 0.0) v.Scale(1.0 / norm);
  }
  return v;
}

double FeaturePipeline::total_cost_factor() const {
  double total = 0.0;
  for (const auto& e : extractors_) total += e->cost_factor();
  return total;
}

int64_t FeaturePipeline::ExtractionCostMicros(const Document& doc) const {
  double cost =
      static_cast<double>(doc.extraction_cost_micros) * total_cost_factor();
  return cost < 0.0 ? 0 : static_cast<int64_t>(cost);
}

uint32_t FeaturePipeline::dimension() const {
  if (extractors_.empty()) return 0;
  return offsets_.back() + extractors_.back()->dimension();
}

const FeatureExtractor& FeaturePipeline::extractor(size_t i) const {
  ZCHECK_LT(i, extractors_.size());
  return *extractors_[i];
}

uint64_t FeaturePipeline::Fingerprint() const {
  // Seed constant keeps an empty pipeline's fingerprint distinct from 0.
  uint64_t fp = 0x5a4d4249u;  // "ZMBI"
  for (const auto& e : extractors_) fp = HashCombine(fp, e->Fingerprint());
  return HashCombine(fp, l2_normalize_ ? 1u : 0u);
}

std::string FeaturePipeline::Description() const {
  std::string out;
  for (size_t i = 0; i < extractors_.size(); ++i) {
    if (i) out += " + ";
    out += extractors_[i]->name();
  }
  return out.empty() ? "(empty)" : out;
}

}  // namespace zombie
