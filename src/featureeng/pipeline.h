#ifndef ZOMBIE_FEATUREENG_PIPELINE_H_
#define ZOMBIE_FEATUREENG_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "featureeng/feature_extractor.h"
#include "ml/sparse_vector.h"

namespace zombie {

/// An ordered set of feature extractors composed into one global feature
/// space. Extractor e_i's local indices are offset by the cumulative
/// dimension of e_0..e_{i-1}, so extractors never collide.
///
/// A pipeline is one *revision* of the engineer's feature code; the
/// feature-engineering session is a sequence of pipelines (see
/// revision_script.h). Extracting an item charges
/// doc.extraction_cost_micros * total_cost_factor() of virtual time — the
/// engine does the charging, the pipeline just reports the factor.
class FeaturePipeline {
 public:
  explicit FeaturePipeline(std::string name);

  FeaturePipeline(FeaturePipeline&&) = default;
  FeaturePipeline& operator=(FeaturePipeline&&) = default;

  /// Appends an extractor; returns *this for chaining.
  FeaturePipeline& Add(std::unique_ptr<FeatureExtractor> extractor);

  /// Runs every extractor on the document and assembles the namespaced,
  /// optionally L2-normalized sparse feature vector.
  SparseVector Extract(const Document& doc, const Corpus& corpus) const;

  /// Sum of cost factors across extractors (>= 0; 0 for an empty pipeline).
  double total_cost_factor() const;

  /// Virtual cost of featurizing one document with this pipeline.
  int64_t ExtractionCostMicros(const Document& doc) const;

  /// Total global feature dimension.
  uint32_t dimension() const;

  size_t num_extractors() const { return extractors_.size(); }
  const FeatureExtractor& extractor(size_t i) const;

  const std::string& name() const { return name_; }

  /// L2-normalize the assembled vector (default on: keeps learners'
  /// step-size behavior consistent across extractor mixes).
  void set_l2_normalize(bool on) { l2_normalize_ = on; }

  /// "bow4096 + keywords12 + domain" style description.
  std::string Description() const;

  /// Stable revision fingerprint: hashes the ordered extractor fingerprints
  /// plus the normalization flag — everything that determines Extract()'s
  /// output, and nothing else. Two pipelines built independently from the
  /// same revision spec (e.g. the unchanged prefix of a re-run session
  /// script) fingerprint identically, so FeatureCache entries carry across
  /// runs; the display name is deliberately excluded.
  uint64_t Fingerprint() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<FeatureExtractor>> extractors_;
  std::vector<uint32_t> offsets_;  // offsets_[i] = start of extractor i
  bool l2_normalize_ = true;
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_PIPELINE_H_
