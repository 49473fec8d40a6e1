#ifndef ZOMBIE_FEATUREENG_FEATURE_EXTRACTOR_H_
#define ZOMBIE_FEATUREENG_FEATURE_EXTRACTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "data/corpus.h"
#include "data/document.h"
#include "text/term_counts.h"

namespace zombie {

/// A unit of user-written feature code: consumes one raw document, emits
/// sparse (feature index, value) pairs in its own local index space
/// [0, dimension()). A FeaturePipeline namespaces several extractors into
/// one global feature space.
///
/// `cost_factor()` models how expensive the extractor is relative to the
/// document's base extraction cost (parsing the raw page). The pipeline
/// charges base_cost * sum(cost_factor) to the virtual clock per item —
/// the quantity Zombie's input selection is trying to spend wisely.
class FeatureExtractor {
 public:
  virtual ~FeatureExtractor() = default;

  /// Appends this extractor's features (local indices) to `out`. `out` is
  /// not cleared; indices may repeat and be unsorted — the pipeline
  /// normalizes. Emitting them sorted and de-duplicated (as the built-in
  /// extractors do, via CountIndices) lets the pipeline skip its sort.
  virtual void Extract(const Document& doc, const Corpus& corpus,
                       TermCounts* out) const = 0;

  /// Size of the local feature index space; emitted indices must be less
  /// than this.
  virtual uint32_t dimension() const = 0;

  /// Short identifier for pipeline descriptions ("bow4096", "domain", ...).
  virtual std::string name() const = 0;

  /// Relative cost of running this extractor (see class comment).
  virtual double cost_factor() const { return 1.0; }

  /// Stable 64-bit fingerprint of this extractor's *behavior*: two
  /// extractors with equal fingerprints must emit identical features for
  /// every document. The default hashes (name, dimension, cost_factor);
  /// extractors with configuration not visible in those — hash salts,
  /// keyword lists — must fold it in (see extractors.h overrides). The
  /// FeatureCache keys memoized vectors on the pipeline fingerprint, so a
  /// stale fingerprint silently serves wrong features.
  virtual uint64_t Fingerprint() const;
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_FEATURE_EXTRACTOR_H_
