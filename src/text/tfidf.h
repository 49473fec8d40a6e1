#ifndef ZOMBIE_TEXT_TFIDF_H_
#define ZOMBIE_TEXT_TFIDF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/term_counts.h"

namespace zombie {

/// TF-IDF weighting fit over a collection of token-id documents.
///
/// IDF uses the smoothed form log((1 + N) / (1 + df)) + 1 so unseen terms
/// receive a finite weight. Transform applies raw-count TF times IDF, with
/// optional L2 row normalization.
class TfIdfTransform {
 public:
  TfIdfTransform() = default;

  /// Accumulates document frequencies from one document's token ids.
  /// Call once per document, then Finalize().
  void AddDocument(const std::vector<uint32_t>& token_ids);

  /// Computes IDF weights; must be called after the last AddDocument and
  /// before the first Transform.
  void Finalize();

  /// Applies TF-IDF weighting to a document. Requires Finalize() first.
  TermCounts Transform(const std::vector<uint32_t>& token_ids,
                       bool l2_normalize = true) const;

  /// IDF of a term id (1.0 for ids never seen during fitting).
  double Idf(uint32_t term_id) const;

  size_t num_documents() const { return num_documents_; }
  bool finalized() const { return finalized_; }

 private:
  std::vector<int64_t> doc_freq_;
  std::vector<double> idf_;
  size_t num_documents_ = 0;
  bool finalized_ = false;
};

}  // namespace zombie

#endif  // ZOMBIE_TEXT_TFIDF_H_
