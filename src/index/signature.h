#ifndef ZOMBIE_INDEX_SIGNATURE_H_
#define ZOMBIE_INDEX_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "data/document.h"
#include "index/dense_matrix.h"

namespace zombie {

/// Knobs for the cheap per-item signature used by content-based groupers.
///
/// Index construction must cost far less than full feature extraction for
/// Zombie's offline indexing to amortize: the signature therefore reads only
/// a *prefix* of each document's tokens and hashes them into a small dense
/// vector. `cost_fraction` is the modeled virtual cost of computing one
/// signature relative to fully extracting the item; it is charged to the
/// one-time index-construction budget reported by E8.
struct SignatureConfig {
  uint32_t dimensions = 128;
  size_t max_tokens = 200;
  bool include_length = true;
  bool include_domain = true;
  bool l2_normalize = true;
  /// Weight each token by its inverse document frequency before hashing
  /// (computed in a first pass over the corpus). Without it, the Zipf head
  /// of the common vocabulary drowns the topical signal and k-means
  /// clusters on noise; with it, clusters track topics.
  bool use_idf = true;
  double cost_fraction = 0.05;
  uint64_t salt = 0x516E4A7572ULL;
};

/// Dense signature of one document under `config`. `idf` supplies the
/// per-token-id weights when config.use_idf is set (pass nullptr or an
/// empty vector for unweighted hashing).
std::vector<double> ComputeSignature(const Document& doc,
                                     const SignatureConfig& config,
                                     const std::vector<double>* idf = nullptr);

/// Signatures for every document (row i is document i, stored once in the
/// distance kernel's tiled layout), plus the modeled virtual cost of the
/// scan (sum of cost_fraction * per-item extraction cost).
struct SignatureMatrix {
  DenseMatrix rows;
  int64_t virtual_cost_micros = 0;
};

SignatureMatrix ComputeSignatures(const Corpus& corpus,
                                  const SignatureConfig& config);

/// Signatures over the corpus prefix [0, prefix_size) only, plus the IDF
/// table computed from that prefix (empty when config.use_idf is off).
/// Streaming groupers freeze this prefix IDF at base-build time and reuse
/// it for every later arrival — group geometry must not drift with data
/// the run had not seen when the index was built. With prefix_size ==
/// corpus.size() this is exactly ComputeSignatures.
struct PrefixSignatures {
  SignatureMatrix matrix;
  std::vector<double> idf;
};

PrefixSignatures ComputeSignaturesForPrefix(const Corpus& corpus,
                                            size_t prefix_size,
                                            const SignatureConfig& config);

}  // namespace zombie

#endif  // ZOMBIE_INDEX_SIGNATURE_H_
