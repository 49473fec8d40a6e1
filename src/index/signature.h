#ifndef ZOMBIE_INDEX_SIGNATURE_H_
#define ZOMBIE_INDEX_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "data/corpus.h"
#include "data/document.h"
#include "index/dense_matrix.h"

namespace zombie {

/// The cheap per-item signature used by content-based groupers.
///
/// Index construction must cost far less than full feature extraction for
/// Zombie's offline indexing to amortize: the signature therefore reads only
/// a *prefix* of each document's tokens and hashes them, weighted by inverse
/// document frequency, into a small dense vector. Without the IDF weights
/// the Zipf head of the common vocabulary drowns the topical signal and
/// k-means clusters on noise; with them, clusters track topics.
///
/// Layout: kSignatureDimensions - 2 L2-normalized hashed token weights,
/// then a log-length channel and a domain-hash channel.
inline constexpr uint32_t kSignatureDimensions = 128;
/// Tokens read per document.
inline constexpr size_t kSignatureMaxTokens = 200;
/// Modeled virtual cost of one signature relative to fully extracting the
/// item, per pass over its token prefix; charged to the one-time
/// index-construction budget reported by E8.
inline constexpr double kSignatureCostFraction = 0.05;
/// Salt of the token and domain hashes.
inline constexpr uint64_t kSignatureSalt = 0x516E4A7572ULL;

/// Dense signature of one document. `idf` supplies the per-token-id
/// weights (pass nullptr or an empty vector for unweighted hashing).
std::vector<double> ComputeSignature(const Document& doc,
                                     const std::vector<double>* idf = nullptr);

/// Signatures for every document (row i is document i, stored once in the
/// distance kernel's tiled layout), plus the modeled virtual cost of the
/// scan (two passes — document frequencies, then signatures — of
/// kSignatureCostFraction * per-item extraction cost).
struct SignatureMatrix {
  DenseMatrix rows;
  int64_t virtual_cost_micros = 0;
};

SignatureMatrix ComputeSignatures(const Corpus& corpus);

/// Signatures over the corpus prefix [0, prefix_size) only, plus the IDF
/// table computed from that prefix (empty when the prefix is empty).
/// Streaming groupers freeze this prefix IDF at base-build time and reuse
/// it for every later arrival — group geometry must not drift with data
/// the run had not seen when the index was built. With prefix_size ==
/// corpus.size() this is exactly ComputeSignatures.
struct PrefixSignatures {
  SignatureMatrix matrix;
  std::vector<double> idf;
};

PrefixSignatures ComputeSignaturesForPrefix(const Corpus& corpus,
                                            size_t prefix_size);

}  // namespace zombie

#endif  // ZOMBIE_INDEX_SIGNATURE_H_
