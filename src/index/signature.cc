#include "index/signature.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace zombie {

namespace {

// Hashed token weights fill the dimensions before the two scalar channels.
constexpr uint32_t kTokenDims = kSignatureDimensions - 2;

// Writes the signature into `sig`, which holds kSignatureDimensions zeros.
void ComputeSignatureInto(const Document& doc, const std::vector<double>* idf,
                          double* sig) {
  size_t limit = std::min(kSignatureMaxTokens, doc.tokens.size());
  for (size_t i = 0; i < limit; ++i) {
    uint32_t tok = doc.tokens[i];
    double w = 1.0;
    if (idf != nullptr && tok < idf->size()) w = (*idf)[tok];
    uint64_t h = HashCombine(tok, kSignatureSalt);
    sig[h % kTokenDims] += w;
  }
  double norm_sq = 0.0;
  for (uint32_t i = 0; i < kTokenDims; ++i) norm_sq += sig[i] * sig[i];
  if (norm_sq > 0.0) {
    double inv = 1.0 / std::sqrt(norm_sq);
    for (uint32_t i = 0; i < kTokenDims; ++i) sig[i] *= inv;
  }
  // Log-length, scaled to roughly [0, 1] for typical pages.
  sig[kTokenDims] =
      std::log2(static_cast<double>(doc.tokens.size()) + 1.0) / 16.0;
  // A scalar domain fingerprint in [0, 1): identical domains coincide,
  // different domains usually differ — enough for k-means to exploit.
  uint64_t h = HashCombine(doc.domain, kSignatureSalt ^ 0xD0D0ULL);
  sig[kTokenDims + 1] = static_cast<double>(h % 4096) / 4096.0;
}

}  // namespace

std::vector<double> ComputeSignature(const Document& doc,
                                     const std::vector<double>* idf) {
  std::vector<double> sig(kSignatureDimensions, 0.0);
  ComputeSignatureInto(doc, idf, sig.data());
  return sig;
}

SignatureMatrix ComputeSignatures(const Corpus& corpus) {
  return ComputeSignaturesForPrefix(corpus, corpus.size()).matrix;
}

PrefixSignatures ComputeSignaturesForPrefix(const Corpus& corpus,
                                            size_t prefix_size) {
  ZCHECK_LE(prefix_size, corpus.size());
  PrefixSignatures out;
  SignatureMatrix& m = out.matrix;
  m.rows = DenseMatrix(kSignatureDimensions);

  // First pass: document frequencies over the signature prefix.
  std::vector<double>& idf = out.idf;
  if (prefix_size > 0) {
    std::vector<uint32_t> df(corpus.vocabulary().size(), 0);
    // seen[tok] is 1 + the last prefix document that counted tok, so a
    // token repeated within one document counts once — the same DF as a
    // per-document sort + unique, without the sort.
    std::vector<uint32_t> seen(df.size(), 0);
    for (size_t i = 0; i < prefix_size; ++i) {
      const Document& doc = corpus.doc(i);
      const uint32_t stamp = static_cast<uint32_t>(i + 1);
      size_t limit = std::min(kSignatureMaxTokens, doc.tokens.size());
      for (size_t t = 0; t < limit; ++t) {
        const uint32_t tok = doc.tokens[t];
        if (tok < df.size() && seen[tok] != stamp) {
          seen[tok] = stamp;
          ++df[tok];
        }
      }
    }
    double n = static_cast<double>(prefix_size);
    idf.resize(df.size());
    for (size_t t = 0; t < df.size(); ++t) {
      idf[t] = std::log((1.0 + n) / (1.0 + static_cast<double>(df[t])));
    }
  }

  const std::vector<double>* idf_ptr = idf.empty() ? nullptr : &idf;
  // The DF pass re-reads the prefixes; charge it like a second scan.
  const double passes = 2.0;
  double virtual_cost = 0.0;
  std::vector<double> sig(kSignatureDimensions);
  for (size_t i = 0; i < prefix_size; ++i) {
    const Document& doc = corpus.doc(i);
    std::fill(sig.begin(), sig.end(), 0.0);
    ComputeSignatureInto(doc, idf_ptr, sig.data());
    m.rows.AppendRow(sig.data());
    virtual_cost += passes * kSignatureCostFraction *
                    static_cast<double>(doc.extraction_cost_micros);
  }
  m.virtual_cost_micros = static_cast<int64_t>(virtual_cost);
  return out;
}

}  // namespace zombie
