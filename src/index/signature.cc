#include "index/signature.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace zombie {

namespace {

// Writes the signature into `sig`, which holds config.dimensions zeros.
void ComputeSignatureInto(const Document& doc, const SignatureConfig& config,
                          const std::vector<double>* idf, double* sig) {
  ZCHECK_GT(config.dimensions, 0u);
  // Layout: [hashed token weights | length bucket | domain hash] — the two
  // scalar channels live in the last dims when enabled.
  uint32_t extra = (config.include_length ? 1 : 0) +
                   (config.include_domain ? 1 : 0);
  ZCHECK_GT(config.dimensions, extra);
  uint32_t token_dims = config.dimensions - extra;

  size_t limit = std::min(config.max_tokens, doc.tokens.size());
  for (size_t i = 0; i < limit; ++i) {
    uint32_t tok = doc.tokens[i];
    double w = 1.0;
    if (idf != nullptr && tok < idf->size()) w = (*idf)[tok];
    uint64_t h = HashCombine(tok, config.salt);
    sig[h % token_dims] += w;
  }
  if (config.l2_normalize) {
    double norm_sq = 0.0;
    for (uint32_t i = 0; i < token_dims; ++i) norm_sq += sig[i] * sig[i];
    if (norm_sq > 0.0) {
      double inv = 1.0 / std::sqrt(norm_sq);
      for (uint32_t i = 0; i < token_dims; ++i) sig[i] *= inv;
    }
  }
  uint32_t next = token_dims;
  if (config.include_length) {
    // Log-length, scaled to roughly [0, 1] for typical pages.
    sig[next++] =
        std::log2(static_cast<double>(doc.tokens.size()) + 1.0) / 16.0;
  }
  if (config.include_domain) {
    uint64_t h = HashCombine(doc.domain, config.salt ^ 0xD0D0ULL);
    // A scalar domain fingerprint in [0, 1): identical domains coincide,
    // different domains usually differ — enough for k-means to exploit.
    sig[next++] = static_cast<double>(h % 4096) / 4096.0;
  }
}

}  // namespace

std::vector<double> ComputeSignature(const Document& doc,
                                     const SignatureConfig& config,
                                     const std::vector<double>* idf) {
  std::vector<double> sig(config.dimensions, 0.0);
  ComputeSignatureInto(doc, config, idf, sig.data());
  return sig;
}

SignatureMatrix ComputeSignatures(const Corpus& corpus,
                                  const SignatureConfig& config) {
  return ComputeSignaturesForPrefix(corpus, corpus.size(), config)
      .matrix;
}

PrefixSignatures ComputeSignaturesForPrefix(const Corpus& corpus,
                                            size_t prefix_size,
                                            const SignatureConfig& config) {
  ZCHECK_LE(prefix_size, corpus.size());
  PrefixSignatures out;
  SignatureMatrix& m = out.matrix;
  m.rows = DenseMatrix(config.dimensions);
  double virtual_cost = 0.0;

  // Optional first pass: document frequencies over the signature prefix.
  std::vector<double>& idf = out.idf;
  if (config.use_idf && prefix_size > 0) {
    std::vector<uint32_t> df(corpus.vocabulary().size(), 0);
    // seen[tok] is 1 + the last prefix document that counted tok, so a
    // token repeated within one document counts once — the same DF as a
    // per-document sort + unique, without the sort.
    std::vector<uint32_t> seen(df.size(), 0);
    for (size_t i = 0; i < prefix_size; ++i) {
      const Document& doc = corpus.doc(i);
      const uint32_t stamp = static_cast<uint32_t>(i + 1);
      size_t limit = std::min(config.max_tokens, doc.tokens.size());
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
    // The DF pass re-reads the prefixes; charge it like a second scan.
    virtual_cost = 0.0;  // accumulated below per document, doubled
  }

  const std::vector<double>* idf_ptr =
      (config.use_idf && !idf.empty()) ? &idf : nullptr;
  double passes = config.use_idf ? 2.0 : 1.0;
  std::vector<double> sig(config.dimensions);
  for (size_t i = 0; i < prefix_size; ++i) {
    const Document& doc = corpus.doc(i);
    std::fill(sig.begin(), sig.end(), 0.0);
    ComputeSignatureInto(doc, config, idf_ptr, sig.data());
    m.rows.AppendRow(sig.data());
    virtual_cost += passes * config.cost_fraction *
                    static_cast<double>(doc.extraction_cost_micros);
  }
  m.virtual_cost_micros = static_cast<int64_t>(virtual_cost);
  return out;
}

}  // namespace zombie
