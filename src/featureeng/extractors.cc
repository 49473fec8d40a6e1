#include "featureeng/extractors.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "text/term_counts.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {

// --- HashedBagOfWordsExtractor ---------------------------------------------

HashedBagOfWordsExtractor::HashedBagOfWordsExtractor(uint32_t dimension,
                                                     bool sublinear_tf,
                                                     uint64_t salt)
    : vectorizer_(dimension, salt), sublinear_tf_(sublinear_tf) {}

namespace {

// log1p(count) for the small integer counts that make up nearly every
// bag-of-words entry, taken from a table filled by the same libm log1p at
// first use: the same bits as calling it per entry, at a fraction of the
// cost. The calls go through a volatile function pointer because the
// compiler would otherwise fold them at build time with its own correctly
// rounded log1p, which differs from libm's in the last bit for some counts
// (log1p(13) among them).
double Log1pCount(double count) {
  static const std::array<double, 64> kTable = [] {
    double (*volatile libm_log1p)(double) = std::log1p;
    std::array<double, 64> t{};
    for (size_t k = 0; k < t.size(); ++k) {
      t[k] = libm_log1p(static_cast<double>(k));
    }
    return t;
  }();
  if (count >= 0.0 && count < static_cast<double>(kTable.size())) {
    const auto k = static_cast<size_t>(count);
    if (static_cast<double>(k) == count) return kTable[k];
  }
  return std::log1p(count);
}

}  // namespace

void HashedBagOfWordsExtractor::Extract(const Document& doc,
                                        const Corpus& /*corpus*/,
                                        TermCounts* out) const {
  const size_t start = out->size();
  vectorizer_.CountHashes(
      doc.tokens.size(),
      [&](size_t i) -> uint64_t { return doc.tokens[i]; }, out);
  if (sublinear_tf_) {
    for (size_t i = start; i < out->size(); ++i) {
      (*out)[i].second = Log1pCount((*out)[i].second);
    }
  }
}

std::string HashedBagOfWordsExtractor::name() const {
  return StrFormat("bow%u", vectorizer_.dimension());
}

uint64_t HashedBagOfWordsExtractor::Fingerprint() const {
  uint64_t fp = FeatureExtractor::Fingerprint();
  fp = HashCombine(fp, vectorizer_.salt());
  // The slot of the retired signed-hash flag, always unset: stored feature
  // keys depend on this fingerprint.
  fp = HashCombine(fp, 0u);
  return HashCombine(fp, sublinear_tf_ ? 1u : 0u);
}

// --- HashedBigramExtractor --------------------------------------------------

HashedBigramExtractor::HashedBigramExtractor(uint32_t dimension, uint64_t salt)
    : vectorizer_(dimension, salt) {}

void HashedBigramExtractor::Extract(const Document& doc,
                                    const Corpus& /*corpus*/,
                                    TermCounts* out) const {
  const size_t n = doc.tokens.size() < 2 ? 0 : doc.tokens.size() - 1;
  vectorizer_.CountHashes(
      n,
      [&](size_t i) { return HashCombine(doc.tokens[i], doc.tokens[i + 1]); },
      out);
}

std::string HashedBigramExtractor::name() const {
  return StrFormat("bigram%u", vectorizer_.dimension());
}

uint64_t HashedBigramExtractor::Fingerprint() const {
  return HashCombine(FeatureExtractor::Fingerprint(), vectorizer_.salt());
}

// --- KeywordExtractor -------------------------------------------------------

KeywordExtractor::KeywordExtractor(std::vector<uint32_t> keyword_token_ids)
    : keywords_(std::move(keyword_token_ids)) {
  std::sort(keywords_.begin(), keywords_.end());
  keywords_.erase(std::unique(keywords_.begin(), keywords_.end()),
                  keywords_.end());
  ZCHECK(!keywords_.empty()) << "keyword list must be non-empty";
}

void KeywordExtractor::Extract(const Document& doc, const Corpus& /*corpus*/,
                               TermCounts* out) const {
  std::vector<uint32_t> hits;
  for (uint32_t tok : doc.tokens) {
    // Most tokens fall outside the keywords' id range: two predictable
    // compares instead of a binary search.
    if (tok < keywords_.front() || tok > keywords_.back()) continue;
    auto it = std::lower_bound(keywords_.begin(), keywords_.end(), tok);
    if (it != keywords_.end() && *it == tok) {
      hits.push_back(static_cast<uint32_t>(it - keywords_.begin()));
    }
  }
  CountIndices(&hits, dimension() - 1, out);
}

std::string KeywordExtractor::name() const {
  return StrFormat("keywords%zu", keywords_.size());
}

uint64_t KeywordExtractor::Fingerprint() const {
  uint64_t fp = FeatureExtractor::Fingerprint();
  for (uint32_t id : keywords_) fp = HashCombine(fp, id);
  return fp;
}

// --- DocLengthExtractor -----------------------------------------------------

DocLengthExtractor::DocLengthExtractor(uint32_t num_buckets)
    : num_buckets_(num_buckets) {
  ZCHECK_GT(num_buckets, 0u);
}

void DocLengthExtractor::Extract(const Document& doc,
                                 const Corpus& /*corpus*/,
                                 TermCounts* out) const {
  double lg = std::log2(static_cast<double>(doc.tokens.size()) + 1.0);
  uint32_t bucket = std::min(num_buckets_ - 1, static_cast<uint32_t>(lg));
  out->emplace_back(bucket, 1.0);
}

// --- DomainExtractor --------------------------------------------------------

DomainExtractor::DomainExtractor(uint32_t dimension) : dimension_(dimension) {
  ZCHECK_GT(dimension, 0u);
}

void DomainExtractor::Extract(const Document& doc, const Corpus& /*corpus*/,
                              TermCounts* out) const {
  uint64_t h = HashCombine(doc.domain, 0x00D0D0D0ULL);
  out->emplace_back(static_cast<uint32_t>(h % dimension_), 1.0);
}

// --- TokenDiversityExtractor ------------------------------------------------

TokenDiversityExtractor::TokenDiversityExtractor(uint32_t num_buckets)
    : num_buckets_(num_buckets) {
  ZCHECK_GT(num_buckets, 0u);
}

void TokenDiversityExtractor::Extract(const Document& doc,
                                      const Corpus& /*corpus*/,
                                      TermCounts* out) const {
  if (doc.tokens.empty()) {
    out->emplace_back(0, 1.0);
    return;
  }
  const size_t distinct = CountTokenIds(doc.tokens).size();
  double ratio = static_cast<double>(distinct) /
                 static_cast<double>(doc.tokens.size());
  uint32_t bucket = std::min(
      num_buckets_ - 1,
      static_cast<uint32_t>(ratio * static_cast<double>(num_buckets_)));
  out->emplace_back(bucket, 1.0);
}

// --- ExpensiveWrapperExtractor ----------------------------------------------

ExpensiveWrapperExtractor::ExpensiveWrapperExtractor(
    std::unique_ptr<FeatureExtractor> inner, double cost_multiplier)
    : inner_(std::move(inner)), cost_multiplier_(cost_multiplier) {
  ZCHECK(inner_ != nullptr);
  ZCHECK_GT(cost_multiplier_, 0.0);
}

void ExpensiveWrapperExtractor::Extract(const Document& doc,
                                        const Corpus& corpus,
                                        TermCounts* out) const {
  inner_->Extract(doc, corpus, out);
}

std::string ExpensiveWrapperExtractor::name() const {
  return StrFormat("expensive(%s,x%.1f)", inner_->name().c_str(),
                   cost_multiplier_);
}

uint64_t ExpensiveWrapperExtractor::Fingerprint() const {
  // The printed name truncates the multiplier, so hash the exact bits and
  // the inner extractor's full fingerprint (which carries its salt).
  uint64_t mult_bits = 0;
  static_assert(sizeof(mult_bits) == sizeof(cost_multiplier_));
  std::memcpy(&mult_bits, &cost_multiplier_, sizeof(mult_bits));
  return HashCombine(inner_->Fingerprint(), mult_bits);
}

}  // namespace zombie
