#ifndef ZOMBIE_FEATUREENG_EXTRACTORS_H_
#define ZOMBIE_FEATUREENG_EXTRACTORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "featureeng/feature_extractor.h"
#include "text/hashing_vectorizer.h"

namespace zombie {

/// Hashed bag of words over the document's token ids. `sublinear_tf`
/// replaces raw counts with log(1 + count).
class HashedBagOfWordsExtractor : public FeatureExtractor {
 public:
  HashedBagOfWordsExtractor(uint32_t dimension, bool sublinear_tf = true,
                            uint64_t salt = 0);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override { return vectorizer_.dimension(); }
  std::string name() const override;
  double cost_factor() const override { return 1.0; }
  uint64_t Fingerprint() const override;  // folds in salt + sublinear flag

 private:
  HashingVectorizer vectorizer_;
  bool sublinear_tf_;
};

/// Hashed bag of token-id bigrams (adjacent pairs). Heavier than unigrams.
class HashedBigramExtractor : public FeatureExtractor {
 public:
  explicit HashedBigramExtractor(uint32_t dimension, uint64_t salt = 1);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override { return vectorizer_.dimension(); }
  std::string name() const override;
  double cost_factor() const override { return 1.5; }
  uint64_t Fingerprint() const override;  // folds in the hash salt

 private:
  // Hashes each bigram's pair hash with the salt, exactly as the bag of
  // words hashes a token id.
  HashingVectorizer vectorizer_;
};

/// Indicator features for a fixed list of vocabulary token ids (the
/// "engineer hand-picked these keywords" feature).
class KeywordExtractor : public FeatureExtractor {
 public:
  explicit KeywordExtractor(std::vector<uint32_t> keyword_token_ids);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override {
    return static_cast<uint32_t>(keywords_.size());
  }
  std::string name() const override;
  double cost_factor() const override { return 0.2; }
  uint64_t Fingerprint() const override;  // folds in the keyword ids

 private:
  std::vector<uint32_t> keywords_;  // sorted
};

/// Bucketized log document length (one-hot over `num_buckets`).
class DocLengthExtractor : public FeatureExtractor {
 public:
  explicit DocLengthExtractor(uint32_t num_buckets = 16);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override { return num_buckets_; }
  std::string name() const override { return "doclen"; }
  double cost_factor() const override { return 0.05; }

 private:
  uint32_t num_buckets_;
};

/// One-hot hashed domain id (hostname analogue).
class DomainExtractor : public FeatureExtractor {
 public:
  explicit DomainExtractor(uint32_t dimension = 256);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override { return dimension_; }
  std::string name() const override { return "domain"; }
  double cost_factor() const override { return 0.05; }

 private:
  uint32_t dimension_;
};

/// Lexical-diversity signal: distinct/total token ratio, bucketized.
class TokenDiversityExtractor : public FeatureExtractor {
 public:
  explicit TokenDiversityExtractor(uint32_t num_buckets = 10);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override { return num_buckets_; }
  std::string name() const override { return "diversity"; }
  double cost_factor() const override { return 0.3; }

 private:
  uint32_t num_buckets_;
};

/// Wraps another extractor and inflates its cost_factor — stands in for
/// heavyweight feature code (an NLP parse, an image model) whose output we
/// model with the inner extractor's features.
class ExpensiveWrapperExtractor : public FeatureExtractor {
 public:
  ExpensiveWrapperExtractor(std::unique_ptr<FeatureExtractor> inner,
                            double cost_multiplier);

  void Extract(const Document& doc, const Corpus& corpus,
               TermCounts* out) const override;
  uint32_t dimension() const override { return inner_->dimension(); }
  std::string name() const override;
  double cost_factor() const override {
    return inner_->cost_factor() * cost_multiplier_;
  }
  uint64_t Fingerprint() const override;  // delegates to the inner extractor

 private:
  std::unique_ptr<FeatureExtractor> inner_;
  double cost_multiplier_;
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_EXTRACTORS_H_
