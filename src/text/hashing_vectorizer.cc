#include "text/hashing_vectorizer.h"

#include "util/logging.h"
#include "util/random.h"

namespace zombie {

HashingVectorizer::HashingVectorizer(uint32_t dimension, bool signed_hash,
                                     uint64_t salt)
    : dimension_(dimension), signed_hash_(signed_hash), salt_(salt) {
  ZCHECK_GT(dimension, 0u);
  if ((dimension_ & (dimension_ - 1)) == 0) index_mask_ = dimension_ - 1;
}

uint32_t HashingVectorizer::IndexOf(std::string_view token) const {
  uint64_t h = HashCombine(HashBytes(token.data(), token.size()), salt_);
  return ReduceHash(h);
}

TermCounts HashingVectorizer::Transform(
    const std::vector<std::string>& tokens) const {
  TermCounts counts;
  CountHashes(
      tokens.size(),
      [&](size_t i) { return HashBytes(tokens[i].data(), tokens[i].size()); },
      &counts);
  return counts;
}

void HashingVectorizer::TransformViews(
    const std::vector<std::string_view>& tokens, TermCounts* scratch) const {
  scratch->clear();
  CountHashes(
      tokens.size(),
      [&](size_t i) { return HashBytes(tokens[i].data(), tokens[i].size()); },
      scratch);
}

TermCounts HashingVectorizer::TransformIds(
    const std::vector<uint32_t>& token_ids) const {
  TermCounts counts;
  CountHashes(
      token_ids.size(), [&](size_t i) -> uint64_t { return token_ids[i]; },
      &counts);
  return counts;
}

}  // namespace zombie
