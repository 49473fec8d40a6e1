#ifndef ZOMBIE_TEXT_HASHING_VECTORIZER_H_
#define ZOMBIE_TEXT_HASHING_VECTORIZER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/term_counts.h"
#include "util/random.h"

namespace zombie {

/// Feature hashing ("hashing trick"): maps arbitrary token strings into a
/// fixed-dimension sparse count vector without a vocabulary. Collisions are
/// tolerated by design; a sign hash optionally debiases them.
class HashingVectorizer {
 public:
  /// `dimension` must be positive; powers of two hash fastest but any value
  /// works. When `signed_hash` is set, half the tokens contribute -1 per
  /// occurrence so collisions cancel in expectation.
  explicit HashingVectorizer(uint32_t dimension, bool signed_hash = false,
                             uint64_t salt = 0);

  /// Hashes string tokens into sorted (index, weight) pairs.
  TermCounts Transform(const std::vector<std::string>& tokens) const;

  /// Zero-allocation twin of Transform: hashes token views directly into
  /// caller-owned `scratch` (cleared first, capacity retained across
  /// calls). Bit-identical output to Transform on the same token sequence
  /// — both hash the raw token bytes. Pairs with Tokenizer::TokenizeViews
  /// so a whole document vectorizes without per-token heap traffic.
  void TransformViews(const std::vector<std::string_view>& tokens,
                      TermCounts* scratch) const;

  /// Hashes pre-assigned token ids (cheap path for synthetic corpora).
  TermCounts TransformIds(const std::vector<uint32_t>& token_ids) const;

  /// The feature index a single token maps to.
  uint32_t IndexOf(std::string_view token) const;

  /// The shared body of every transform: salts `token_hash(i)` (a 64-bit
  /// hash of token i) for each of `n` tokens, reduces it to an index, and
  /// appends the sorted (index, count) pairs to `out` through
  /// CountIndices. With signed hashing a token counts -1 when bit 32 of
  /// its salted hash is set. Extractors over other token units (bigrams)
  /// hash through here too.
  template <typename TokenHash>
  void CountHashes(size_t n, TokenHash token_hash, TermCounts* out) const {
    std::vector<uint32_t> positive;
    std::vector<uint32_t> negative;
    positive.reserve(n);
    if (signed_hash_) negative.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t h = HashCombine(token_hash(i), salt_);
      const uint32_t idx = ReduceHash(h);
      if (signed_hash_ && ((h >> 32) & 1) != 0) {
        negative.push_back(idx);
      } else {
        positive.push_back(idx);
      }
    }
    CountIndices(&positive, &negative, dimension_ - 1, out);
  }

  uint32_t dimension() const { return dimension_; }
  bool signed_hash() const { return signed_hash_; }
  uint64_t salt() const { return salt_; }

 private:
  // Maps a 64-bit token hash to its feature index. For power-of-two
  // dimensions (the common configuration) `h % dimension_` equals
  // `h & (dimension_ - 1)` exactly, and the AND avoids a 64-bit divide per
  // token in the hot loop; the fallback modulo keeps arbitrary dimensions
  // working. Bit-identical to a plain modulo either way. Every transform
  // and IndexOf reduce through here.
  uint32_t ReduceHash(uint64_t h) const {
    return index_mask_ != 0 ? static_cast<uint32_t>(h & index_mask_)
                            : static_cast<uint32_t>(h % dimension_);
  }


  uint32_t dimension_;
  bool signed_hash_;
  uint64_t salt_;
  // dimension_ - 1 when dimension_ is a power of two, else 0 (modulo path).
  uint64_t index_mask_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_TEXT_HASHING_VECTORIZER_H_
