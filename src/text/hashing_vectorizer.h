#ifndef ZOMBIE_TEXT_HASHING_VECTORIZER_H_
#define ZOMBIE_TEXT_HASHING_VECTORIZER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/term_counts.h"
#include "util/random.h"

namespace zombie {

/// Feature hashing ("hashing trick"): maps token hashes into a
/// fixed-dimension sparse count vector without a vocabulary. Collisions are
/// tolerated by design.
class HashingVectorizer {
 public:
  /// `dimension` must be positive; powers of two hash fastest but any value
  /// works.
  explicit HashingVectorizer(uint32_t dimension, uint64_t salt = 0);

  /// The one transform: salts `token_hash(i)` (a 64-bit hash of token i)
  /// for each of `n` tokens, reduces it to an index, and appends the sorted
  /// (index, count) pairs to `out` through CountIndices. The extractors
  /// hash token ids and token-id bigrams through here.
  template <typename TokenHash>
  void CountHashes(size_t n, TokenHash token_hash, TermCounts* out) const {
    std::vector<uint32_t> indices;
    indices.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      indices.push_back(ReduceHash(HashCombine(token_hash(i), salt_)));
    }
    CountIndices(&indices, dimension_ - 1, out);
  }

  uint32_t dimension() const { return dimension_; }
  uint64_t salt() const { return salt_; }

 private:
  // Maps a 64-bit token hash to its feature index. For power-of-two
  // dimensions (the common configuration) `h % dimension_` equals
  // `h & (dimension_ - 1)` exactly, and the AND avoids a 64-bit divide per
  // token in the hot loop; the fallback modulo keeps arbitrary dimensions
  // working. Bit-identical to a plain modulo either way.
  uint32_t ReduceHash(uint64_t h) const {
    return index_mask_ != 0 ? static_cast<uint32_t>(h & index_mask_)
                            : static_cast<uint32_t>(h % dimension_);
  }

  uint32_t dimension_;
  uint64_t salt_;
  // dimension_ - 1 when dimension_ is a power of two, else 0 (modulo path).
  uint64_t index_mask_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_TEXT_HASHING_VECTORIZER_H_
