#include "text/hashing_vectorizer.h"

#include "util/logging.h"

namespace zombie {

HashingVectorizer::HashingVectorizer(uint32_t dimension, uint64_t salt)
    : dimension_(dimension), salt_(salt) {
  ZCHECK_GT(dimension, 0u);
  if ((dimension_ & (dimension_ - 1)) == 0) index_mask_ = dimension_ - 1;
}

}  // namespace zombie
