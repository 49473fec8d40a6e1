#include "ml/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

// The hot kernels (Dot, norms) live inline in
// sparse_vector.h — see the kernel note there. This TU keeps the cold
// paths: lookup, construction, formatting.

double SparseVectorView::Get(uint32_t index) const {
  const uint32_t* end = indices_ + size_;
  const uint32_t* it = std::lower_bound(indices_, end, index);
  if (it == end || *it != index) return 0.0;
  return values_[static_cast<size_t>(it - indices_)];
}

double SparseVectorView::CosineSimilarity(SparseVectorView other) const {
  const double na = L2Norm();
  const double nb = other.L2Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(other) / (na * nb);
}

bool SparseVectorView::operator==(SparseVectorView other) const {
  if (size_ != other.size_) return false;
  for (size_t i = 0; i < size_; ++i) {
    if (indices_[i] != other.indices_[i]) return false;
    if (values_[i] != other.values_[i]) return false;
  }
  return true;
}

std::string SparseVectorView::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < size_; ++i) {
    if (i) out += ", ";
    out += StrFormat("%u:%g", indices_[i], values_[i]);
  }
  out += "}";
  return out;
}

SparseVector SparseVector::FromPairs(
    std::vector<std::pair<uint32_t, double>> pairs) {
  // Extractors emit sorted runs and the pipeline concatenates them in
  // offset order, so the common input is already sorted: one read instead
  // of a comparison sort. Custom extractors may still emit any order.
  const auto by_index = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(pairs.begin(), pairs.end(), by_index)) {
    std::sort(pairs.begin(), pairs.end(), by_index);
  }
  SparseVector v;
  v.indices_.reserve(pairs.size());
  v.values_.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size();) {
    uint32_t idx = pairs[i].first;
    double sum = 0.0;
    while (i < pairs.size() && pairs[i].first == idx) {
      sum += pairs[i].second;
      ++i;
    }
    if (sum != 0.0) {
      v.indices_.push_back(idx);
      v.values_.push_back(sum);
    }
  }
  return v;
}

SparseVector SparseVector::FromView(SparseVectorView view) {
  SparseVector v;
  v.indices_.assign(view.indices_data(), view.indices_data() + view.num_nonzero());
  v.values_.assign(view.values_data(), view.values_data() + view.num_nonzero());
  return v;
}

void SparseVector::PushBack(uint32_t index, double value) {
  ZCHECK(indices_.empty() || index > indices_.back())
      << "PushBack indices must be strictly increasing";
  if (value == 0.0) return;
  indices_.push_back(index);
  values_.push_back(value);
}

bool SparseVector::AssignSorted(const void* indices, const void* values,
                                size_t n) {
  indices_.resize(n);
  values_.resize(n);
  if (n == 0) return true;
  std::memcpy(indices_.data(), indices, n * sizeof(uint32_t));
  std::memcpy(values_.data(), values, n * sizeof(double));
  bool ascending = true;
  bool has_zero = false;
  for (size_t i = 0; i < n; ++i) {
    ascending &= i == 0 || indices_[i - 1] < indices_[i];
    has_zero |= values_[i] == 0.0;
  }
  if (!ascending) {
    indices_.clear();
    values_.clear();
    return false;
  }
  if (has_zero) {
    size_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      if (values_[i] == 0.0) continue;
      indices_[w] = indices_[i];
      values_[w] = values_[i];
      ++w;
    }
    indices_.resize(w);
    values_.resize(w);
  }
  return true;
}

void SparseVector::Scale(double factor) {
  for (double& v : values_) v *= factor;
}

void SparseVector::RemapThrough(const uint32_t* old_to_new,
                                size_t table_size) {
  const size_t n = indices_.size();
  if (n == 0) return;
  size_t kept;
#if defined(ZOMBIE_SIMD_ENABLED)
  if (n >= simd::kSimdMinEntries) {
    kept = simd::ActiveKernels().remap_sparse_view(
        indices_.data(), values_.data(), n, old_to_new, table_size,
        indices_.data(), values_.data());
  } else  // NOLINT(readability/braces) — pairs with the block below
#endif
  {
    kept = simd::ScalarRemapSparseView(indices_.data(), values_.data(), n,
                                       old_to_new, table_size,
                                       indices_.data(), values_.data());
  }
  indices_.resize(kept);
  values_.resize(kept);
}

}  // namespace zombie
