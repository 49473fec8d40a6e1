#ifndef ZOMBIE_ML_SPARSE_VECTOR_H_
#define ZOMBIE_ML_SPARSE_VECTOR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ml/simd/sparse_kernels.h"
#include "ml/simd/sparse_kernels_scalar.h"

namespace zombie {

/// Non-owning view of a sparse feature vector: parallel (index, value)
/// spans sorted by index with no duplicates and no explicit zeros. This is
/// the hot-path representation — learners and evaluators consume views, so
/// a row of a CSR-backed Dataset flows into a kernel without copying or
/// allocating. A SparseVector (the owning type below) converts implicitly.
///
/// Lifetime rule: a view borrows storage. Views into a Dataset are valid
/// until the Dataset is mutated (Add/Shuffle) or destroyed; views of a
/// SparseVector follow the vector they were taken from. Kernels never
/// retain views past the call.
class SparseVectorView {
 public:
  constexpr SparseVectorView() = default;
  SparseVectorView(const uint32_t* indices, const double* values, size_t size)
      : indices_(indices), values_(values), size_(size) {}

  size_t num_nonzero() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint32_t index_at(size_t i) const { return indices_[i]; }
  double value_at(size_t i) const { return values_[i]; }

  const uint32_t* indices_data() const { return indices_; }
  const double* values_data() const { return values_; }

  /// Largest index + 1, or 0 when empty. Returns size_t: an entry at index
  /// UINT32_MAX has dimension 2^32, which would wrap to 0 in uint32_t and
  /// make AddScaledTo skip its resize and write out of bounds.
  size_t dimension() const {
    return size_ == 0 ? 0 : static_cast<size_t>(indices_[size_ - 1]) + 1;
  }

  /// Value at a feature index (0.0 if absent); binary search.
  double Get(uint32_t index) const;

  // The four hot kernels below are defined inline at the bottom of this
  // header. Raw-pointer kernels on a view are inlinable at every call site
  // — unlike the vector-member originals, which always cost an opaque
  // cross-TU call — and inlining is worth more than any in-kernel trick on
  // these loops (it removes the by-value view's stack round trip and lets
  // the compiler specialize on the caller's loop).

  /// Dot product against a dense weight vector; indices beyond the dense
  /// size contribute zero.
  inline double Dot(const std::vector<double>& dense) const;

  /// Dot product with another sparse vector (run-skipping merge join).
  inline double Dot(SparseVectorView other) const;

  /// dense[i] += scale * this[i]; grows `dense` as needed.
  inline void AddScaledTo(double scale, std::vector<double>* dense) const;

  inline double L2Norm() const;
  inline double L1Norm() const;

  /// Squared Euclidean distance to another sparse vector.
  inline double SquaredDistance(SparseVectorView other) const;

  /// Cosine similarity in [-1, 1]; 0 if either vector is empty/zero.
  double CosineSimilarity(SparseVectorView other) const;

  /// Content equality (same indices and values).
  bool operator==(SparseVectorView other) const;
  bool operator!=(SparseVectorView other) const { return !(*this == other); }

  /// Debug rendering like "{3:1.0, 17:0.5}".
  std::string ToString() const;

 private:
  const uint32_t* indices_ = nullptr;
  const double* values_ = nullptr;
  size_t size_ = 0;
};

/// Owning sparse feature vector with the same invariants and kernel API as
/// SparseVectorView (every const kernel delegates to the view). This is the
/// feature representation flowing out of the feature pipeline; bulk storage
/// (holdout, probe, kNN memory) lives in the CSR-backed Dataset instead of
/// per-row SparseVectors.
class SparseVector {
 public:
  SparseVector() = default;

  /// Builds from possibly unsorted/duplicated pairs; duplicates are summed
  /// and zero-valued entries dropped.
  static SparseVector FromPairs(
      std::vector<std::pair<uint32_t, double>> pairs);

  /// Copies a view into owned storage.
  static SparseVector FromView(SparseVectorView view);

  /// Appends an entry; index must be strictly greater than the last index
  /// (checked). Fast path for already-ordered construction.
  void PushBack(uint32_t index, double value);

  /// The non-owning view of this vector (valid while *this is alive and
  /// unmodified). The implicit conversion lets owning vectors flow into
  /// view-taking kernels and learners without ceremony.
  SparseVectorView view() const {
    return SparseVectorView(indices_.data(), values_.data(), indices_.size());
  }
  operator SparseVectorView() const { return view(); }  // NOLINT

  size_t num_nonzero() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }

  const std::vector<uint32_t>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  uint32_t index_at(size_t i) const { return indices_[i]; }
  double value_at(size_t i) const { return values_[i]; }

  /// See SparseVectorView::dimension() for the size_t rationale.
  size_t dimension() const { return view().dimension(); }

  double Get(uint32_t index) const { return view().Get(index); }
  double Dot(const std::vector<double>& dense) const {
    return view().Dot(dense);
  }
  double Dot(SparseVectorView other) const { return view().Dot(other); }
  void AddScaledTo(double scale, std::vector<double>* dense) const {
    view().AddScaledTo(scale, dense);
  }

  /// Multiplies all values in place.
  void Scale(double factor);

  /// Compacts this vector in place through a monotone old-id→dense-id remap
  /// table (the RemapSparseView kernel): entries mapping to
  /// simd::kPrunedFeature and entries at ids >= `table_size` are dropped,
  /// kept entries are renumbered to their dense ids. The table must be
  /// monotone over kept ids so the result stays sorted.
  void RemapThrough(const uint32_t* old_to_new, size_t table_size);

  double L2Norm() const { return view().L2Norm(); }
  double L1Norm() const { return view().L1Norm(); }
  double SquaredDistance(SparseVectorView other) const {
    return view().SquaredDistance(other);
  }
  double CosineSimilarity(SparseVectorView other) const {
    return view().CosineSimilarity(other);
  }

  bool operator==(const SparseVector& other) const {
    return indices_ == other.indices_ && values_ == other.values_;
  }

  std::string ToString() const { return view().ToString(); }

 private:
  std::vector<uint32_t> indices_;
  std::vector<double> values_;
};

// ---------------------------------------------------------------------------
// Hot-path kernels (inline wrappers). Every kernel must produce bit-identical
// results to the straightforward scalar merge-join it replaced — tests assert
// A/B equality through whole engine runs — so floating-point additions may
// only happen for the same operands in the same order as the original loops.
// (`sum += cond ? x : 0.0` is NOT equivalent: adding +0.0 to a -0.0
// accumulator flips its sign bit.) The rewrites therefore move *index*
// bookkeeping, never accumulation.
//
// The loop bodies live in ml/simd/sparse_kernels_scalar.h; when the binary
// is built with ZOMBIE_SIMD the wrappers route large inputs through the
// runtime ISA dispatch table (ml/simd/sparse_kernels.h), whose AVX2/AVX-512
// entries are bit-identical to scalar by the same contract. Small inputs
// keep the directly-inlined scalar loop: the function-pointer hop costs more
// than SIMD saves there, and since both paths agree bit-for-bit the
// threshold is unobservable in results.
// ---------------------------------------------------------------------------

inline double SparseVectorView::Dot(const std::vector<double>& dense) const {
  // Indices are sorted, so "break at the first out-of-range index" is the
  // same as hoisting the bound check out of the loop: find the cutoff once,
  // then run a tight two-load multiply-accumulate with no branch in the
  // body.
  size_t limit = size_;
  if (dense.size() <= static_cast<size_t>(UINT32_MAX)) {
    const uint32_t bound = static_cast<uint32_t>(dense.size());
    limit = static_cast<size_t>(
        std::lower_bound(indices_, indices_ + size_, bound) - indices_);
  }
  // Scalar at every size: no gathered SIMD dot beat this loop at any nnz
  // (EXPERIMENTS.md E11), so it has no dispatch table entry.
  return simd::ScalarDotSparseDense(indices_, values_, limit, dense.data());
}

inline double SparseVectorView::Dot(SparseVectorView other) const {
  if (size_ == 0 || other.size_ == 0) return 0.0;
#if defined(ZOMBIE_SIMD_ENABLED)
  if (size_ + other.size_ >= 2 * simd::kSimdMinEntries) {
    return simd::ActiveKernels().dot_sparse_sparse(
        indices_, values_, size_, other.indices_, other.values_, other.size_);
  }
#endif
  return simd::ScalarDotSparseSparse(indices_, values_, size_, other.indices_,
                                     other.values_, other.size_);
}

inline void SparseVectorView::AddScaledTo(double scale,
                                          std::vector<double>* dense) const {
  if (size_ == 0) return;
  if (dense->size() < dimension()) dense->resize(dimension(), 0.0);
#if defined(ZOMBIE_SIMD_ENABLED)
  if (size_ >= simd::kSimdMinEntries) {
    simd::ActiveKernels().add_scaled_to(indices_, values_, size_, scale,
                                        dense->data());
    return;
  }
#endif
  simd::ScalarAddScaledTo(indices_, values_, size_, scale, dense->data());
}

inline double SparseVectorView::L2Norm() const {
  double s = 0.0;
  for (size_t i = 0; i < size_; ++i) s += values_[i] * values_[i];
  return std::sqrt(s);
}

inline double SparseVectorView::L1Norm() const {
  double s = 0.0;
  for (size_t i = 0; i < size_; ++i) s += std::abs(values_[i]);
  return s;
}

inline double SparseVectorView::SquaredDistance(SparseVectorView other) const {
  // Merge with identical accumulation order to the classic three-way merge;
  // see ScalarSquaredDistance for the loop-shape rationale. (Unlike Dot,
  // every element accumulates, so there is no run to skip; SIMD levels can
  // still vectorize the independent squares between the ordered adds.)
#if defined(ZOMBIE_SIMD_ENABLED)
  if (size_ + other.size_ >= 2 * simd::kSimdMinEntries) {
    return simd::ActiveKernels().squared_distance(
        indices_, values_, size_, other.indices_, other.values_, other.size_);
  }
#endif
  return simd::ScalarSquaredDistance(indices_, values_, size_, other.indices_,
                                     other.values_, other.size_);
}

}  // namespace zombie

#endif  // ZOMBIE_ML_SPARSE_VECTOR_H_
