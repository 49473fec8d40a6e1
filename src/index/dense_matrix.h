#ifndef ZOMBIE_INDEX_DENSE_MATRIX_H_
#define ZOMBIE_INDEX_DENSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "ml/simd/kernel_entries.h"  // kDistanceLanes
#include "util/logging.h"

namespace zombie {

/// Dense rows of one width, laid out for the SquaredL2Block kernel
/// (ml/simd/sparse_kernels.h). Rows are grouped in tiles of kTileRows (8),
/// and a tile stores its rows lane-interleaved: component d of the tile's
/// row l is tile[d * 8 + l]. Every tile is therefore a ready `lanes`
/// argument, so distances from one point to all rows need no transpose.
/// Lanes past num_rows() in the last tile are zero.
///
/// The index's signatures, k-means inputs and centroids, and the
/// incremental grouper's per-group member sets all use it: a set of rows
/// is one allocation per kBlockTiles tiles, not one per row. Tiles live in
/// blocks of 64 rows (64 KB at the default 128 signature dimensions)
/// rather than one buffer: a single 12 MB signature matrix cannot reuse
/// the freed heap fragments a long-running session leaves behind and
/// raised a WebCat session's peak RSS by ~7 MB; 64-row blocks fit them.
class DenseMatrix {
 public:
  static constexpr size_t kTileRows = simd::kDistanceLanes;
  static constexpr size_t kBlockTiles = 8;

  DenseMatrix() = default;
  /// An empty matrix whose rows will have `dim` columns.
  explicit DenseMatrix(size_t dim) : dim_(dim) {}
  /// `rows` zero rows of `dim` columns.
  DenseMatrix(size_t rows, size_t dim) : dim_(dim) {
    while (rows_ < rows) AddZeroRow();
  }

  /// Copies equal-length rows; aborts on ragged input.
  static DenseMatrix FromRows(const std::vector<std::vector<double>>& rows) {
    DenseMatrix m(rows.empty() ? 0 : rows[0].size());
    for (const auto& r : rows) {
      ZCHECK_EQ(r.size(), m.dim_) << "ragged rows";
      m.AppendRow(r.data());
    }
    return m;
  }

  size_t num_rows() const { return rows_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }
  size_t num_tiles() const { return (rows_ + kTileRows - 1) / kTileRows; }

  /// Tile t: rows [8t, 8t + 8), dim() * 8 doubles, lane-interleaved.
  const double* tile(size_t t) const {
    return blocks_[t / kBlockTiles].data() +
           (t % kBlockTiles) * dim_ * kTileRows;
  }
  double* mutable_tile(size_t t) {
    return blocks_[t / kBlockTiles].data() +
           (t % kBlockTiles) * dim_ * kTileRows;
  }
  /// Component d of row i.
  double& mutable_at(size_t i, size_t d) {
    return mutable_tile(i / kTileRows)[d * kTileRows + i % kTileRows];
  }

  /// Copies row i to the dim() doubles at `out`.
  void CopyRow(size_t i, double* out) const {
    const double* src = tile(i / kTileRows) + i % kTileRows;
    for (size_t d = 0; d < dim_; ++d) out[d] = src[d * kTileRows];
  }
  std::vector<double> RowVector(size_t i) const {
    std::vector<double> out(dim_);
    CopyRow(i, out.data());
    return out;
  }
  /// Overwrites row i with the dim() doubles at `v`.
  void SetRow(size_t i, const double* v) {
    ZCHECK_LT(i, rows_);
    for (size_t d = 0; d < dim_; ++d) mutable_at(i, d) = v[d];
  }
  /// Appends a copy of the dim() doubles at `v`.
  void AppendRow(const double* v) {
    AddZeroRow();
    SetRow(rows_ - 1, v);
  }

 private:
  void AddZeroRow() {
    if (rows_ % kTileRows == 0) {
      if (rows_ % (kTileRows * kBlockTiles) == 0) blocks_.emplace_back();
      blocks_.back().resize(blocks_.back().size() + dim_ * kTileRows, 0.0);
    }
    ++rows_;
  }

  std::vector<std::vector<double>> blocks_;
  size_t dim_ = 0;
  size_t rows_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_DENSE_MATRIX_H_
