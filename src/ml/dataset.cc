#include "ml/dataset.h"

#include "util/random.h"

namespace zombie {

void Dataset::Add(SparseVectorView x, int32_t y) {
  const size_t n = x.num_nonzero();
  indices_.insert(indices_.end(), x.indices_data(), x.indices_data() + n);
  values_.insert(values_.end(), x.values_data(), x.values_data() + n);
  row_offsets_.push_back(indices_.size());
  labels_.push_back(y);
}

void Dataset::Reserve(size_t rows, size_t nnz) {
  indices_.reserve(nnz);
  values_.reserve(nnz);
  row_offsets_.reserve(rows + 1);
  labels_.reserve(rows);
}

size_t Dataset::num_positive() const {
  size_t n = 0;
  for (int32_t y : labels_) {
    if (y == 1) ++n;
  }
  return n;
}

double Dataset::positive_fraction() const {
  if (labels_.empty()) return 0.0;
  return static_cast<double>(num_positive()) /
         static_cast<double>(labels_.size());
}

void Dataset::Permute(const std::vector<size_t>& order) {
  std::vector<uint32_t> indices;
  std::vector<double> values;
  std::vector<size_t> row_offsets;
  std::vector<int32_t> labels;
  indices.reserve(indices_.size());
  values.reserve(values_.size());
  row_offsets.reserve(row_offsets_.size());
  labels.reserve(labels_.size());
  row_offsets.push_back(0);
  for (size_t row : order) {
    const size_t begin = row_offsets_[row];
    const size_t end = row_offsets_[row + 1];
    indices.insert(indices.end(), indices_.begin() + static_cast<ptrdiff_t>(begin),
                   indices_.begin() + static_cast<ptrdiff_t>(end));
    values.insert(values.end(), values_.begin() + static_cast<ptrdiff_t>(begin),
                  values_.begin() + static_cast<ptrdiff_t>(end));
    row_offsets.push_back(indices.size());
    labels.push_back(labels_[row]);
  }
  indices_ = std::move(indices);
  values_ = std::move(values);
  row_offsets_ = std::move(row_offsets);
  labels_ = std::move(labels);
}

void Dataset::Shuffle(Rng* rng) {
  // Shuffle an index permutation, not the arena: Rng::Shuffle's draw count
  // depends only on element count, so this consumes the identical random
  // stream the old vector<Example> shuffle did and lands on the same order.
  std::vector<size_t> order(size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);
  Permute(order);
}

}  // namespace zombie
