#include "ml/dataset.h"

#include <algorithm>
#include <limits>

#include "util/random.h"

namespace zombie {

namespace {

constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

size_t SlotHash(uint32_t id) {
  // Fibonacci hashing: the high half of the product mixes every id bit.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

void Dataset::Add(SparseVectorView x, int32_t y) {
  const size_t n = x.num_nonzero();
  indices_.insert(indices_.end(), x.indices_data(), x.indices_data() + n);
  values_.insert(values_.end(), x.values_data(), x.values_data() + n);
  for (size_t i = 0; i < n; ++i) slots_.push_back(SlotOf(x.index_at(i)));
  row_offsets_.push_back(indices_.size());
  labels_.push_back(y);
}

uint32_t Dataset::SlotOf(uint32_t id) {
  if (2 * (slot_ids_.size() + 1) > slot_table_.size()) {
    // Grow and reinsert: slot s holds slot_ids_[s].
    slot_table_.assign(std::max<size_t>(64, 2 * slot_table_.size()),
                       SlotEntry{0, kNoSlot});
    const size_t mask = slot_table_.size() - 1;
    for (size_t s = 0; s < slot_ids_.size(); ++s) {
      size_t h = SlotHash(slot_ids_[s]) & mask;
      while (slot_table_[h].slot != kNoSlot) h = (h + 1) & mask;
      slot_table_[h] = SlotEntry{slot_ids_[s], static_cast<uint32_t>(s)};
    }
  }
  const size_t mask = slot_table_.size() - 1;
  for (size_t h = SlotHash(id) & mask;; h = (h + 1) & mask) {
    SlotEntry& e = slot_table_[h];
    if (e.slot == kNoSlot) {
      e = SlotEntry{id, static_cast<uint32_t>(slot_ids_.size())};
      slot_ids_.push_back(id);
      return e.slot;
    }
    if (e.id == id) return e.slot;
  }
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
  std::vector<uint32_t> slots;
  std::vector<size_t> row_offsets;
  std::vector<int32_t> labels;
  indices.reserve(indices_.size());
  values.reserve(values_.size());
  slots.reserve(slots_.size());
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
    slots.insert(slots.end(), slots_.begin() + static_cast<ptrdiff_t>(begin),
                 slots_.begin() + static_cast<ptrdiff_t>(end));
    row_offsets.push_back(indices.size());
    labels.push_back(labels_[row]);
  }
  indices_ = std::move(indices);
  values_ = std::move(values);
  slots_ = std::move(slots);
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
