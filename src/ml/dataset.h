#ifndef ZOMBIE_ML_DATASET_H_
#define ZOMBIE_ML_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ml/sparse_vector.h"

namespace zombie {

class Rng;

/// One labeled example, viewed in place. The feature vector borrows the
/// owning Dataset's CSR arena — valid until that Dataset is mutated or
/// destroyed. Cheap to copy (pointer + size + label).
struct ExampleView {
  SparseVectorView x;
  int32_t y = 0;
};

/// A flat collection of labeled examples in CSR (compressed sparse row)
/// layout: one contiguous `indices` array, one contiguous `values` array,
/// and `row_offsets` marking each example's [begin, end) span, instead of a
/// heap-allocated SparseVector per row. Rows are handed out as non-owning
/// ExampleView/SparseVectorView — iterating a holdout touches three flat
/// arrays sequentially, which is the layout the scoring kernels want.
///
/// Dense feature slots: as rows are added, each distinct feature id gets
/// the next slot 0..D-1 (D = slot_ids().size()), and every stored entry
/// records its slot. Scoring a fixed dataset many times (the holdout) can
/// then compute one per-feature quantity per slot in a dense loop and let
/// each row index it by slot.
class Dataset {
 public:
  Dataset() { row_offsets_.push_back(0); }

  /// Appends a copy of the view's entries to the arena.
  void Add(SparseVectorView x, int32_t y);
  void Add(ExampleView e) { Add(e.x, e.y); }

  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  /// Total number of stored (index, value) entries across all rows.
  size_t num_entries() const { return indices_.size(); }

  ExampleView example(size_t i) const {
    const size_t begin = row_offsets_[i];
    return ExampleView{
        SparseVectorView(indices_.data() + begin, values_.data() + begin,
                         row_offsets_[i + 1] - begin),
        labels_[i]};
  }
  int32_t label(size_t i) const { return labels_[i]; }

  /// Feature id of each slot.
  const std::vector<uint32_t>& slot_ids() const { return slot_ids_; }
  /// Slots of row i's entries, parallel to example(i).x's nonzeros.
  const uint32_t* row_slots(size_t i) const {
    return slots_.data() + row_offsets_[i];
  }

  /// Iteration yields ExampleView by value; `examples()` keeps the
  /// pre-CSR call-site spelling `for (ExampleView e : ds.examples())`.
  class Iterator {
   public:
    Iterator(const Dataset* ds, size_t i) : ds_(ds), i_(i) {}
    ExampleView operator*() const { return ds_->example(i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const Dataset* ds_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }
  const Dataset& examples() const { return *this; }

  /// Number of examples with y == 1.
  size_t num_positive() const;

  /// Fraction of examples with y == 1 (0 for an empty set).
  double positive_fraction() const;

  /// Shuffles example order in place. Consumes exactly the same Rng draws
  /// as the pre-CSR vector shuffle (Fisher–Yates over `size()` elements),
  /// so seeded runs reproduce the old ordering bit-for-bit.
  void Shuffle(Rng* rng);

 private:
  /// Rebuilds the arena with rows in `order` (a permutation of [0, size)).
  /// Entries keep their slots.
  void Permute(const std::vector<size_t>& order);

  /// Slot of feature `id`, assigning the next one on first sight.
  uint32_t SlotOf(uint32_t id);

  std::vector<uint32_t> indices_;
  std::vector<double> values_;
  std::vector<uint32_t> slots_;      // parallel to indices_
  std::vector<size_t> row_offsets_;  // size() + 1 entries; [0] == 0
  std::vector<int32_t> labels_;
  std::vector<uint32_t> slot_ids_;   // slot -> feature id
  // id -> slot, open addressing with linear probing; a power-of-two size
  // kept at most half full. Ids span all of uint32, so no dense table.
  struct SlotEntry {
    uint32_t id;
    uint32_t slot;  // kNoSlot marks an empty entry
  };
  std::vector<SlotEntry> slot_table_;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_DATASET_H_
