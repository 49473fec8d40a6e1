#ifndef ZOMBIE_TEXT_TERM_COUNTS_H_
#define ZOMBIE_TEXT_TERM_COUNTS_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace zombie {

/// Sparse (index, weight) pairs sorted by index — the interchange format
/// between the text layer and the ML layer's SparseVector (featureeng does
/// the conversion so that text/ and ml/ stay independent).
using TermCounts = std::vector<std::pair<uint32_t, double>>;

/// The one counting routine of the extraction path: appends to `out` the
/// sorted (index, count) pairs of a multiset of indices, all at most
/// `max_index` (a hashed feature space of dimension D passes D - 1).
///
/// Counting, not comparison sorting: `indices` is sorted in place by an
/// LSD radix sort on the uint32 keys — one 8-bit pass per byte of
/// `max_index`, skipping any pass whose byte is the same for every key —
/// and the runs are then counted in one merge. The cost follows the
/// number of indices, not the dimension (at most four passes over a
/// 256-entry histogram each), so a 2^20-dimension hash costs what a 256-
/// dimension one does per token. Lists too short to amortise the
/// histograms (under 64 keys) take a plain sort of the keys instead.
///
/// Every count is an integer, exact in a double, so the output is
/// bit-identical to summing 1.0 per occurrence after any sort.
void CountIndices(std::vector<uint32_t>* indices, uint32_t max_index,
                  TermCounts* out);

/// Aggregates raw token ids into sorted (id, count) pairs.
TermCounts CountTokenIds(const std::vector<uint32_t>& token_ids);

}  // namespace zombie

#endif  // ZOMBIE_TEXT_TERM_COUNTS_H_
