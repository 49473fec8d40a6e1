#include "text/term_counts.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace zombie {

namespace {

constexpr int kRadixBits = 8;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

// Sorts `keys` ascending: LSD radix over the `Passes` low bytes, with
// every pass's histogram taken in one read of the keys. A pass whose byte
// is shared by all keys is a no-op permutation and is skipped. `tmp` is the
// ping-pong buffer; the sorted keys end up in *keys either way.
template <int Passes>
void RadixSort(std::vector<uint32_t>* keys, std::vector<uint32_t>* tmp) {
  const size_t n = keys->size();
  uint32_t hist[Passes][kRadixBuckets] = {};
  const uint32_t* in = keys->data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = in[i];
    for (int p = 0; p < Passes; ++p) {
      ++hist[p][(k >> (kRadixBits * p)) & (kRadixBuckets - 1)];
    }
  }
  if (tmp->size() < n) tmp->resize(n);
  uint32_t* src = keys->data();
  uint32_t* dst = tmp->data();
  for (int p = 0; p < Passes; ++p) {
    const int shift = kRadixBits * p;
    uint32_t* h = hist[p];
    if (h[(src[0] >> shift) & (kRadixBuckets - 1)] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      const uint32_t c = h[b];
      h[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t k = src[i];
      dst[h[(k >> shift) & (kRadixBuckets - 1)]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys->data()) std::copy(src, src + n, keys->data());
}

// Below this many keys a comparison sort of the bare uint32 keys beats the
// radix passes' fixed cost (a 256-entry histogram and prefix sum per
// pass): keyword hits, short snippets.
constexpr size_t kRadixMinKeys = 64;

void RadixSort(std::vector<uint32_t>* keys, uint32_t max_index) {
  if (keys->size() < kRadixMinKeys) {
    std::sort(keys->begin(), keys->end());
    return;
  }
  // Histogram counts are uint32: a document never holds 2^32 tokens.
  ZCHECK_LT(keys->size(), size_t{1} << 32);
  // The ping-pong buffer outlives the call so a document's counting does
  // not allocate; it holds one document's keys per thread.
  thread_local std::vector<uint32_t> tmp;
  if (max_index < (1u << 8)) {
    RadixSort<1>(keys, &tmp);
  } else if (max_index < (1u << 16)) {
    RadixSort<2>(keys, &tmp);
  } else if (max_index < (1u << 24)) {
    RadixSort<3>(keys, &tmp);
  } else {
    RadixSort<4>(keys, &tmp);
  }
}

}  // namespace

void CountIndices(std::vector<uint32_t>* indices, uint32_t max_index,
                  TermCounts* out) {
  RadixSort(indices, max_index);
  const uint32_t* p = indices->data();
  const size_t n = indices->size();
  // Sized for the worst case (every key distinct) and written through a
  // raw cursor, then trimmed: no capacity check per run.
  const size_t start = out->size();
  out->resize(start + n);
  std::pair<uint32_t, double>* w = out->data() + start;
  // One pass over the sorted keys, one entry per run.
  size_t i = 0;
  while (i < n) {
    const uint32_t key = p[i];
    const size_t i0 = i;
    while (i < n && p[i] == key) ++i;
    *w++ = {key, static_cast<double>(i - i0)};
  }
  out->resize(static_cast<size_t>(w - out->data()));
}

TermCounts CountTokenIds(const std::vector<uint32_t>& token_ids) {
  TermCounts counts;
  if (token_ids.empty()) return counts;
  std::vector<uint32_t> keys = token_ids;
  const uint32_t max_id = *std::max_element(keys.begin(), keys.end());
  CountIndices(&keys, max_id, &counts);
  return counts;
}

}  // namespace zombie
