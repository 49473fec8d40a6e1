#include "index/token_grouper.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace zombie {

TokenGrouper::TokenGrouper(TokenGrouperOptions options)
    : options_(std::move(options)) {}

GroupingResult TokenGrouper::Group(const Corpus& corpus) {
  Stopwatch watch;
  GroupingResult result;
  result.method = name();
  const size_t n = corpus.size();
  if (n == 0) {
    result.build_wall_micros = watch.ElapsedMicros();
    return result;
  }

  // Pass 1: document frequencies (this reads raw token streams, so it is
  // charged to the virtual index-construction budget like a signature
  // scan: a cheap fraction of full extraction).
  std::vector<uint32_t> doc_freq(corpus.vocabulary().size(), 0);
  double virtual_cost = 0.0;
  std::vector<uint32_t> scratch;
  for (const Document& doc : corpus.documents()) {
    scratch.assign(doc.tokens.begin(), doc.tokens.end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    for (uint32_t tok : scratch) {
      if (tok < doc_freq.size()) ++doc_freq[tok];
    }
    virtual_cost += 0.05 * static_cast<double>(doc.extraction_cost_micros);
  }

  // Seeded terms first (engineer-provided task hints), then tokens in the
  // DF band by descending coverage.
  std::vector<uint32_t> candidates;
  std::vector<uint8_t> taken(doc_freq.size(), 0);
  for (const std::string& term : options_.seed_terms) {
    uint32_t id = corpus.vocabulary().Lookup(term);
    if (id != Vocabulary::kUnknownTerm && doc_freq[id] > 0 && !taken[id]) {
      candidates.push_back(id);
      taken[id] = 1;
    }
  }
  const uint32_t min_df = static_cast<uint32_t>(
      kTokenMinDfFraction * static_cast<double>(n));
  const uint32_t max_df = static_cast<uint32_t>(
      kTokenMaxDfFraction * static_cast<double>(n));
  std::vector<uint32_t> band;
  for (uint32_t tok = 0; tok < doc_freq.size(); ++tok) {
    if (!taken[tok] && doc_freq[tok] > std::max<uint32_t>(min_df, 1) &&
        doc_freq[tok] <= std::max<uint32_t>(max_df, 2)) {
      band.push_back(tok);
    }
  }
  std::sort(band.begin(), band.end(), [&doc_freq](uint32_t a, uint32_t b) {
    if (doc_freq[a] != doc_freq[b]) return doc_freq[a] > doc_freq[b];
    return a < b;
  });
  for (uint32_t tok : band) {
    if (candidates.size() >= kTokenGroupsMax) break;
    candidates.push_back(tok);
  }
  std::vector<int32_t> token_to_group(doc_freq.size(), -1);
  for (size_t g = 0; g < candidates.size(); ++g) {
    token_to_group[candidates[g]] = static_cast<int32_t>(g);
  }

  // Pass 2: populate groups (each doc at most once per group) + catch-all.
  result.groups.assign(candidates.size() + 1, {});
  std::vector<uint8_t> in_group(candidates.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const Document& doc = corpus.doc(i);
    bool covered = false;
    std::fill(in_group.begin(), in_group.end(), 0);
    for (uint32_t tok : doc.tokens) {
      int32_t g = tok < token_to_group.size() ? token_to_group[tok] : -1;
      if (g >= 0 && !in_group[static_cast<size_t>(g)]) {
        in_group[static_cast<size_t>(g)] = 1;
        result.groups[static_cast<size_t>(g)].push_back(
            static_cast<uint32_t>(i));
        covered = true;
      }
    }
    if (!covered) {
      result.groups.back().push_back(static_cast<uint32_t>(i));
    }
  }
  // Drop an empty catch-all (everything was covered).
  if (result.groups.back().empty()) result.groups.pop_back();

  result.build_virtual_micros = static_cast<int64_t>(virtual_cost);
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

}  // namespace zombie
