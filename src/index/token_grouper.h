#ifndef ZOMBIE_INDEX_TOKEN_GROUPER_H_
#define ZOMBIE_INDEX_TOKEN_GROUPER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/grouper.h"

namespace zombie {

/// Inverted-index grouping: one group per selected vocabulary token, each
/// containing the documents mentioning it, plus a catch-all group for
/// uncovered documents. Groups overlap (a document mentioning two selected
/// tokens is in both); the GroupedCorpus dedups at selection time.
///
/// Token selection is label-free: mid-document-frequency tokens (too rare
/// carries no mass, too frequent carries no signal), ranked by descending
/// coverage within the band. For mention-style tasks (T2) the entity tokens
/// land in this band, so one arm nearly isolates the positives.
///
/// Maximum number of token groups (excluding the catch-all).
inline constexpr size_t kTokenGroupsMax = 63;
/// Document-frequency band, as fractions of corpus size.
inline constexpr double kTokenMinDfFraction = 0.002;
inline constexpr double kTokenMaxDfFraction = 0.20;

struct TokenGrouperOptions {
  /// Vocabulary terms the engineer seeds the index with (task hints, e.g.
  /// entity names). Resolved against the corpus vocabulary at Group time;
  /// unknown terms are ignored. Seeded terms always get a group, ahead of
  /// the DF-band tokens, and count toward kTokenGroupsMax.
  std::vector<std::string> seed_terms;
};

class TokenGrouper : public Grouper {
 public:
  explicit TokenGrouper(TokenGrouperOptions options = {});

  GroupingResult Group(const Corpus& corpus) override;
  std::string name() const override { return "token"; }

  const TokenGrouperOptions& options() const { return options_; }

 private:
  TokenGrouperOptions options_;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_TOKEN_GROUPER_H_
