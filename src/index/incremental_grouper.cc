#include "index/incremental_grouper.h"

#include <algorithm>
#include <utility>

#include "index/kmeans.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {

// --------------------------------------------------------------------------
// IncrementalKMeansGrouper

IncrementalKMeansGrouper::IncrementalKMeansGrouper(
    IncrementalKMeansOptions options)
    : options_(options) {
  ZCHECK_GE(options.num_groups, 1u);
  ZCHECK_GE(options.split_threshold, 4u);
  ZCHECK_GE(options.max_groups, options.num_groups);
  ZCHECK_GE(options.split_kmeans_iterations, 1u);
}

GroupingResult IncrementalKMeansGrouper::GroupBase(const Corpus& corpus,
                                                   size_t base_size) {
  ZCHECK(!base_built_) << "GroupBase called twice";
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  base_built_ = true;
  Stopwatch watch;
  GroupingResult result;
  result.method = name();

  PrefixSignatures sigs =
      ComputeSignaturesForPrefix(corpus, base_size, options_.signature);
  idf_ = std::move(sigs.idf);

  KMeansConfig kcfg;
  kcfg.k = std::min(options_.num_groups, base_size);
  kcfg.seed = options_.seed;
  const DenseMatrix& rows = sigs.matrix.rows;
  KMeansResult km = RunKMeans(rows, kcfg);

  result.groups.resize(kcfg.k);
  centroids_ = std::move(km.centroids);
  member_docs_.resize(kcfg.k);
  member_sigs_.assign(kcfg.k, DenseMatrix(rows.dim()));
  next_split_at_.assign(kcfg.k, options_.split_threshold);
  std::vector<double> row(rows.dim());
  for (size_t i = 0; i < km.assignments.size(); ++i) {
    size_t g = km.assignments[i];
    ZCHECK_LT(g, kcfg.k);
    result.groups[g].push_back(static_cast<uint32_t>(i));
    member_docs_[g].push_back(static_cast<uint32_t>(i));
    rows.CopyRow(i, row.data());
    member_sigs_[g].AppendRow(row.data());
  }
  result.build_virtual_micros = sigs.matrix.virtual_cost_micros;
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

IngestAssignment IncrementalKMeansGrouper::AssignOrSplit(const Corpus& corpus,
                                                         uint32_t doc_index) {
  ZCHECK(base_built_) << "AssignOrSplit before GroupBase";
  ZCHECK_LT(doc_index, corpus.size());
  std::vector<double> sig = ComputeSignature(
      corpus.doc(doc_index), options_.signature,
      idf_.empty() ? nullptr : &idf_);

  // Nearest centroid, ties toward the lower group id (strict <).
  double best_dist;
  const size_t best = NearestRow(centroids_, sig.data(), &best_dist);

  // Running-mean centroid update: the centroid is the mean of everything
  // ever assigned to the group (base members + arrivals), updated in
  // arrival order — deterministic because arrival order is.
  double n = static_cast<double>(member_docs_[best].size()) + 1.0;
  for (size_t d = 0; d < sig.size(); ++d) {
    double& c = centroids_.mutable_at(best, d);
    c += (sig[d] - c) / n;
  }
  member_docs_[best].push_back(doc_index);
  member_sigs_[best].AppendRow(sig.data());

  IngestAssignment out;
  out.groups.push_back(best);

  if (member_docs_[best].size() < next_split_at_[best] ||
      centroids_.num_rows() >= options_.max_groups) {
    return out;
  }
  // Re-arm regardless of the attempt's outcome so a degenerate group
  // (identical signatures: 2-means leaves one side empty) does not retry
  // on every arrival.
  next_split_at_[best] =
      member_docs_[best].size() + options_.split_threshold;

  KMeansConfig split_cfg;
  split_cfg.k = 2;
  split_cfg.max_iterations = options_.split_kmeans_iterations;
  split_cfg.seed = HashCombine(options_.seed, 0x5154ULL + num_splits_);
  KMeansResult split = RunKMeans(member_sigs_[best], split_cfg);

  size_t count1 = 0;
  for (uint32_t a : split.assignments) count1 += a == 1;
  size_t count0 = split.assignments.size() - count1;
  if (count0 == 0 || count1 == 0) return out;  // degenerate: keep as-is

  // The smaller half moves to the new group (ties: cluster 1 moves, so
  // the lower-id cluster keeps the old arm's history).
  uint32_t moving = count1 <= count0 ? 1u : 0u;
  const size_t dim = sig.size();
  std::vector<double> row(dim);
  std::vector<uint32_t> stay_docs, move_docs;
  DenseMatrix stay_sigs(dim), move_sigs(dim);
  for (size_t i = 0; i < split.assignments.size(); ++i) {
    member_sigs_[best].CopyRow(i, row.data());
    if (split.assignments[i] == moving) {
      move_docs.push_back(member_docs_[best][i]);
      move_sigs.AppendRow(row.data());
    } else {
      stay_docs.push_back(member_docs_[best][i]);
      stay_sigs.AppendRow(row.data());
    }
  }
  member_docs_[best] = std::move(stay_docs);
  member_sigs_[best] = std::move(stay_sigs);
  split.centroids.CopyRow(1 - moving, row.data());
  centroids_.SetRow(best, row.data());

  NewGroupSeed seed;
  seed.source_group = best;
  seed.members = move_docs;
  out.new_groups.push_back(std::move(seed));

  split.centroids.CopyRow(moving, row.data());
  centroids_.AppendRow(row.data());
  member_docs_.push_back(std::move(move_docs));
  member_sigs_.push_back(std::move(move_sigs));
  next_split_at_.push_back(member_docs_.back().size() +
                           options_.split_threshold);
  ++num_splits_;
  return out;
}

std::string IncrementalKMeansGrouper::name() const {
  return StrFormat("ikmeans%zu", options_.num_groups);
}

std::unique_ptr<IncrementalGrouper> IncrementalKMeansGrouper::Clone() const {
  return std::make_unique<IncrementalKMeansGrouper>(*this);
}

// --------------------------------------------------------------------------
// IncrementalMetadataGrouper

IncrementalMetadataGrouper::IncrementalMetadataGrouper(
    IncrementalMetadataOptions options)
    : options_(options) {
  ZCHECK_GE(options.max_groups, 1u);
}

size_t IncrementalMetadataGrouper::GroupForDomain(
    uint32_t domain, std::vector<NewGroupSeed>* opened) {
  if (domain >= domain_to_group_.size()) {
    domain_to_group_.resize(domain + 1, -1);
  }
  int32_t g = domain_to_group_[domain];
  if (g >= 0) return static_cast<size_t>(g);
  size_t assigned;
  if (num_groups_ < options_.max_groups) {
    assigned = num_groups_++;
    if (opened != nullptr) {
      NewGroupSeed seed;  // brand-new domain: an arm with no history
      opened->push_back(std::move(seed));
    }
  } else {
    assigned = static_cast<size_t>(
        HashCombine(domain, 0x4D455441ULL) % num_groups_);
  }
  domain_to_group_[domain] = static_cast<int32_t>(assigned);
  return assigned;
}

GroupingResult IncrementalMetadataGrouper::GroupBase(const Corpus& corpus,
                                                     size_t base_size) {
  ZCHECK(!base_built_) << "GroupBase called twice";
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  base_built_ = true;
  Stopwatch watch;
  GroupingResult result;
  result.method = name();
  // First-seen domain order opens groups (no empty-group dropping, unlike
  // the offline MetadataGrouper: the domain -> group map must stay stable
  // under later arrivals).
  std::vector<size_t> assignment(base_size, 0);
  for (size_t i = 0; i < base_size; ++i) {
    assignment[i] = GroupForDomain(corpus.doc(i).domain, nullptr);
  }
  result.groups.resize(num_groups_);
  for (size_t i = 0; i < base_size; ++i) {
    result.groups[assignment[i]].push_back(static_cast<uint32_t>(i));
  }
  // Metadata reads are free relative to extraction.
  result.build_virtual_micros = 0;
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

IngestAssignment IncrementalMetadataGrouper::AssignOrSplit(
    const Corpus& corpus, uint32_t doc_index) {
  ZCHECK(base_built_) << "AssignOrSplit before GroupBase";
  ZCHECK_LT(doc_index, corpus.size());
  IngestAssignment out;
  size_t g = GroupForDomain(corpus.doc(doc_index).domain, &out.new_groups);
  out.groups.push_back(g);
  return out;
}

std::string IncrementalMetadataGrouper::name() const {
  return StrFormat("imeta%zu", options_.max_groups);
}

std::unique_ptr<IncrementalGrouper> IncrementalMetadataGrouper::Clone()
    const {
  return std::make_unique<IncrementalMetadataGrouper>(*this);
}

// --------------------------------------------------------------------------
// IncrementalTokenGrouper

IncrementalTokenGrouper::IncrementalTokenGrouper(TokenGrouperOptions options)
    : options_(options) {
  ZCHECK_GE(options.max_groups, 1u);
  ZCHECK_GE(options.min_df_fraction, 0.0);
  ZCHECK_LE(options.max_df_fraction, 1.0);
  ZCHECK_LT(options.min_df_fraction, options.max_df_fraction);
}

GroupingResult IncrementalTokenGrouper::GroupBase(const Corpus& corpus,
                                                  size_t base_size) {
  ZCHECK(!base_built_) << "GroupBase called twice";
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  base_built_ = true;
  Stopwatch watch;
  GroupingResult result;
  result.method = name();

  // Base document frequencies (the same DF-band selection as the offline
  // TokenGrouper, restricted to the prefix the stream has revealed).
  std::vector<uint32_t> doc_freq(corpus.vocabulary().size(), 0);
  double virtual_cost = 0.0;
  std::vector<uint32_t> scratch;
  for (size_t i = 0; i < base_size; ++i) {
    const Document& doc = corpus.doc(i);
    scratch.assign(doc.tokens.begin(), doc.tokens.end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    for (uint32_t tok : scratch) {
      if (tok < doc_freq.size()) ++doc_freq[tok];
    }
    virtual_cost += 0.05 * static_cast<double>(doc.extraction_cost_micros);
  }

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
      options_.min_df_fraction * static_cast<double>(base_size));
  const uint32_t max_df = static_cast<uint32_t>(
      options_.max_df_fraction * static_cast<double>(base_size));
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
    if (candidates.size() >= options_.max_groups) break;
    candidates.push_back(tok);
  }
  token_to_group_.assign(doc_freq.size(), -1);
  for (size_t g = 0; g < candidates.size(); ++g) {
    token_to_group_[candidates[g]] = static_cast<int32_t>(g);
  }
  num_token_groups_ = candidates.size();

  // Populate token groups + the catch-all, which — unlike the offline
  // grouper — is kept even when empty at base: later arrivals need it.
  result.groups.assign(num_token_groups_ + 1, {});
  std::vector<uint8_t> in_group(num_token_groups_, 0);
  for (size_t i = 0; i < base_size; ++i) {
    const Document& doc = corpus.doc(i);
    bool covered = false;
    std::fill(in_group.begin(), in_group.end(), 0);
    for (uint32_t tok : doc.tokens) {
      int32_t g = tok < token_to_group_.size() ? token_to_group_[tok] : -1;
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
  result.build_virtual_micros = static_cast<int64_t>(virtual_cost);
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

IngestAssignment IncrementalTokenGrouper::AssignOrSplit(const Corpus& corpus,
                                                        uint32_t doc_index) {
  ZCHECK(base_built_) << "AssignOrSplit before GroupBase";
  ZCHECK_LT(doc_index, corpus.size());
  IngestAssignment out;
  const Document& doc = corpus.doc(doc_index);
  // First-mention order, each group at most once (matching the base pass).
  std::vector<uint8_t> in_group(num_token_groups_, 0);
  for (uint32_t tok : doc.tokens) {
    int32_t g = tok < token_to_group_.size() ? token_to_group_[tok] : -1;
    if (g >= 0 && !in_group[static_cast<size_t>(g)]) {
      in_group[static_cast<size_t>(g)] = 1;
      out.groups.push_back(static_cast<size_t>(g));
    }
  }
  if (out.groups.empty()) out.groups.push_back(num_token_groups_);
  return out;
}

std::unique_ptr<IncrementalGrouper> IncrementalTokenGrouper::Clone() const {
  return std::make_unique<IncrementalTokenGrouper>(*this);
}

}  // namespace zombie
