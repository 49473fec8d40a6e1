#ifndef ZOMBIE_FEATUREENG_REVISION_SCRIPT_H_
#define ZOMBIE_FEATUREENG_REVISION_SCRIPT_H_

#include <functional>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "featureeng/pipeline.h"

namespace zombie {

/// One step of a scripted feature-engineering session: a named pipeline
/// builder. Builders take the corpus so they can resolve vocabulary terms
/// (an engineer's hand-picked keywords) into token ids.
struct Revision {
  std::string name;
  std::function<FeaturePipeline(const Corpus&)> build;
};

/// A fixed sequence of pipeline revisions standing in for the human
/// engineer of the paper's "engineer wait time" experiment: each revision
/// is one edit-run-evaluate iteration of the inner loop.
class RevisionScript {
 public:
  RevisionScript() = default;

  void Add(std::string name,
           std::function<FeaturePipeline(const Corpus&)> build);

  size_t size() const { return revisions_.size(); }
  const std::string& name(size_t i) const;

  /// Materializes revision i's pipeline against the given corpus.
  FeaturePipeline BuildPipeline(size_t i, const Corpus& corpus) const;

 private:
  std::vector<Revision> revisions_;
};

/// Ten-revision WebCat session: starts with a badly collided hashed BoW,
/// progressively widens it and adds metadata, keyword, and n-gram features
/// (including an expensive final revision). Quality broadly improves along
/// the script; cost grows toward the end — the realistic trajectory the
/// paper's 8h→5h experiment aggregates over.
RevisionScript MakeWebCatRevisionScript();

/// Looks up vocabulary terms by name; silently drops unknown terms.
std::vector<uint32_t> ResolveTerms(
    const Corpus& corpus,
    const std::vector<std::string>& terms);  // zombie-lint: allow(no-hot-path-string-copy)

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_REVISION_SCRIPT_H_
