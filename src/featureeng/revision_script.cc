#include "featureeng/revision_script.h"

#include <memory>

#include "featureeng/extractors.h"
#include "text/vocabulary.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

void RevisionScript::Add(
    std::string name, std::function<FeaturePipeline(const Corpus&)> build) {
  revisions_.push_back(Revision{std::move(name), std::move(build)});
}

const std::string& RevisionScript::name(size_t i) const {
  ZCHECK_LT(i, revisions_.size());
  return revisions_[i].name;
}

FeaturePipeline RevisionScript::BuildPipeline(size_t i,
                                              const Corpus& corpus) const {
  ZCHECK_LT(i, revisions_.size());
  return revisions_[i].build(corpus);
}

// Term names are setup-time input (resolved once per revision build), so
// the owning container is fine here.
std::vector<uint32_t> ResolveTerms(
    const Corpus& corpus,
    const std::vector<std::string>& terms) {  // zombie-lint: allow(no-hot-path-string-copy)
  std::vector<uint32_t> ids;
  for (const auto& t : terms) {
    uint32_t id = corpus.vocabulary().Lookup(t);
    if (id != Vocabulary::kUnknownTerm) ids.push_back(id);
  }
  return ids;
}

namespace {

// The engineer's keyword guesses: frequent target-topic terms (topic 0's
// Zipf head), the signals a human would notice first in the positives.
std::vector<uint32_t> TargetTopicKeywords(const Corpus& corpus, size_t count) {
  // Setup-time only: runs once per revision build, not per event.
  std::vector<std::string> names;  // zombie-lint: allow(no-hot-path-string-copy)
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    names.push_back(StrFormat("topic0_w%zu", i));
  }
  return ResolveTerms(corpus, names);
}

}  // namespace

RevisionScript MakeWebCatRevisionScript() {
  RevisionScript script;
  script.Add("r0-bow256", [](const Corpus&) {
    FeaturePipeline p("r0-bow256");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(256));
    return p;
  });
  script.Add("r1-bow1024", [](const Corpus&) {
    FeaturePipeline p("r1-bow1024");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(1024));
    return p;
  });
  script.Add("r2-bow4096", [](const Corpus&) {
    FeaturePipeline p("r2-bow4096");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    return p;
  });
  script.Add("r3-add-doclen", [](const Corpus&) {
    FeaturePipeline p("r3-add-doclen");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    p.Add(std::make_unique<DocLengthExtractor>());
    return p;
  });
  script.Add("r4-add-domain", [](const Corpus&) {
    FeaturePipeline p("r4-add-domain");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
    p.Add(std::make_unique<DocLengthExtractor>());
    p.Add(std::make_unique<DomainExtractor>());
    return p;
  });
  script.Add("r5-bow8192", [](const Corpus&) {
    FeaturePipeline p("r5-bow8192");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(8192));
    p.Add(std::make_unique<DomainExtractor>());
    return p;
  });
  script.Add("r6-add-keywords", [](const Corpus& corpus) {
    FeaturePipeline p("r6-add-keywords");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(8192));
    p.Add(std::make_unique<DomainExtractor>());
    p.Add(std::make_unique<KeywordExtractor>(TargetTopicKeywords(corpus, 12)));
    return p;
  });
  script.Add("r7-add-diversity", [](const Corpus& corpus) {
    FeaturePipeline p("r7-add-diversity");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(8192));
    p.Add(std::make_unique<DomainExtractor>());
    p.Add(std::make_unique<KeywordExtractor>(TargetTopicKeywords(corpus, 12)));
    p.Add(std::make_unique<TokenDiversityExtractor>());
    return p;
  });
  script.Add("r8-add-bigrams", [](const Corpus& corpus) {
    FeaturePipeline p("r8-add-bigrams");
    p.Add(std::make_unique<HashedBagOfWordsExtractor>(8192));
    p.Add(std::make_unique<DomainExtractor>());
    p.Add(std::make_unique<KeywordExtractor>(TargetTopicKeywords(corpus, 12)));
    p.Add(std::make_unique<HashedBigramExtractor>(4096));
    return p;
  });
  script.Add("r9-deep-features", [](const Corpus& corpus) {
    FeaturePipeline p("r9-deep-features");
    p.Add(std::make_unique<ExpensiveWrapperExtractor>(
        std::make_unique<HashedBagOfWordsExtractor>(8192), 2.0));
    p.Add(std::make_unique<DomainExtractor>());
    p.Add(std::make_unique<KeywordExtractor>(TargetTopicKeywords(corpus, 24)));
    p.Add(std::make_unique<HashedBigramExtractor>(4096));
    return p;
  });
  return script;
}

}  // namespace zombie
