// zombie_lint — repo-specific invariant linter for the zombie library (v2).
//
// Generic tools (compiler warnings, clang-tidy) cannot enforce contracts that
// are conventions of *this* codebase. The linter tokenizes every source file
// (comments, strings, and char literals stripped first), tracks namespace /
// class / function scope where a rule needs it, and resolves quoted project
// includes so type information declared in a header is visible when the
// matching .cc is linted. It checks the rules the library's design docs
// promise:
//
//   no-throw        Library code never throws; fallible operations return a
//                   Status (src/util/status.h). `throw`, `try`, and `catch`
//                   are banned in src/.
//   no-raw-random   All randomness flows through zombie::Rng (determinism
//                   contract: identical seeds give bit-identical traces).
//                   `rand`, `srand`, `rand_r`, `drand48`, `random_device`,
//                   and `mt19937` are banned outside src/util/random.cc.
//   no-stdout       Library code is silent unless asked: user-facing output
//                   goes through util/logging.h. `std::cout` and bare
//                   `printf` are banned in src/ (snprintf/fprintf stderr are
//                   fine and are distinct identifiers).
//   no-raw-clock    Wall-clock reads flow through util/clock (Stopwatch /
//                   VirtualClock) so time handling stays centralized and
//                   mockable. `steady_clock::now`, `system_clock::now`, and
//                   `high_resolution_clock::now` are banned outside
//                   src/util/clock.* and src/obs/ (token-sequence match, so
//                   a call wrapped across lines is still caught).
//   header-guard    Include guards must be derived from the file path:
//                   src/util/status.h -> ZOMBIE_UTIL_STATUS_H_.
//   no-hot-path-string-copy
//                   The feature-extraction and engine layers are the hot
//                   path; token streams there flow as string_view spans
//                   over a reusable TokenBuffer (src/text/tokenizer.h), not
//                   as owning string collections that allocate per token.
//                   `std::vector<std::string>` is banned in src/featureeng/
//                   and src/core/ (token match: whitespace and line breaks
//                   are irrelevant).
//   no-raw-extract-outside-service
//                   Feature extraction flows through
//                   ExtractionService::Featurize so caching, store
//                   tiering, and metrics stay on one path.
//                   Direct `.Extract(` / `->Extract(` calls are banned in
//                   src/ outside src/featureeng/.
//   no-raw-mmap     Memory mapping flows through util/mmap_file.h (and the
//                   advisory locks through util/file_lock.h) so growth,
//                   remap invalidation, and error handling live in one
//                   audited place. Calls to `mmap`, `munmap`, `mremap`,
//                   and `msync` are banned in src/ outside src/util/.
//   no-raw-intrinsics
//                   Vendor SIMD intrinsics live only in src/ml/simd/, where
//                   the per-TU ISA compile flags, the cpuid dispatch gate,
//                   and the bit-identity obligations (FP-order contract,
//                   ODR isolation — see src/ml/simd/kernel_entries.h) are
//                   enforced. `<*intrin.h>` includes, `_mm*` calls, and
//                   `__m128`/`__m256`/`__m512`/`__mmask` types are banned
//                   in src/ outside src/ml/simd/ — an intrinsic elsewhere
//                   either crashes pre-AVX hardware (no dispatch gate) or
//                   silently forks the accumulation order.
//
// Determinism rules (v2). The paper's speedup claims rest on byte-identical
// results across cache / store / thread-count configurations; these rules
// make the easiest ways to silently break that invariant a lint failure:
//
//   no-unordered-iteration
//                   Iterating a std::unordered_{map,set,multimap,multiset}
//                   (range-for over it, or .begin()/.cbegin() on it) is
//                   banned in the result-affecting layers src/core/,
//                   src/bandit/, src/ml/, and src/featureeng/ — iteration
//                   order is hash-seed- and libstdc++-version-dependent, so
//                   any result that depends on it breaks byte-identity.
//                   Unordered *lookup* is fine; order-dependent traversal is
//                   not. Type information crosses files: a member declared
//                   unordered in an included project header is recognized in
//                   the .cc that iterates it.
//   no-detached-thread
//                   Raw std::thread construction is banned outside
//                   src/util/thread_pool.* (trial-level parallelism flows
//                   through ThreadPool so Wait()/shutdown semantics and
//                   determinism-by-index hold); `.detach()` is banned
//                   everywhere (a detached thread outlives every invariant
//                   this repo checks). `std::thread::id` /
//                   `std::thread::hardware_concurrency` remain usable.
//   no-nondet-float Floating-point accumulation order is part of the
//                   byte-identity contract (see sparse_vector.h). Banned:
//                   fast-math-style pragmas (`float_control`, `GCC
//                   optimize`, `clang fp contract`, `STDC FP_CONTRACT ON`),
//                   `std::reduce` / `std::transform_reduce` /
//                   `std::execution` parallel-reordering algorithms, and
//                   `#include <execution>`, outside allowlisted kernels
//                   (none today — even the SIMD kernels in src/ml/simd/
//                   preserve scalar accumulation order and need no
//                   exemption; a future entry earns its slot with a
//                   documented reduction-order proof).
//   no-mutable-global
//                   Non-const namespace-scope variables are banned: hidden
//                   mutable process state breaks run-to-run reproducibility
//                   and is invisible to the thread-safety annotations.
//                   Function-local statics (Meyer's singletons) and
//                   constexpr/constinit/const globals are fine.
//
// A finding on a line can be suppressed in place with a trailing comment
// naming the exact rule (comma lists are accepted):
//
//   int x = rand();  // zombie-lint: allow(no-raw-random)
//   f(g);            // zombie-lint: allow(no-throw, no-stdout)
//
// Matching is exact per rule token: allow(no-raw) suppresses nothing, and
// allow(no-raw-clock) does not suppress a hypothetical no-raw-clock-x.
//
// Usage: zombie_lint <root-dir>...
// Exits 0 when clean, 1 with findings (one "path:line: [rule] msg" per line),
// 2 on usage/IO errors.
//
// This is a tool, not library code, so stdio output here is intentional.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  size_t line;
  std::string rule;
  std::string message;
};

// One source line split into its code and comment parts (strings/chars are
// blanked out of `code` so tokens inside literals never match).
struct LineView {
  std::string code;
  std::string comment;
};

// Strips comments, string literals, and char literals, preserving line
// structure. The comment text is kept per line so suppression directives
// remain visible.
std::vector<LineView> SplitCodeAndComments(const std::string& text) {
  enum class State { kCode, kString, kChar, kLineComment, kBlockComment, kRawString };
  std::vector<LineView> lines(1);
  State state = State::kCode;
  std::string raw_delim;  // delimiter of an active raw string, e.g. `)foo"`
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary literals cannot span lines; reset defensively.
      if (state == State::kString || state == State::kChar) state = State::kCode;
      lines.emplace_back();
      continue;
    }
    LineView& cur = lines.back();
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          cur.comment += "//";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // Raw string literal R"delim( ... )delim".
          size_t open = text.find('(', i + 2);
          if (open == std::string::npos) { cur.code += c; break; }
          raw_delim.assign(1, ')');
          raw_delim.append(text, i + 2, open - i - 2);
          raw_delim.push_back('"');
          state = State::kRawString;
          cur.code += ' ';
          i = open;
        } else if (c == '"') {
          state = State::kString;
          cur.code += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          cur.code += ' ';
        } else {
          cur.code += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kLineComment:
        cur.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Exact-token suppression: every `zombie-lint: allow(...)` on the line is
// parsed as a comma-separated rule list and compared token-for-token, so
// allow(no-raw) never suppresses no-raw-clock and vice versa.
bool IsSuppressed(const LineView& line, const std::string& rule) {
  static const std::string kPrefix = "zombie-lint: allow(";
  size_t pos = 0;
  while ((pos = line.comment.find(kPrefix, pos)) != std::string::npos) {
    size_t start = pos + kPrefix.size();
    size_t close = line.comment.find(')', start);
    if (close == std::string::npos) return false;
    std::string list = line.comment.substr(start, close - start);
    size_t item = 0;
    while (item <= list.size()) {
      size_t comma = list.find(',', item);
      size_t end = comma == std::string::npos ? list.size() : comma;
      if (Trim(list.substr(item, end - item)) == rule) return true;
      if (comma == std::string::npos) break;
      item = comma + 1;
    }
    pos = close + 1;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tokenizer. Strings/comments are already blanked, so this only has to deal
// with identifiers, pp-numbers, and punctuation. Numbers are consumed as one
// pp-number token so `1.5f` never emits a `.` that could be mistaken for a
// member access; `::` and `->` are the only multi-character punctuators the
// rules need (notably NOT `>>`, which must stay two `>` so nested template
// argument lists close one level at a time).
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  size_t line;            // 1-based
  bool first_on_line;     // no earlier token on this line (directive detect)
};

std::vector<Token> Tokenize(const std::vector<LineView>& lines) {
  std::vector<Token> toks;
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& code = lines[li].code;
    size_t line_no = li + 1;
    bool first = true;
    size_t i = 0;
    while (i < code.size()) {
      char c = code[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token t;
      t.line = line_no;
      t.first_on_line = first;
      first = false;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < code.size() && IsIdentChar(code[j])) ++j;
        t.kind = Token::kIdent;
        t.text = code.substr(i, j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && i + 1 < code.size() &&
                  std::isdigit(static_cast<unsigned char>(code[i + 1])))) {
        // pp-number: digits, idents, '.', and exponent signs in one token.
        size_t j = i;
        while (j < code.size()) {
          char d = code[j];
          if (IsIdentChar(d) || d == '.') {
            ++j;
          } else if ((d == '+' || d == '-') && j > i &&
                     (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                      code[j - 1] == 'p' || code[j - 1] == 'P')) {
            ++j;
          } else {
            break;
          }
        }
        t.kind = Token::kNumber;
        t.text = code.substr(i, j - i);
        i = j;
      } else {
        t.kind = Token::kPunct;
        if (i + 1 < code.size() &&
            ((c == ':' && code[i + 1] == ':') ||
             (c == '-' && code[i + 1] == '>'))) {
          t.text = code.substr(i, 2);
          i += 2;
        } else {
          t.text.assign(1, c);
          ++i;
        }
      }
      toks.push_back(std::move(t));
    }
  }
  return toks;
}

// ---------------------------------------------------------------------------
// Path-derived policy: which files a rule applies to.
// ---------------------------------------------------------------------------

// Expected include guard for `path` relative to the repo root, e.g.
// src/util/status.h -> ZOMBIE_UTIL_STATUS_H_ (the "src/" prefix is dropped;
// other roots such as bench/ keep theirs).
std::string ExpectedGuard(const fs::path& rel) {
  std::string s = rel.generic_string();
  const std::string kSrcPrefix = "src/";
  if (s.rfind(kSrcPrefix, 0) == 0) s = s.substr(kSrcPrefix.size());
  std::string guard = "ZOMBIE_";
  for (char c : s) {
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

// File-scope exemptions for no-raw-random: the one place allowed to touch
// the underlying generator machinery.
bool IsRandomImplFile(const std::string& rel) {
  return rel == "src/util/random.cc" || rel == "src/util/random.h";
}

// File-scope exemptions for no-raw-clock: the clock wrapper itself, and
// the observability layer (whose whole purpose is timing measurement).
bool IsClockImplFile(const std::string& rel) {
  return rel == "src/util/clock.cc" || rel == "src/util/clock.h" ||
         rel.rfind("src/obs/", 0) == 0;
}

// Files covered by no-hot-path-string-copy: the per-event layers where a
// per-token allocation multiplies across the whole stream.
bool IsHotPathFile(const std::string& rel) {
  return rel.rfind("src/featureeng/", 0) == 0 || rel.rfind("src/core/", 0) == 0;
}

// Files covered by no-raw-extract-outside-service: all of src/ except the
// extraction layer itself, which implements the service and its backing
// pipeline and so is the one place allowed to call Extract directly.
bool IsRawExtractBannedFile(const std::string& rel) {
  return rel.rfind("src/", 0) == 0 && rel.rfind("src/featureeng/", 0) != 0;
}

// Files covered by no-raw-mmap: all of src/ except src/util/, where
// MmapFile (util/mmap_file.h) and FileLock (util/file_lock.h) own the raw
// mapping syscalls.
bool IsRawMmapBannedFile(const std::string& rel) {
  return rel.rfind("src/", 0) == 0 && rel.rfind("src/util/", 0) != 0;
}

// Files covered by no-raw-intrinsics: all of src/ except src/ml/simd/,
// the one home for vendor intrinsics (per-TU ISA flags + cpuid dispatch +
// bit-identity contract live there).
bool IsRawIntrinsicsBannedFile(const std::string& rel) {
  return rel.rfind("src/", 0) == 0 && rel.rfind("src/ml/simd/", 0) != 0;
}

// Vendor intrinsic spellings: _mm_* / _mm256_* / _mm512_* calls (and the
// _mm_malloc family), __m128/__m256/__m512 vector types with any element
// suffix, and AVX-512 __mmask types. All are compiler-reserved identifiers,
// so a legitimate project symbol can never collide with this predicate.
bool IsIntrinsicIdent(const std::string& id) {
  if (id.rfind("_mm", 0) == 0) return true;
  if (id.rfind("__m", 0) == 0) {
    if (id.size() > 3 && std::isdigit(static_cast<unsigned char>(id[3])))
      return true;
    if (id.rfind("__mmask", 0) == 0) return true;
  }
  return false;
}

// Result-affecting layers where unordered-container iteration order could
// leak into paper numbers (no-unordered-iteration scope).
bool IsUnorderedIterationBannedFile(const std::string& rel) {
  return rel.rfind("src/core/", 0) == 0 || rel.rfind("src/bandit/", 0) == 0 ||
         rel.rfind("src/ml/", 0) == 0 || rel.rfind("src/featureeng/", 0) == 0;
}

// The one home for raw std::thread construction (no-detached-thread scope).
bool IsThreadPoolFile(const std::string& rel) {
  return rel == "src/util/thread_pool.cc" || rel == "src/util/thread_pool.h";
}

// Kernels allowed to use reordering float reductions (no-nondet-float
// scope). Empty today — the SIMD kernels in src/ml/simd/ keep scalar
// accumulation order (that is their whole contract) and so need no slot; a
// future entry earns one together with a documented reduction-order
// argument.
bool IsNondetFloatAllowlistedFile(const std::string& rel) {
  (void)rel;
  return false;
}

// ---------------------------------------------------------------------------
// Per-file parse products shared between the include-graph pass and the
// lint pass.
// ---------------------------------------------------------------------------

struct IncludeRef {
  std::string path;
  bool angled;
  size_t line;
};

// Include directives are read from the *raw* text (SplitCodeAndComments
// blanks string literals, which would erase quoted include paths).
std::vector<IncludeRef> ExtractIncludes(const std::string& text) {
  std::vector<IncludeRef> refs;
  std::istringstream in(text);
  std::string raw;
  size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    size_t i = 0;
    while (i < raw.size() && std::isspace(static_cast<unsigned char>(raw[i]))) ++i;
    if (i >= raw.size() || raw[i] != '#') continue;
    ++i;
    while (i < raw.size() && std::isspace(static_cast<unsigned char>(raw[i]))) ++i;
    if (raw.compare(i, 7, "include") != 0) continue;
    i += 7;
    while (i < raw.size() && std::isspace(static_cast<unsigned char>(raw[i]))) ++i;
    if (i >= raw.size()) continue;
    char open = raw[i];
    char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
    if (close == '\0') continue;
    size_t end = raw.find(close, i + 1);
    if (end == std::string::npos) continue;
    refs.push_back({raw.substr(i + 1, end - i - 1), open == '<', line_no});
  }
  return refs;
}

bool IsUnorderedContainerName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

// Skips a balanced <...> template-argument list starting at toks[i] == "<";
// returns the index one past the matching ">". `>>` is two tokens, so
// nesting closes one level per token.
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    else if (t == ">" && --depth == 0) return i + 1;
    ++i;
  }
  return i;
}

// Records the names of variables declared with an unordered container type:
// `std::unordered_map<K, V> map_;`, `const std::unordered_set<T>& seen`,
// pointers, and references all register the declared identifier. Scope-free
// by design — a header's member names must be visible when the matching .cc
// iterates them, and over-approximating locals is harmless (the rule only
// fires on iteration in restricted dirs, where iterating a same-named
// ordered container would deserve a second look anyway).
void CollectUnorderedNames(const std::vector<Token>& toks,
                           std::set<std::string>* names) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::kIdent || !IsUnorderedContainerName(toks[i].text))
      continue;
    size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") j = SkipTemplateArgs(toks, j);
    while (j < toks.size() &&
           (toks[j].text == "*" || toks[j].text == "&" ||
            (toks[j].kind == Token::kIdent && toks[j].text == "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::kIdent) {
      names->insert(toks[j].text);
    }
  }
}

struct FileData {
  fs::path abs;
  std::string rel;  // generic_string relative to the root's parent
  std::vector<LineView> lines;
  std::vector<Token> tokens;
  std::vector<IncludeRef> includes;
  std::set<std::string> own_unordered;
  bool io_error = false;
};

// ---------------------------------------------------------------------------
// The analyzer: one instance per file, with the include-graph-derived
// unordered-symbol table passed in.
// ---------------------------------------------------------------------------

class FileAnalyzer {
 public:
  FileAnalyzer(const FileData& file, const std::set<std::string>& unordered,
               std::vector<Finding>* findings)
      : f_(file), unordered_(unordered), findings_(findings) {}

  void Run() {
    TokenRules();
    DirectiveRules();
    NamespaceScopeRules();
    if (fs::path(f_.rel).extension() == ".h") HeaderGuardRule();
  }

 private:
  void Report(size_t line_no, const std::string& rule,
              const std::string& msg) {
    if (line_no >= 1 && line_no <= f_.lines.size() &&
        IsSuppressed(f_.lines[line_no - 1], rule)) {
      return;
    }
    findings_->push_back({f_.rel, line_no, rule, msg});
  }

  bool TokIs(size_t i, const char* text) const {
    return i < f_.tokens.size() && f_.tokens[i].text == text;
  }

  // Index one past a balanced (...) group starting at toks[open] == "(".
  size_t SkipParens(size_t open) const {
    int depth = 0;
    size_t i = open;
    while (i < f_.tokens.size()) {
      const std::string& t = f_.tokens[i].text;
      if (t == "(") ++depth;
      else if (t == ")" && --depth == 0) return i + 1;
      ++i;
    }
    return i;
  }

  // Index one past a balanced {...} group starting at toks[open] == "{".
  size_t SkipBraces(size_t open) const {
    int depth = 0;
    size_t i = open;
    while (i < f_.tokens.size()) {
      const std::string& t = f_.tokens[i].text;
      if (t == "{") ++depth;
      else if (t == "}" && --depth == 0) return i + 1;
      ++i;
    }
    return i;
  }

  // Single linear scan for every rule that is a (file-scoped) token or
  // token-sequence property.
  void TokenRules() {
    const std::vector<Token>& toks = f_.tokens;
    static const std::set<std::string> kThrowTokens = {"throw", "try", "catch"};
    static const std::set<std::string> kRandomTokens = {
        "rand", "srand", "rand_r", "drand48", "random_device", "mt19937"};
    static const std::set<std::string> kStdoutTokens = {"cout", "printf"};
    static const std::set<std::string> kClockTokens = {
        "steady_clock", "system_clock", "high_resolution_clock"};
    static const std::set<std::string> kMmapTokens = {"mmap", "munmap",
                                                      "mremap", "msync"};

    bool in_directive = false;
    size_t directive_line = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      // Skip preprocessor directives (DirectiveRules owns them); a guard
      // like `#ifndef ZOMBIE_..._H_` must not be parsed as code.
      if (t.kind == Token::kPunct && t.text == "#" && t.first_on_line) {
        in_directive = true;
        directive_line = t.line;
        continue;
      }
      if (in_directive) {
        if (t.line == directive_line) continue;
        in_directive = false;
      }
      if (t.kind != Token::kIdent) continue;
      const std::string& id = t.text;

      if (kThrowTokens.count(id) != 0) {
        Report(t.line, "no-throw",
               "'" + id +
                   "' in library code; return a Status instead "
                   "(src/util/status.h contract)");
      }
      if (!IsRandomImplFile(f_.rel) && kRandomTokens.count(id) != 0) {
        Report(t.line, "no-raw-random",
               "'" + id +
                   "' breaks the determinism contract; use zombie::Rng "
                   "(src/util/random.h)");
      }
      if (kStdoutTokens.count(id) != 0) {
        Report(t.line, "no-stdout",
               "'" + id + "' in library code; use ZLOG (src/util/logging.h)");
      }
      if (!IsClockImplFile(f_.rel) && kClockTokens.count(id) != 0 &&
          TokIs(i + 1, "::") && TokIs(i + 2, "now")) {
        Report(toks[i + 2].line, "no-raw-clock",
               "'" + id +
                   "::now' outside util/clock; use Stopwatch or "
                   "VirtualClock (src/util/clock.h) so timing stays "
                   "centralized and mockable");
      }
      if (IsHotPathFile(f_.rel) && id == "std" && TokIs(i + 1, "::") &&
          TokIs(i + 2, "vector") && TokIs(i + 3, "<") && TokIs(i + 4, "std") &&
          TokIs(i + 5, "::") && TokIs(i + 6, "string") && TokIs(i + 7, ">")) {
        Report(t.line, "no-hot-path-string-copy",
               "std::vector<std::string> allocates per token on the hot "
               "path; use TokenBuffer + string_view spans "
               "(src/text/tokenizer.h)");
      }
      if (IsRawMmapBannedFile(f_.rel) && kMmapTokens.count(id) != 0 &&
          TokIs(i + 1, "(")) {
        Report(t.line, "no-raw-mmap",
               "'" + id +
                   "' outside src/util/; map files through MmapFile "
                   "(src/util/mmap_file.h) so growth, remap invalidation, "
                   "and error handling stay in one audited place");
      }
      if (IsRawIntrinsicsBannedFile(f_.rel) && IsIntrinsicIdent(id)) {
        Report(t.line, "no-raw-intrinsics",
               "'" + id +
                   "' outside src/ml/simd/; vendor intrinsics belong in the "
                   "dispatch kernels, where the cpuid gate and the FP-order "
                   "contract are enforced (src/ml/simd/sparse_kernels.h)");
      }
      if (IsRawExtractBannedFile(f_.rel) && id == "Extract" && i > 0 &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          TokIs(i + 1, "(")) {
        Report(t.line, "no-raw-extract-outside-service",
               "direct FeaturePipeline::Extract call outside "
               "src/featureeng/; route extraction through "
               "ExtractionService::Featurize "
               "(src/featureeng/extraction_service.h)");
      }

      // --- no-detached-thread ---
      if (id == "std" && TokIs(i + 1, "::") &&
          (TokIs(i + 2, "thread") || TokIs(i + 2, "jthread")) &&
          !TokIs(i + 3, "::")) {
        // std::thread::id / std::thread::hardware_concurrency are type-level
        // uses, not thread construction, and stay allowed.
        if (!IsThreadPoolFile(f_.rel)) {
          Report(toks[i + 2].line, "no-detached-thread",
                 "raw std::" + toks[i + 2].text +
                     " outside src/util/thread_pool; run work on the shared "
                     "ThreadPool so shutdown joins it and "
                     "determinism-by-index holds (src/util/thread_pool.h)");
        }
      }
      if (id == "detach" && i > 0 &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          TokIs(i + 1, "(")) {
        Report(t.line, "no-detached-thread",
               ".detach() abandons the thread past every join/shutdown "
               "invariant; keep ownership and join (ThreadPool does this "
               "for you)");
      }

      // --- no-nondet-float: reordering reductions ---
      if (!IsNondetFloatAllowlistedFile(f_.rel) && id == "std" &&
          TokIs(i + 1, "::") &&
          (TokIs(i + 2, "reduce") || TokIs(i + 2, "transform_reduce") ||
           TokIs(i + 2, "execution"))) {
        Report(toks[i + 2].line, "no-nondet-float",
               "std::" + toks[i + 2].text +
                   " may reorder floating-point accumulation; the FP-order "
                   "contract (src/ml/sparse_vector.h) requires sequential "
                   "left-to-right reduction");
      }

      // --- no-unordered-iteration ---
      if (IsUnorderedIterationBannedFile(f_.rel)) {
        if (id == "for" && TokIs(i + 1, "(")) {
          CheckRangeFor(i);
        }
        if ((id == "begin" || id == "cbegin") && i >= 2 &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
            TokIs(i + 1, "(") && toks[i - 2].kind == Token::kIdent &&
            unordered_.count(toks[i - 2].text) != 0) {
          Report(t.line, "no-unordered-iteration",
                 "iterator over unordered container '" + toks[i - 2].text +
                     "'; iteration order is hash-seed-dependent and breaks "
                     "byte-identical results — copy keys and sort, or use an "
                     "ordered container");
        }
      }
    }
  }

  // `for (` at toks[for_idx]: flag when it is a range-for whose range
  // expression names an unordered container (by declared-symbol table or by
  // literal type).
  void CheckRangeFor(size_t for_idx) {
    const std::vector<Token>& toks = f_.tokens;
    size_t open = for_idx + 1;
    size_t close = SkipParens(open);  // one past ')'
    int depth = 0;
    size_t colon = 0;
    for (size_t i = open; i < close; ++i) {
      const std::string& t = toks[i].text;
      if (t == "(") ++depth;
      else if (t == ")") --depth;
      else if (t == ";" && depth == 1) return;  // classic for
      else if (t == ":" && depth == 1 && colon == 0) colon = i;
    }
    if (colon == 0) return;
    for (size_t i = colon + 1; i + 1 < close; ++i) {
      if (toks[i].kind != Token::kIdent) continue;
      bool literal_type = IsUnorderedContainerName(toks[i].text);
      bool known_symbol = unordered_.count(toks[i].text) != 0;
      if (literal_type || known_symbol) {
        Report(toks[for_idx].line, "no-unordered-iteration",
               "range-for over unordered container '" + toks[i].text +
                   "'; iteration order is hash-seed-dependent and breaks "
                   "byte-identical results — copy keys and sort, or use an "
                   "ordered container");
        return;
      }
    }
  }

  // Preprocessor-level no-nondet-float: fast-math-style pragmas and
  // #include <execution>.
  void DirectiveRules() {
    const std::vector<Token>& toks = f_.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (!(toks[i].kind == Token::kPunct && toks[i].text == "#" &&
            toks[i].first_on_line)) {
        continue;
      }
      size_t line = toks[i].line;
      std::vector<const Token*> rest;
      for (size_t j = i + 1; j < toks.size() && toks[j].line == line; ++j) {
        rest.push_back(&toks[j]);
      }
      if (rest.empty() || rest[0]->kind != Token::kIdent) continue;
      if (rest[0]->text != "pragma") continue;
      if (IsNondetFloatAllowlistedFile(f_.rel)) continue;
      std::set<std::string> ids;
      for (const Token* t : rest) {
        if (t->kind == Token::kIdent) ids.insert(t->text);
      }
      bool bad = false;
      if (ids.count("float_control") != 0) bad = true;
      if (ids.count("FP_CONTRACT") != 0 && ids.count("OFF") == 0) bad = true;
      if (ids.count("fp") != 0 && ids.count("contract") != 0 &&
          ids.count("off") == 0) {
        bad = true;
      }
      // #pragma GCC optimize("...") — the argument is a (blanked) string
      // literal, so ban the directive outright; per-function fast-math is
      // exactly what the FP-order contract forbids.
      if (ids.count("GCC") != 0 && ids.count("optimize") != 0) bad = true;
      if (ids.count("fast_math") != 0 || ids.count("ffast_math") != 0)
        bad = true;
      if (bad) {
        Report(line, "no-nondet-float",
               "pragma relaxes floating-point evaluation; the FP-order "
               "contract (src/ml/sparse_vector.h) requires strict IEEE "
               "left-to-right evaluation");
      }
    }
    if (!IsNondetFloatAllowlistedFile(f_.rel)) {
      for (const IncludeRef& inc : f_.includes) {
        if (inc.angled && inc.path == "execution") {
          Report(inc.line, "no-nondet-float",
                 "#include <execution> enables parallel/reordering "
                 "algorithm overloads; sequential overloads are the only "
                 "ones compatible with byte-identical results");
        }
      }
    }
    if (IsRawIntrinsicsBannedFile(f_.rel)) {
      // Catches <immintrin.h>, <x86intrin.h>, the per-ISA <*mmintrin.h>
      // family, and MSVC's <intrin.h> in one suffix test.
      static const std::string kSuffix = "intrin.h";
      for (const IncludeRef& inc : f_.includes) {
        if (inc.path.size() >= kSuffix.size() &&
            inc.path.compare(inc.path.size() - kSuffix.size(),
                             kSuffix.size(), kSuffix) == 0) {
          Report(inc.line, "no-raw-intrinsics",
                 "#include of '" + inc.path +
                     "' outside src/ml/simd/; vendor intrinsics belong in "
                     "the dispatch kernels (src/ml/simd/)");
        }
      }
    }
  }

  // no-mutable-global: a small scope machine that only distinguishes
  // "namespace scope" from "everything else". Class/enum/function bodies
  // are skipped wholesale (class members and locals are out of scope for
  // the rule; function-local statics — Meyer's singletons — are therefore
  // naturally exempt), and namespace braces nest.
  void NamespaceScopeRules() {
    const std::vector<Token>& toks = f_.tokens;
    std::vector<const Token*> stmt;
    int paren = 0;
    size_t namespace_depth = 0;
    bool in_directive = false;
    size_t directive_line = 0;
    size_t i = 0;
    while (i < toks.size()) {
      const Token& t = toks[i];
      if (t.kind == Token::kPunct && t.text == "#" && t.first_on_line) {
        in_directive = true;
        directive_line = t.line;
        ++i;
        continue;
      }
      if (in_directive) {
        if (t.line == directive_line) {
          ++i;
          continue;
        }
        in_directive = false;
      }
      if (t.text == "(") {
        ++paren;
        stmt.push_back(&t);
        ++i;
      } else if (t.text == ")") {
        if (paren > 0) --paren;
        stmt.push_back(&t);
        ++i;
      } else if (t.text == "{") {
        if (StmtHasIdent(stmt, "namespace")) {
          ++namespace_depth;
          stmt.clear();
          ++i;
        } else if (paren > 0 || StmtLooksLikeInitializer(stmt)) {
          // Braced initializer (`std::atomic<int> g{0};`, `= {...}`,
          // `f({...})`, member-init `b_{2}`): consume it and keep the
          // surrounding declaration for the ';' analysis.
          i = SkipBraces(i);
        } else {
          // Class / enum / function body (or a block): nothing at
          // namespace scope lives inside, so skip it wholesale.
          i = SkipBraces(i);
          stmt.clear();
        }
      } else if (t.text == "}") {
        // Bodies are skipped balanced above, so a '}' seen here closes a
        // namespace.
        if (namespace_depth > 0) --namespace_depth;
        stmt.clear();
        ++i;
      } else if (t.text == ";" && paren == 0) {
        AnalyzeNamespaceStatement(stmt);
        stmt.clear();
        ++i;
      } else {
        stmt.push_back(&t);
        ++i;
      }
    }
  }

  static bool StmtHasIdent(const std::vector<const Token*>& stmt,
                           const char* ident) {
    for (const Token* t : stmt) {
      if (t->kind == Token::kIdent && t->text == ident) return true;
    }
    return false;
  }

  // Heuristic for a '{' (at paren depth 0) that begins a braced initializer
  // rather than a body: the declaration so far has a top-level '=' (`auto
  // g = [...]...{`, `int x[] = {`) or no top-level parenthesis group at all
  // (`std::atomic<int> g{`, `Foo g_instance{`). Function definitions always
  // carry a parameter list, so they fall through to the skip-body branch.
  static bool StmtLooksLikeInitializer(const std::vector<const Token*>& stmt) {
    if (stmt.empty()) return false;
    if (StmtHasIdent(stmt, "class") || StmtHasIdent(stmt, "struct") ||
        StmtHasIdent(stmt, "union") || StmtHasIdent(stmt, "enum")) {
      return false;
    }
    bool has_paren = false;
    int depth = 0;
    for (const Token* t : stmt) {
      if (t->text == "(") {
        if (depth == 0) has_paren = true;
        ++depth;
      } else if (t->text == ")") {
        if (depth > 0) --depth;
      } else if (t->text == "=" && depth == 0) {
        return true;
      }
    }
    return !has_paren;
  }

  void AnalyzeNamespaceStatement(const std::vector<const Token*>& stmt) {
    if (stmt.size() < 2) return;
    // Declarations that are not variable definitions, or that introduce
    // their own scoping/linkage semantics, are out of scope for the rule.
    static const std::set<std::string> kSkipKeywords = {
        "using",    "typedef",  "extern",        "friend",
        "template", "concept",  "static_assert", "operator",
        "class",    "struct",   "enum",          "union",
        "namespace", "requires", "asm",          "goto",
    };
    size_t first_paren = stmt.size();
    size_t first_eq = stmt.size();
    int depth = 0;
    for (size_t i = 0; i < stmt.size(); ++i) {
      const Token* t = stmt[i];
      if (t->kind == Token::kIdent && kSkipKeywords.count(t->text) != 0)
        return;
      if (t->text == "(" || t->text == "[") {
        if (depth == 0 && t->text == "(" && first_paren == stmt.size())
          first_paren = i;
        ++depth;
      } else if (t->text == ")" || t->text == "]") {
        if (depth > 0) --depth;
      } else if (t->text == "=" && depth == 0 && first_eq == stmt.size()) {
        first_eq = i;
      }
    }
    // A top-level '(' before any '=' marks a function declaration (or a
    // most-vexing-parse construct, which deserves the rewrite anyway).
    if (first_paren < first_eq) return;
    if (StmtHasIdent(stmt, "const") || StmtHasIdent(stmt, "constexpr") ||
        StmtHasIdent(stmt, "constinit")) {
      return;
    }
    // Declared name: last identifier before the initializer (or before the
    // terminating ';' when there is none).
    size_t limit = first_eq;
    const Token* name = nullptr;
    for (size_t i = 0; i < limit; ++i) {
      if (stmt[i]->kind == Token::kIdent) name = stmt[i];
    }
    if (name == nullptr) return;
    Report(name->line, "no-mutable-global",
           "'" + name->text +
               "' is a mutable namespace-scope variable; hidden process "
               "state breaks run-to-run reproducibility — make it "
               "const/constexpr or hand it to a function-local static "
               "accessor");
  }

  void HeaderGuardRule() {
    std::string expected = ExpectedGuard(fs::path(f_.rel));
    std::string actual;
    size_t guard_line = 0;
    for (size_t i = 0; i < f_.lines.size(); ++i) {
      const std::string& code = f_.lines[i].code;
      size_t pos = code.find("#ifndef");
      if (pos != std::string::npos) {
        size_t start = pos + 7;
        while (start < code.size() &&
               std::isspace(static_cast<unsigned char>(code[start]))) {
          ++start;
        }
        size_t end = start;
        while (end < code.size() && IsIdentChar(code[end])) ++end;
        actual = code.substr(start, end - start);
        guard_line = i + 1;
        break;
      }
    }
    if (actual.empty()) {
      Report(1, "header-guard", "missing #ifndef include guard");
    } else if (actual != expected) {
      Report(guard_line, "header-guard",
             "include guard '" + actual + "' should be '" + expected + "'");
    }
  }

  const FileData& f_;
  const std::set<std::string>& unordered_;
  std::vector<Finding>* findings_;
};

bool IsSourceFile(const fs::path& p) {
  auto ext = p.extension();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

// Resolves a quoted project include against the scanned file set: exact
// relative path, or unique-enough suffix match ("featureeng/feature_cache.h"
// resolves to "src/featureeng/feature_cache.h").
const FileData* ResolveInclude(const std::string& inc,
                               const std::vector<FileData>& files) {
  for (const FileData& f : files) {
    if (f.rel == inc) return &f;
    if (f.rel.size() > inc.size() + 1 &&
        f.rel.compare(f.rel.size() - inc.size(), inc.size(), inc) == 0 &&
        f.rel[f.rel.size() - inc.size() - 1] == '/') {
      return &f;
    }
  }
  return nullptr;
}

// Union of a file's own unordered-typed declarations and those of every
// transitively included project header, so `for (auto& kv : map_)` in a .cc
// is caught when `map_` is declared unordered in the header.
void TransitiveUnordered(const FileData* file,
                         const std::vector<FileData>& files,
                         std::set<const FileData*>* visited,
                         std::set<std::string>* out) {
  if (!visited->insert(file).second) return;
  out->insert(file->own_unordered.begin(), file->own_unordered.end());
  for (const IncludeRef& inc : file->includes) {
    if (inc.angled) continue;
    const FileData* dep = ResolveInclude(inc.path, files);
    if (dep != nullptr) TransitiveUnordered(dep, files, visited, out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: zombie_lint <root-dir>...\n");
    return 2;
  }
  std::vector<Finding> findings;
  std::vector<FileData> files;
  for (int a = 1; a < argc; ++a) {
    fs::path root(argv[a]);
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
      std::fprintf(stderr, "zombie_lint: not a directory: %s\n", argv[a]);
      return 2;
    }
    // Findings are reported relative to the root's parent so the expected
    // header guard can be derived ("src/util/status.h", "bench/foo.h").
    fs::path base = root.has_parent_path() ? root.parent_path() : fs::path(".");
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      paths.push_back(entry.path());
    }
    // Directory iteration order is filesystem-dependent; sort so output is
    // reproducible (this linter enforces determinism — it should practice
    // it).
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
      FileData fd;
      fd.abs = p;
      fd.rel = fs::relative(p, base).generic_string();
      std::ifstream in(p, std::ios::binary);
      if (!in) {
        fd.io_error = true;
        files.push_back(std::move(fd));
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      std::string text = buf.str();
      fd.lines = SplitCodeAndComments(text);
      fd.tokens = Tokenize(fd.lines);
      fd.includes = ExtractIncludes(text);
      CollectUnorderedNames(fd.tokens, &fd.own_unordered);
      files.push_back(std::move(fd));
    }
  }
  for (const FileData& fd : files) {
    if (fd.io_error) {
      findings.push_back({fd.rel, 0, "io", "cannot read file"});
      continue;
    }
    std::set<std::string> unordered;
    std::set<const FileData*> visited;
    TransitiveUnordered(&fd, files, &visited, &unordered);
    FileAnalyzer(fd, unordered, &findings).Run();
  }
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (findings.empty()) {
    std::printf("zombie_lint: %zu files clean\n", files.size());
    return 0;
  }
  std::fprintf(stderr, "zombie_lint: %zu finding(s) in %zu files\n",
               findings.size(), files.size());
  return 1;
}
