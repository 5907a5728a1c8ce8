// ScaleLint — repo-specific determinism, invariant & shard-readiness linter.
//
// The simulator's whole evidentiary value rests on same-seed runs replaying
// byte-identically (DESIGN.md §6). The classic regressions — emitting events
// from an unordered_map walk, reading the wall clock, seeding an RNG from
// entropy — compile fine, pass most tests, and silently break replay. This
// tool makes them build failures instead of review findings. It also audits
// hidden process-global mutable state and cross-layer include back-edges —
// what breaks determinism once independent worlds share a process — and
// public API that nothing calls.
//
// It is deliberately a *lexer*, not a compiler plugin: comments and string
// literals are blanked (preserving line/column structure) and the rules match
// token patterns in what remains. That keeps it dependency-free, fast enough
// to run on every tier-1 invocation, and honest about what it can see — the
// rules are scoped (by path and by declared-name tracking) so the lexical
// approximation stays on the zero-false-positive side.
//
// Since the shard-readiness rules need *project* knowledge (include edges,
// the global-state inventory), the tool runs two passes:
//   pass 1  index every file: quoted #include edges, plus — in the
//           shard-audited dirs — every symbol declared at namespace scope or
//           with static/thread_local storage, every `// lint:` waiver, and
//           the identifiers each file names (L9's reach index, which also
//           takes in wholerun/src/ without linting it).
//   pass 2  enforce the rules below against the per-file lex *and* the
//           project-wide index (L7 walks the include graph, L9 looks names
//           up in the reach index).
//
// Rules (see DESIGN.md §6 for the contract):
//   L1  nondeterminism sources: std::rand/srand, wall-clock reads (time(),
//       gettimeofday, chrono system/steady/high_resolution clocks) outside
//       src/common/time.h, std::random_device, default-seeded std::mt19937.
//   L2  table-order iteration in the determinism-critical dirs (src/sim,
//       src/core, src/epc, src/mme, src/obs): range-for / .begin() over a
//       std::unordered_{map,set}, .for_each() over an epc::FlatMap, and
//       any .for_each_entry() walk of a FlatIndex — unless the line (or the
//       line above) carries `// lint: order-independent`.
//   L3  every decode*/parse*/try_* declaration in src/proto and
//       src/epc/reliable.* must be [[nodiscard]] — dropped decode results
//       are how truncated-PDU bugs hide.
//   L4  no naked `new`/`delete` (`= delete` plus `operator new`/`operator
//       delete` overloads are fine), and every task-marker comment carries
//       an owner tag: TODO(name).
//   L5  no by-value `std::function` parameters in the hot-path dirs
//       (src/sim, src/core, src/epc, src/mme): every call copies — and
//       usually heap-allocates — the callable. Take `const&`, `&&`, or a
//       template. Named parameters only (the declarator grammar is
//       ambiguous with template-argument lists otherwise); waive with
//       `// lint: by-value-ok` on the line or the line above.
//   L6  shared-mutable-state audit (src/sim, src/core, src/epc, src/mme,
//       src/proto, src/obs): every namespace-scope variable and every
//       static/thread_local variable (class-static members and
//       function-local statics included) that is not const/constexpr must
//       carry `// lint: shard-local` (confined to one shard/worker thread)
//       or `// lint: shard-shared(<reason>)` (deliberately process-global)
//       on its line or the line above. Unannotated globals are exactly the
//       state two worlds on two threads would silently share.
//   L7  layering DAG over src/ quoted includes. Declared order (a layer may
//       include itself and anything of strictly lower rank):
//           common < hash < proto < obs < sim < epc < mme < core
//                  < {workload, testbed, analysis}
//       The top tier are peers and may not include each other. Note the
//       declared order follows the tree's real topology — obs is the
//       substrate everything instruments against (sim includes obs, never
//       the reverse) and core's MmpNode derives from mme::ClusterVm, so mme
//       sits below core. Any edge violating the order fails.
//   L9  reach: every public member function, public data member and free
//       function a src/**/*.h declares must be named by a file other than
//       its own .h/.cpp — any scanned file (tests included) or
//       wholerun/src/. A name in a #define body and a member listed in its
//       struct's kFields count as named. Waive with
//       `// lint: unreached(<reason>)` on the declaration or in the comment
//       block directly above it. (There is no L8.)
//
// `--json FILE` additionally writes a deterministic "scale-lint-v1" report
// (findings, waiver inventory, index counts) via obs::Json; tier-1 diffs it
// against the committed LINT_baseline.json (bench_json_check --compare-lint)
// so *new* findings and *new* waivers fail the gate, not just nonzero exits.
//
// Exit status: 0 when clean, 1 when any finding, 2 on usage/IO errors.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace fs = std::filesystem;

namespace {

/// Every rule the report counts (L8 was never assigned).
constexpr const char* kRules[] = {"L1", "L2", "L3", "L4", "L5",
                                  "L6", "L7", "L9"};

struct Finding {
  std::string file;  // root-relative path
  std::size_t line = 0;
  std::string rule;  // one of kRules
  std::string message;
};

// ------------------------------------------------------------------ lexing

/// A source file reduced to what the rules may look at: `code` is the
/// original text with comments and string/char literals blanked to spaces
/// (newlines kept, so offsets and line numbers survive), `comments` holds
/// the stripped comment text per line for the owner-tag/annotation rules.
struct LexedFile {
  std::string code;
  std::map<std::size_t, std::string> comments;  // line -> concatenated text
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Blank comments and literals. Handles //, /* */, "...", '...', and C++14
/// digit separators (the `'` in 1'000'000 is not a char literal). Raw
/// strings get best-effort handling of the common R"( )" form.
LexedFile lex(const std::string& text) {
  LexedFile out;
  out.code.reserve(text.size());
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto emit = [&](char c) { out.code.push_back(c); };
  auto blank = [&](char c) { out.code.push_back(c == '\n' ? '\n' : ' '); };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      emit(c);
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::string body;
      while (i < n && text[i] != '\n') {
        body.push_back(text[i]);
        blank(text[i]);
        ++i;
      }
      out.comments[line] += body;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      std::string body;
      blank(text[i]);
      blank(text[i + 1]);
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          out.comments[line] += body;
          body.clear();
          ++line;
        } else {
          body.push_back(text[i]);
        }
        blank(text[i]);
        ++i;
      }
      out.comments[line] += body;
      if (i + 1 < n) {
        blank(text[i]);
        blank(text[i + 1]);
        i += 2;
      } else {
        i = n;
      }
      continue;
    }
    if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
        (i == 0 || !ident_char(text[i - 1]))) {
      // Raw string: R"delim( ... )delim"
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && text[p] != '(') delim.push_back(text[p++]);
      const std::string close = ")" + delim + "\"";
      emit('R');
      blank('"');
      for (std::size_t k = i + 2; k < p && k < n; ++k) blank(text[k]);
      i = p;
      while (i < n && text.compare(i, close.size(), close) != 0) {
        if (text[i] == '\n') ++line;
        blank(text[i]);
        ++i;
      }
      for (std::size_t k = 0; k < close.size() && i < n; ++k, ++i)
        blank(text[i]);
      continue;
    }
    if (c == '"') {
      emit('"');
      ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < n) {
          blank(text[i]);
          blank(text[i + 1]);
          i += 2;
          continue;
        }
        if (text[i] == '\n') ++line;  // unterminated; keep line count sane
        blank(text[i]);
        ++i;
      }
      if (i < n) {
        emit('"');
        ++i;
      }
      continue;
    }
    if (c == '\'') {
      // Digit separator (1'000'000) or char literal?
      if (i > 0 && ident_char(text[i - 1]) &&
          i + 1 < n && ident_char(text[i + 1])) {
        emit('\'');
        ++i;
        continue;
      }
      emit('\'');
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\' && i + 1 < n) {
          blank(text[i]);
          blank(text[i + 1]);
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;  // stray quote; bail
        blank(text[i]);
        ++i;
      }
      if (i < n && text[i] == '\'') {
        emit('\'');
        ++i;
      }
      continue;
    }
    emit(c);
    ++i;
  }
  return out;
}

std::size_t line_of(const std::string& code, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(code.begin(), code.begin() +
                            static_cast<std::ptrdiff_t>(offset), '\n'));
}

bool comment_has(const LexedFile& f, std::size_t line, const char* needle) {
  const auto it = f.comments.find(line);
  return it != f.comments.end() && it->second.find(needle) != std::string::npos;
}

/// `marker` (`lint: order-independent` for L2, `lint: by-value-ok` for L5)
/// on the flagged line or the line above.
bool annotated(const LexedFile& f, std::size_t line, const char* marker) {
  return comment_has(f, line, marker) ||
         (line > 1 && comment_has(f, line - 1, marker));
}

// ------------------------------------------------------------- path scoping

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_l5_scope(const std::string& rel) {
  return starts_with(rel, "src/sim/") || starts_with(rel, "src/core/") ||
         starts_with(rel, "src/epc/") || starts_with(rel, "src/mme/");
}

bool in_l2_scope(const std::string& rel) {
  return in_l5_scope(rel) || starts_with(rel, "src/obs/");
}

bool in_l3_scope(const std::string& rel) {
  return starts_with(rel, "src/proto/") ||
         starts_with(rel, "src/epc/reliable.");
}

/// Shard-audited dirs for rule L6: everything a world's event loop touches
/// on its hot path. common/ is deliberately out (logging/time bridging are
/// sanctioned process singletons); workload/testbed/analysis run pre/post
/// simulation on the driver thread.
bool in_l6_scope(const std::string& rel) {
  return in_l2_scope(rel) || starts_with(rel, "src/proto/");
}

bool l1_exempt(const std::string& rel) {
  // The simulation clock wrapper is the one sanctioned home for any future
  // real-clock bridging; everything else must go through it.
  return rel == "src/common/time.h";
}

/// Layer ranks for rule L7. A file in src/<layer>/ may include its own layer
/// and any layer of strictly lower rank; the rank-8 peers may not include
/// each other. This is the declared DAG of DESIGN.md §6.
const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> ranks = {
      {"common", 0}, {"hash", 1},     {"proto", 2},   {"obs", 3},
      {"sim", 4},    {"epc", 5},      {"mme", 6},     {"core", 7},
      {"workload", 8}, {"testbed", 8}, {"analysis", 8},
  };
  return ranks;
}

/// Layer of a root-relative path, or "" when the file is outside src/<layer>/.
std::string layer_of(const std::string& rel) {
  if (!starts_with(rel, "src/")) return "";
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  const std::string dir = rel.substr(4, slash - 4);
  return layer_ranks().count(dir) != 0 ? dir : "";
}

// --------------------------------------------------- pass 1: the file index

/// One `// lint:` waiver comment, inventoried for the scale-lint-v1 report.
struct Waiver {
  std::string file;
  std::size_t line = 0;
  // order-independent | by-value-ok | shard-local | shard-shared | unreached
  std::string kind;
  std::string reason;  // shard-shared parenthetical / trailing rationale text
};

/// A mutable global surfaced by the L6 indexer.
struct GlobalDecl {
  std::string name;
  std::size_t line = 0;       // line of the declarator name
  std::size_t first_line = 0; // line the declaration starts on
  std::string scope;          // "namespace" | "class-static" | "function-static"
  bool is_thread_local = false;
  std::string waiver;  // "" | "shard-local" | "shard-shared" | "shard-shared-empty"
};

struct IncludeRef {
  std::string target;  // the quoted path as written, e.g. "epc/fabric.h"
  std::size_t line = 0;
};

struct FileIndex {
  std::string rel;
  LexedFile lexed;
  std::vector<IncludeRef> includes;
  std::vector<GlobalDecl> globals;   // L6-scope files only
  std::vector<Waiver> waivers;
};

/// Quoted includes, extracted from the *raw* text (the lexer blanks string
/// literals, and an include path is lexically a string literal).
std::vector<IncludeRef> extract_includes(const std::string& raw) {
  std::vector<IncludeRef> out;
  static const std::regex inc_re(
      R"re(^[ \t]*#[ \t]*include[ \t]*"([^"]+)")re");
  std::size_t line = 1;
  std::size_t pos = 0;
  while (pos <= raw.size()) {
    const std::size_t eol = raw.find('\n', pos);
    const std::string text =
        raw.substr(pos, (eol == std::string::npos ? raw.size() : eol) - pos);
    std::smatch m;
    if (std::regex_search(text, m, inc_re)) out.push_back({m[1].str(), line});
    if (eol == std::string::npos) break;
    pos = eol + 1;
    ++line;
  }
  return out;
}

/// Scan a file's comments for `lint:` waivers (all five kinds). The marker
/// must *lead* the comment — a comment merely mentioning a waiver (rule
/// documentation, finding-message text) is not one.
std::vector<Waiver> extract_waivers(const std::string& rel,
                                    const LexedFile& f) {
  std::vector<Waiver> out;
  static const std::regex w_re(
      R"(^[\s/*!<]*lint:\s*(order-independent|by-value-ok|shard-local|shard-shared|unreached))");
  for (const auto& [line, text] : f.comments) {
    std::smatch m;
    if (std::regex_search(text, m, w_re)) {
      Waiver w;
      w.file = rel;
      w.line = line;
      w.kind = m[1].str();
      std::string rest =
          text.substr(static_cast<std::size_t>(m.position() + m.length()));
      if (w.kind == "shard-shared" || w.kind == "unreached") {
        const std::size_t open = rest.find('(');
        const std::size_t close = rest.find(')', open + 1);
        if (open != std::string::npos && close != std::string::npos)
          rest = rest.substr(open + 1, close - open - 1);
        else
          rest.clear();
      } else {
        // Trailing rationale after the kind keyword; strip separators.
        const std::size_t at = rest.find_first_not_of(" \t-:,.)(\xE2\x80\x94");
        rest = at == std::string::npos ? std::string() : rest.substr(at);
      }
      while (!rest.empty() && (rest.back() == ' ' || rest.back() == '\t'))
        rest.pop_back();
      w.reason = rest;
      out.push_back(std::move(w));
    }
  }
  return out;
}

// -------------------------------------------- L6 scope walk & decl parsing

enum class Scope : std::uint8_t { kNamespace, kClass, kFunction, kInit };

/// Keywords that disqualify a segment from being a variable declaration.
bool decl_blocklisted(const std::string& tok) {
  static const std::set<std::string> kBlock = {
      "class", "struct", "union", "enum", "using", "typedef", "template",
      "extern", "friend", "operator", "namespace", "static_assert", "return",
      "concept", "requires", "goto", "if", "else", "for", "while", "do",
      "switch", "throw", "try", "catch", "co_return", "co_await", "co_yield",
      "asm", "case", "default", "new", "delete",
      "sizeof", "decltype", "noexcept", "typename"};
  return kBlock.count(tok) != 0;
}

/// Builtin type keywords that can carry a declaration on their own
/// (`int g = 0;` has no other type token for the viability check to count).
bool builtin_type(const std::string& tok) {
  static const std::set<std::string> kCore = {
      "auto", "void", "bool", "char", "int", "float", "double", "short",
      "long", "signed", "unsigned", "wchar_t", "char8_t", "char16_t",
      "char32_t"};
  return kCore.count(tok) != 0;
}

/// Builtin type / specifier words that cannot themselves be a declarator.
bool type_word(const std::string& tok) {
  static const std::set<std::string> kSpecifiers = {
      "inline", "static", "thread_local", "mutable", "volatile", "register",
      "constexpr", "constinit", "const", "alignas"};
  return builtin_type(tok) || kSpecifiers.count(tok) != 0;
}

struct DeclHead {
  bool viable = false;
  bool is_function = false;  // `name(`: a function declarator (rule L9)
  bool has_static = false;
  bool has_thread_local = false;
  bool has_const = false;
  std::string name;
  std::size_t name_off = 0;  // offset into the file's code
};

/// Parse a statement head (text before `;`, `=` or a brace initializer) as a
/// possible variable declaration. `base` is the offset of seg[0] in the
/// file's code. Preprocessor lines are skipped; `[[...]]` attribute blocks,
/// `<...>` template argument lists and trailing array extents are elided.
/// Returns viable=false for anything that is not a plain named variable or
/// function (is_function) — class heads, qualified out-of-class
/// definitions, and every blocklisted construct. The approximation errs
/// toward false *negatives*.
DeclHead parse_decl_head(const std::string& code, std::size_t base,
                         std::size_t len) {
  DeclHead d;
  std::vector<std::pair<std::string, std::size_t>> idents;
  bool saw_builtin = false;
  bool prev_was_colon_pair = false;
  std::size_t i = base;
  const std::size_t end = base + len;
  while (i < end) {
    const char c = code[i];
    if (c == '#') {  // preprocessor directive: skip the rest of the line
      while (i < end && code[i] != '\n') ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '[' && i + 1 < end && code[i + 1] == '[') {
      int depth = 0;  // attribute block [[...]]
      while (i < end) {
        if (code[i] == '[') ++depth;
        if (code[i] == ']') --depth;
        ++i;
        if (depth == 0) break;
      }
      continue;
    }
    if (c == '<') {  // template argument list; depth-matched
      int depth = 0;
      while (i < end) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>') --depth;
        ++i;
        if (depth == 0) break;
      }
      continue;
    }
    if (c == '=') break;   // initializer: declarator complete
    if (c == ',') break;   // first declarator only (int a, b; flags `a`)
    if (c == '(') {  // function (or ctor-style init): never a variable
      d.is_function = true;
      break;
    }
    if (ident_char(c)) {
      std::size_t s = i;
      while (i < end && ident_char(code[i])) ++i;
      std::string tok = code.substr(s, i - s);
      if (tok == "public" || tok == "private" || tok == "protected") {
        // Access specifier: its `:` does not end a statement segment, so
        // `private: static int x_;` arrives here as one run of text. Skip
        // the specifier and restart the declaration parse after the colon.
        while (i < end &&
               std::isspace(static_cast<unsigned char>(code[i])) != 0)
          ++i;
        if (i < end && code[i] == ':' &&
            !(i + 1 < end && code[i + 1] == ':')) {
          ++i;
          idents.clear();
          saw_builtin = false;
          d = DeclHead{};
          prev_was_colon_pair = false;
          continue;
        }
        return d;
      }
      if (decl_blocklisted(tok)) return d;
      if (tok == "static") d.has_static = true;
      if (tok == "thread_local") d.has_thread_local = true;
      if (tok == "const" || tok == "constexpr" || tok == "constinit")
        d.has_const = true;
      if (builtin_type(tok)) saw_builtin = true;
      if (!type_word(tok)) {
        // A declarator name directly preceded by :: is an out-of-class
        // definition of a member declared (and audited) elsewhere.
        if (prev_was_colon_pair && !idents.empty()) {
          idents.pop_back();
          idents.emplace_back(std::string(), s);  // poison: qualified
        } else {
          idents.emplace_back(std::move(tok), s);
        }
      }
      prev_was_colon_pair = false;
      continue;
    }
    if (c == ':' && i + 1 < end && code[i + 1] == ':') {
      prev_was_colon_pair = true;
      i += 2;
      continue;
    }
    if (c == '[') {  // array extent: skip
      int depth = 0;
      while (i < end) {
        if (code[i] == '[') ++depth;
        if (code[i] == ']') --depth;
        ++i;
        if (depth == 0) break;
      }
      continue;
    }
    if (c == '*' || c == '&') {
      prev_was_colon_pair = false;
      ++i;
      continue;
    }
    // Anything else (braces, semicolons should not appear; odd punctuation)
    // disqualifies the segment.
    return d;
  }
  if (idents.empty()) return d;
  // The declarator needs a type to its left: another identifier (UserType
  // name) or a builtin keyword (int name). A lone identifier is an
  // expression statement, not a declaration.
  if (idents.size() < 2 && !saw_builtin) return d;
  if (idents.back().first.empty()) return d;  // qualified declarator
  d.name = idents.back().first;
  d.name_off = idents.back().second;
  d.viable = true;
  return d;
}

/// A `// lint: <kind>` waiver for a declaration that may span lines: on
/// any line of the declaration itself or anywhere in the contiguous comment
/// block directly above it (rationales are encouraged to run long). Returns
/// "" when absent, else `kind` — suffixed "-empty" when `reasoned` and the
/// parenthesized reason is missing or empty.
std::string decl_waiver(const LexedFile& f, std::size_t first_line,
                        std::size_t name_line, const std::string& kind,
                        bool reasoned) {
  std::size_t lo = first_line;
  while (lo > 1 && f.comments.count(lo - 1) != 0) --lo;
  for (std::size_t ln = lo; ln <= name_line; ++ln) {
    const auto it = f.comments.find(ln);
    if (it == f.comments.end()) continue;
    const std::size_t at = it->second.find("lint: " + kind);
    if (at == std::string::npos) continue;
    if (!reasoned) return kind;
    const std::size_t open = it->second.find('(', at);
    const std::size_t close = it->second.find(')', open + 1);
    if (open == std::string::npos || close == std::string::npos ||
        close - open <= 1)
      return kind + "-empty";
    return kind;
  }
  return "";
}

/// Classify the scope a `{` opens, from the statement segment before it.
Scope classify_brace(const std::string& code, std::size_t seg_start,
                     std::size_t brace, Scope current) {
  bool saw_paren = false;
  bool saw_classkw = false;
  bool saw_namespace = false;
  bool last_tok_return = false;
  char last_nonspace = 0;
  std::size_t i = seg_start;
  while (i < brace) {
    const char c = code[i];
    if (c == '#') {
      while (i < brace && code[i] != '\n') ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (ident_char(c)) {
      std::size_t s = i;
      while (i < brace && ident_char(code[i])) ++i;
      const std::string tok = code.substr(s, i - s);
      if (tok == "namespace") saw_namespace = true;
      if (!saw_paren && (tok == "class" || tok == "struct" ||
                         tok == "union" || tok == "enum"))
        saw_classkw = true;
      last_tok_return = (tok == "return");
      last_nonspace = 'a';
      continue;
    }
    if (c == '(') saw_paren = true;
    last_nonspace = c;
    last_tok_return = false;
    ++i;
  }
  if (saw_namespace) return Scope::kNamespace;
  if (saw_classkw) return Scope::kClass;
  if (last_nonspace == '=' || last_nonspace == ',' || last_nonspace == '(' ||
      last_tok_return)
    return Scope::kInit;
  if (saw_paren) return Scope::kFunction;
  // A bare block: legal inside a function; at namespace/class scope the only
  // brace without markers is an initializer.
  return current == Scope::kFunction ? Scope::kFunction : Scope::kInit;
}

/// The scope walk L6 and L9 share: split `code` into statement segments at
/// `;`, `{` and `}`, tracking the scope each sits in. `on_segment(start, end,
/// cur, opened)` runs at every `;` (opened == cur) and at every `{` (opened
/// is the scope the brace opens, pushed after the call); `on_close()` runs
/// at every `}` that pops a scope.
template <typename OnSegment, typename OnClose>
void walk_scopes(const std::string& code, OnSegment&& on_segment,
                 OnClose&& on_close) {
  std::vector<Scope> stack = {Scope::kNamespace};
  std::size_t seg_start = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      const Scope k = classify_brace(code, seg_start, i, stack.back());
      on_segment(seg_start, i, stack.back(), k);
      stack.push_back(k);
      seg_start = i + 1;
    } else if (c == '}') {
      if (stack.size() > 1) {
        stack.pop_back();
        on_close();
      }
      seg_start = i + 1;
    } else if (c == ';') {
      on_segment(seg_start, i, stack.back(), stack.back());
      seg_start = i + 1;
    }
  }
}

/// Walk a file's scopes and surface every mutable global (rule L6): any
/// namespace-scope variable, plus any static/thread_local variable at class
/// or function scope. const/constexpr declarations are immutable and skipped.
std::vector<GlobalDecl> index_globals(const LexedFile& f) {
  std::vector<GlobalDecl> out;
  const std::string& code = f.code;

  auto analyze = [&](std::size_t seg_start, std::size_t seg_end, Scope cur) {
    if (cur == Scope::kInit) return;
    const DeclHead d = parse_decl_head(code, seg_start, seg_end - seg_start);
    if (!d.viable || d.has_const || d.is_function) return;
    const bool is_static = d.has_static || d.has_thread_local;
    if (cur != Scope::kNamespace && !is_static) return;
    GlobalDecl g;
    g.name = d.name;
    g.line = line_of(code, d.name_off);
    // First non-blank position of the segment, for the waiver window.
    std::size_t first = seg_start;
    while (first < d.name_off &&
           std::isspace(static_cast<unsigned char>(code[first])) != 0)
      ++first;
    g.first_line = line_of(code, first);
    g.scope = cur == Scope::kNamespace
                  ? "namespace"
                  : (cur == Scope::kClass ? "class-static" : "function-static");
    g.is_thread_local = d.has_thread_local;
    g.waiver = decl_waiver(f, g.first_line, g.line, "shard-local", false);
    if (g.waiver.empty())
      g.waiver = decl_waiver(f, g.first_line, g.line, "shard-shared", true);
    out.push_back(std::move(g));
  };

  walk_scopes(
      code,
      [&](std::size_t start, std::size_t end, Scope cur, Scope opened) {
        // A `{` matters only as a brace-initialized declaration.
        if (code[end] == ';' || opened == Scope::kInit)
          analyze(start, end, cur);
      },
      [] {});
  return out;
}

// -------------------------------------------------------------------- rules

void check_l1(const std::string& rel, const LexedFile& f,
              std::vector<Finding>& out) {
  if (l1_exempt(rel)) return;
  struct Pat {
    std::regex re;
    // Offset the reported position by the width of this capture group (the
    // bare-`time(` pattern needs one char of left context to rule out
    // member/qualified calls like engine.time() or Duration::time()).
    int skip_group;
    const char* what;
  };
  static const std::vector<Pat> pats = {
      {std::regex(R"(\bstd\s*::\s*rand\b|\bsrand\s*\()"), -1,
       "libc rand()/srand() — use scale::Rng (seeded, replayable)"},
      {std::regex(R"((^|[^\w:.>])time\s*\(\s*(0|NULL|nullptr)?\s*\))"), 1,
       "wall-clock time() read — simulation code must use sim::Engine::now()"},
      {std::regex(R"(\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\()"),
       -1, "wall-clock read — simulation code must use sim::Engine::now()"},
      {std::regex(
           R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"), -1,
       "std::chrono real clock — only src/common/time.h may bridge real time"},
      {std::regex(R"(\brandom_device\b)"), -1,
       "std::random_device — entropy-seeded RNG can never replay"},
      {std::regex(R"(\bstd\s*::\s*mt19937(_64)?\s+\w+\s*(;|\{\s*\}|\(\s*\)))"),
       -1, "default-seeded std::mt19937 — use scale::Rng with an explicit seed"},
  };
  for (const auto& p : pats) {
    for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), p.re);
         it != std::sregex_iterator(); ++it) {
      std::size_t off = static_cast<std::size_t>(it->position());
      if (p.skip_group > 0 &&
          (*it)[static_cast<std::size_t>(p.skip_group)].matched)
        off += static_cast<std::size_t>(
            (*it)[static_cast<std::size_t>(p.skip_group)].length());
      out.push_back({rel, line_of(f.code, off), "L1", p.what});
    }
  }
}

/// Collect the names of variables/members/params declared with a templated
/// type matching `decl_re` (which ends at the opening '<'). Template
/// arguments may nest (maps of vectors, maps of maps), so the angle
/// brackets are matched by depth, not by regex.
std::vector<std::string> decl_names(const std::string& code,
                                    const std::regex& decl_re) {
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    std::size_t p = static_cast<std::size_t>(it->position() + it->length());
    int depth = 1;
    while (p < code.size() && depth > 0) {
      if (code[p] == '<') ++depth;
      if (code[p] == '>') --depth;
      ++p;
    }
    // Skip refs/pointers and whitespace, then read the declared identifier.
    while (p < code.size() && (std::isspace(static_cast<unsigned char>(
                                   code[p])) != 0 ||
                               code[p] == '&' || code[p] == '*'))
      ++p;
    std::string name;
    while (p < code.size() && ident_char(code[p])) name.push_back(code[p++]);
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p])) != 0)
      ++p;
    // A declaration ends in ; = { ) or , — anything else (e.g. `(`: a
    // function *returning* the container, or `<`) is not a variable name.
    if (!name.empty() && p < code.size() &&
        (code[p] == ';' || code[p] == '=' || code[p] == '{' ||
         code[p] == ')' || code[p] == ','))
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// Declarations L2 tracks — names declared as std::unordered_{map,set} and
/// as (epc::)FlatMap; a .cpp also sees its paired header's members.
struct L2Decls {
  std::vector<std::string> unordered;
  std::vector<std::string> flat_maps;
};

L2Decls l2_decls(const std::string& code) {
  static const std::regex unordered_re(
      R"(\bstd\s*::\s*unordered_(map|set)\s*<)");
  static const std::regex flat_map_re(R"(\bFlatMap\s*<)");
  return {decl_names(code, unordered_re), decl_names(code, flat_map_re)};
}

void merge_names(std::vector<std::string>& names,
                 const std::vector<std::string>& extra) {
  names.insert(names.end(), extra.begin(), extra.end());
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
}

/// One L2 finding per unannotated match of `re`.
void flag_l2(const std::string& rel, const LexedFile& f, const std::regex& re,
             const std::string& message, std::vector<Finding>& out) {
  for (auto it = std::sregex_iterator(f.code.begin(), f.code.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t line =
        line_of(f.code, static_cast<std::size_t>(it->position()));
    if (annotated(f, line, "lint: order-independent")) continue;
    out.push_back({rel, line, "L2", message});
  }
}

void check_l2(const std::string& rel, const LexedFile& f,
              const L2Decls& sibling, std::vector<Finding>& out) {
  if (!in_l2_scope(rel)) return;
  const std::string fix =
      " — use an ordered container, a sorted snapshot, or annotate "
      "`// lint: order-independent`";
  L2Decls own = l2_decls(f.code);
  merge_names(own.flat_maps, sibling.flat_maps);
  merge_names(own.unordered, sibling.unordered);
  // FlatMap / FlatIndex walks visit entries in table order, which depends
  // on insertion history: the same hazard as hash order.
  for (const auto& name : own.flat_maps)
    flag_l2(rel, f,
            std::regex("\\b" + name + "\\s*\\.\\s*for_each\\s*\\("),
            "table-order walk of FlatMap '" + name + "'" + fix, out);
  flag_l2(rel, f, std::regex(R"((\.|->)\s*for_each_entry\s*\()"),
          "table-order walk of a FlatIndex (for_each_entry)" + fix, out);

  for (const auto& name : own.unordered) {
    const std::string hazard = "unordered container '" + name +
                               "' — hash order leaks into the trajectory; "
                               "use an ordered container, a sorted "
                               "snapshot, or annotate "
                               "`// lint: order-independent`";
    // Range-for over the container (possibly spanning lines).
    flag_l2(rel, f,
            std::regex("for\\s*\\([^;()]*:\\s*&?\\s*" + name + "\\s*\\)"),
            "iteration over " + hazard, out);
    // Iterator walk: name.begin() / name.cbegin(). (.find/.end-compare
    // lookups are fine and deliberately not matched.)
    flag_l2(rel, f, std::regex("\\b" + name + "\\s*\\.\\s*c?begin\\s*\\("),
            "iterator over " + hazard, out);
  }
}

void check_l3(const std::string& rel, const LexedFile& f,
              std::vector<Finding>& out) {
  if (!in_l3_scope(rel)) return;
  // Declarations live in headers; scanning definitions too would double-
  // count (the attribute belongs on the first declaration only).
  if (!(rel.size() > 2 && rel.compare(rel.size() - 2, 2, ".h") == 0)) return;
  static const std::regex fn_re(R"(\b(decode\w*|parse\w*|try_\w+)\s*\()");
  const std::string& code = f.code;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), fn_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t name_at = static_cast<std::size_t>(it->position());
    // Declaration, not call: the token before the name must be a type tail
    // (identifier, `>`, `&`, `*`) and must not be `::` (qualified call) or
    // `return` / `.` / `->`.
    std::size_t q = name_at;
    while (q > 0 &&
           std::isspace(static_cast<unsigned char>(code[q - 1])) != 0)
      --q;
    if (q == 0) continue;
    const char prev = code[q - 1];
    if (!(ident_char(prev) || prev == '>' || prev == '&' || prev == '*'))
      continue;
    if (q >= 2 && code[q - 1] == ':' && code[q - 2] == ':') continue;
    if (ident_char(prev)) {
      std::size_t w = q;
      while (w > 0 && ident_char(code[w - 1])) --w;
      const std::string word = code.substr(w, q - w);
      if (word == "return" || word == "co_return" || word == "co_await")
        continue;
    }
    // Scan back over the whole declaration (to the previous ; { } or the
    // `:` of an access specifier) looking for the nodiscard attribute.
    std::size_t s = name_at;
    bool has_nodiscard = false;
    while (s > 0) {
      const char ch = code[s - 1];
      if (ch == ';' || ch == '{' || ch == '}') break;
      if (ch == ':' && !(s >= 2 && code[s - 2] == ':') &&
          !(s < code.size() && code[s] == ':'))
        break;
      --s;
    }
    if (code.substr(s, name_at - s).find("nodiscard") != std::string::npos)
      has_nodiscard = true;
    if (!has_nodiscard) {
      const std::string fname = (*it)[1].str();
      out.push_back({rel, line_of(code, name_at), "L3",
                     "'" + fname +
                         "' must be [[nodiscard]] — silently dropped "
                         "decode/parse results hide truncated-PDU bugs"});
    }
  }
}

void check_l4(const std::string& rel, const LexedFile& f,
              std::vector<Finding>& out) {
  const std::string& code = f.code;
  static const std::regex new_re(R"(\bnew\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), new_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position());
    // `operator new` declarations and `#include <new>` are allowed.
    std::size_t q = at;
    while (q > 0 && std::isspace(static_cast<unsigned char>(code[q - 1])))
      --q;
    if (q >= 8 && code.compare(q - 8, 8, "operator") == 0) continue;
    if (q > 0 && code[q - 1] == '<') continue;
    out.push_back({rel, line_of(code, at), "L4",
                   "naked new — own it with std::make_unique/std::vector"});
  }
  static const std::regex del_re(R"(\bdelete\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), del_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position());
    std::size_t q = at;
    while (q > 0 && std::isspace(static_cast<unsigned char>(code[q - 1])))
      --q;
    if (q > 0 && code[q - 1] == '=') continue;  // `= delete;`
    // `operator delete` overloads (counting-allocator interposers) are the
    // symmetric allowance to `operator new` above.
    if (q >= 8 && code.compare(q - 8, 8, "operator") == 0) continue;
    out.push_back({rel, line_of(code, at), "L4",
                   "naked delete — the owner's destructor should do this"});
  }
  // Task-marker comments need an owner so they cannot rot anonymously.
  static const std::regex todo_re(R"(\bTODO\b(\(\w[\w.-]*\))?)");
  for (const auto& [line, text] : f.comments) {
    for (auto it = std::sregex_iterator(text.begin(), text.end(), todo_re);
         it != std::sregex_iterator(); ++it) {
      if ((*it)[1].matched) continue;
      out.push_back({rel, line, "L4",
                     "TODO without owner — write TODO(name): ..."});
    }
  }
}

void check_l5(const std::string& rel, const LexedFile& f,
              std::vector<Finding>& out) {
  if (!in_l5_scope(rel)) return;
  const std::string& code = f.code;
  static const std::regex fn_re(R"(\bstd\s*::\s*function\s*<)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), fn_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position());
    // Parameter position means "inside an open paren": scan back to the
    // previous ; { or } and require an unmatched '(' on the way. Members,
    // locals, aliases, and return types all fail this and are fine by-value.
    std::size_t s = at;
    while (s > 0) {
      const char ch = code[s - 1];
      if (ch == ';' || ch == '{' || ch == '}') break;
      --s;
    }
    int paren = 0;
    for (std::size_t k = s; k < at; ++k) {
      if (code[k] == '(') ++paren;
      if (code[k] == ')') --paren;
    }
    if (paren <= 0) continue;
    // Walk past the template argument list (angle brackets nest).
    std::size_t p = static_cast<std::size_t>(it->position() + it->length());
    int depth = 1;
    while (p < code.size() && depth > 0) {
      if (code[p] == '<') ++depth;
      if (code[p] == '>') --depth;
      ++p;
    }
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p])) != 0)
      ++p;
    if (p >= code.size()) continue;
    // &/&& and * take no copy; > and , mean this std::function was itself a
    // template argument (e.g. vector<std::function<...>>), not a declarator.
    if (code[p] == '&' || code[p] == '*' || code[p] == '>' || code[p] == ',' ||
        code[p] == ')')
      continue;
    std::string name;
    while (p < code.size() && ident_char(code[p])) name.push_back(code[p++]);
    if (name.empty()) continue;
    while (p < code.size() &&
           std::isspace(static_cast<unsigned char>(code[p])) != 0)
      ++p;
    // After a named parameter declarator comes `,` `)` or a default `=`.
    if (p >= code.size() ||
        !(code[p] == ',' || code[p] == ')' || code[p] == '='))
      continue;
    const std::size_t line = line_of(code, at);
    if (annotated(f, line, "lint: by-value-ok")) continue;
    out.push_back({rel, line, "L5",
                   "by-value std::function parameter '" + name +
                       "' — every call copies (and usually heap-allocates) "
                       "the callable; take const&, &&, or a template, or "
                       "annotate `// lint: by-value-ok`"});
  }
}

void check_l6(const FileIndex& fi, std::vector<Finding>& out) {
  for (const auto& g : fi.globals) {
    if (g.waiver == "shard-local" || g.waiver == "shard-shared") continue;
    std::string what =
        g.scope == "namespace"
            ? "namespace-scope mutable variable"
            : (g.scope == "class-static" ? "mutable static data member"
                                         : "mutable function-local static");
    if (g.is_thread_local) what += " (thread_local)";
    if (g.waiver == "shard-shared-empty") {
      out.push_back({fi.rel, g.line, "L6",
                     what + " '" + g.name +
                         "' — shard-shared waiver needs a reason: `// lint: "
                         "shard-shared(<why this must be process-global>)`"});
      continue;
    }
    out.push_back(
        {fi.rel, g.line, "L6",
         what + " '" + g.name +
             "' is process-visible state a shard boundary would leak "
             "through; annotate `// lint: shard-local` (confined to one "
             "shard/worker thread) or `// lint: shard-shared(<reason>)`, or "
             "refactor it into per-shard state"});
  }
}

void check_l7(const FileIndex& fi, std::vector<Finding>& out) {
  const std::string from = layer_of(fi.rel);
  if (from.empty()) return;
  const auto& ranks = layer_ranks();
  const int from_rank = ranks.at(from);
  for (const auto& inc : fi.includes) {
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;  // same-dir relative include
    const std::string to = inc.target.substr(0, slash);
    const auto it = ranks.find(to);
    if (it == ranks.end()) continue;  // not a layer path (e.g. gtest/...)
    if (to == from || it->second < from_rank) continue;
    std::string allowed;
    for (const auto& [name, rank] : ranks)
      if (rank < from_rank) allowed += (allowed.empty() ? "" : ", ") + name;
    out.push_back(
        {fi.rel, inc.line, "L7",
         "#include \"" + inc.target + "\" — layer '" + from +
             "' may not depend on '" + to +
             "' (declared DAG, DESIGN.md §6; allowed from here: " +
             (allowed.empty() ? "nothing below" : allowed) + ")"});
  }
}

// ------------------------------------------------------------- L9 reach

/// Every identifier token in `code` (numbers excluded).
std::set<std::string> identifiers(const std::string& code) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < code.size();) {
    const std::size_t s = i;
    while (i < code.size() && ident_char(code[i])) ++i;
    if (i == s)
      ++i;
    else if (std::isdigit(static_cast<unsigned char>(code[s])) == 0)
      out.insert(code.substr(s, i - s));
  }
  return out;
}

/// Where every identifier is named: identifier → the stems (root-relative
/// path minus extension, so foo.h and foo.cpp share one) of the files that
/// name it. Two indirect uses reach a name from wherever they sit: a
/// `#define` body (use sites never spell out the expansion: SCALE_CHECK
/// calls check_failed) and a struct's `kFields` list (`&Guti::plmn` keys
/// "Guti::plmn": the codec's field visitor reads and writes the member).
struct ReachIndex {
  std::map<std::string, std::set<std::string>> named_in;
  std::set<std::string> macro_bodies;
  std::set<std::string> wire_fields;

  void add(const std::string& rel, const std::string& code) {
    static const std::regex define_re(
        R"(#[ \t]*define[ \t]+\w+((?:[^\n]*\\\n)*[^\n]*))");
    static const std::regex fields_re(R"(\bkFields\s*=[^;{]*\{([^}]*)\})");
    static const std::regex field_re(R"(&\s*(\w+)\s*::\s*(\w+))");
    const std::string stem = rel.substr(0, rel.rfind('.'));
    for (const auto& id : identifiers(code)) named_in[id].insert(stem);
    const std::sregex_iterator none;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), define_re);
         it != none; ++it)
      for (const auto& id : identifiers((*it)[1].str()))
        macro_bodies.insert(id);
    for (auto it = std::sregex_iterator(code.begin(), code.end(), fields_re);
         it != none; ++it) {
      const std::string list = (*it)[1].str();
      for (auto f = std::sregex_iterator(list.begin(), list.end(), field_re);
           f != none; ++f)
        wire_fields.insert((*f)[1].str() + "::" + (*f)[2].str());
    }
  }

  bool reached(const std::string& stem, const std::string& cls,
               const std::string& name) const {
    if (macro_bodies.count(name) != 0 ||
        wire_fields.count(cls + "::" + name) != 0)
      return true;
    const auto it = named_in.find(name);
    return it != named_in.end() &&
           std::any_of(it->second.begin(), it->second.end(),
                       [&](const std::string& s) { return s != stem; });
  }
};

/// Rule L9 over one src/ header: every public member function, public data
/// member and free function it declares — found by the L6 scope walk plus
/// access tracking — must be reached (ReachIndex) or waived. Constructors,
/// destructors, operators, deleted or defaulted functions, types and
/// namespace-scope variables are not audited.
void check_l9(const FileIndex& fi, const ReachIndex& reach,
              std::vector<Finding>& out) {
  if (!starts_with(fi.rel, "src/") || fs::path(fi.rel).extension() != ".h")
    return;
  struct Frame {
    Scope kind;
    std::string owner;  // class chain, e.g. "Hss::Config"; "" outside
    std::string cls;    // innermost class
    bool visible;       // nameable from outside the header
    bool is_public;     // current access (always true outside classes)
  };
  static const std::regex access_re(
      R"(^\s*(public|private|protected)\s*:(?!:))");
  static const std::regex template_re(R"(^\s*template\s*<)");
  static const std::regex head_re(
      R"(\b(class|struct|union|enum)\b(?:\s+(?:class|struct)\b)?\s*)"
      R"((?:alignas\s*\([^)]*\)\s*)?(\w*))");
  static const std::regex special_re(R"(=\s*(delete|default)\b)");
  const std::string& code = fi.lexed.code;
  const std::string stem = fi.rel.substr(0, fi.rel.rfind('.'));
  // A class head with template argument lists elided: `template <class Fn>
  // void f() {` is a member template's body, not a class.
  auto past_angles = [&](std::size_t k, std::size_t end) {
    std::string rest;
    for (int depth = 0; k < end; ++k) {
      if (code[k] == '<') ++depth;
      if (depth == 0) rest.push_back(code[k]);
      if (code[k] == '>' && depth > 0) --depth;
    }
    return rest;
  };
  std::vector<Frame> frames = {{Scope::kNamespace, "", "", true, true}};
  walk_scopes(
      code,
      [&](std::size_t start, std::size_t end, Scope, Scope opened) {
        Frame& top = frames.back();
        const bool in_class = top.kind == Scope::kClass;
        std::smatch m;
        std::string seg;
        while (in_class &&
               std::regex_search(seg = code.substr(start, end - start), m,
                                 access_re)) {
          top.is_public = m[1] == "public";
          start += static_cast<std::size_t>(m.length());
        }
        const bool exposed = top.visible && top.is_public &&
                             (in_class || top.kind == Scope::kNamespace);
        Frame next{opened, top.owner, top.cls, false, true};
        if (code[end] == '{' && opened == Scope::kClass) {
          const std::string head = past_angles(start, end);
          if (std::regex_search(head, m, head_re) &&
              head.find('(') > static_cast<std::size_t>(m.position())) {
            next.cls = m[2].str();
            next.owner = top.owner.empty() ? next.cls
                                           : top.owner + "::" + next.cls;
            next.visible = exposed && m[1] != "enum" && !next.cls.empty();
            next.is_public = m[1] != "class";
          } else {  // a member template's body
            next.kind = opened = Scope::kFunction;
          }
        } else if (code[end] == '{' && opened == Scope::kNamespace) {
          // An anonymous namespace hides what it declares.
          next.visible =
              exposed && identifiers(code.substr(start, end - start)).size() > 1;
        }
        if (code[end] == '{') frames.push_back(next);
        if (!exposed || (code[end] == '{' && opened != Scope::kFunction &&
                         opened != Scope::kInit))
          return;
        seg = code.substr(start, end - start);
        if (std::regex_search(seg, m, template_re)) {
          std::size_t k = start + static_cast<std::size_t>(m.length()) - 1;
          for (int depth = 0; k < end; ++k) {
            depth += code[k] == '<' ? 1 : code[k] == '>' ? -1 : 0;
            if (depth == 0) break;
          }
          start = k + 1;
        }
        const DeclHead d = parse_decl_head(code, start, end - start);
        if (!d.viable || (!in_class && !d.is_function) ||
            (in_class && d.name == top.cls) ||
            (d.is_function &&
             std::regex_search(code.substr(d.name_off, end - d.name_off),
                               special_re)) ||
            reach.reached(stem, top.cls, d.name))
          return;
        const std::size_t line = line_of(code, d.name_off);
        const std::string waiver = decl_waiver(
            fi.lexed, line_of(code, code.find_first_not_of(" \t\n", start)),
            line, "unreached", true);
        if (waiver == "unreached") return;
        const std::string what =
            std::string(!in_class        ? "free function"
                        : d.is_function ? "public member function"
                                        : "public data member") +
            " '" + (top.owner.empty() ? "" : top.owner + "::") + d.name + "'";
        out.push_back(
            {fi.rel, line, "L9",
             waiver.empty()
                 ? what + " is named nowhere outside its own .h/.cpp; delete "
                          "it, move it into its .cpp, or annotate `// lint: "
                          "unreached(<reason>)`"
                 : what + " — unreached waiver needs a reason: `// lint: "
                          "unreached(<why it stays>)`"});
      },
      [&] {
        if (frames.size() > 1) frames.pop_back();
      });
}

// ------------------------------------------------------------------ driver

bool lintable(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc";
}

bool excluded(const std::string& rel) {
  return rel.find("lint_fixtures") != std::string::npos ||
         starts_with(rel, "build");
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// scale-lint-v1: the machine-readable trajectory record. Everything in it
/// is derived from root-relative paths and sorted containers, so two runs
/// over the same tree serialize byte-identically (pinned by test).
scale::obs::Json build_report(std::size_t scanned,
                              std::size_t include_edges,
                              std::size_t globals_indexed,
                              const std::vector<Finding>& findings,
                              std::vector<Waiver> waivers) {
  using scale::obs::Json;
  std::sort(waivers.begin(), waivers.end(),
            [](const Waiver& a, const Waiver& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.kind < b.kind;
            });
  Json doc = Json::object();
  doc.set("schema", "scale-lint-v1");
  doc.set("tool", "scale_lint");
  Json scanned_obj = Json::object();
  scanned_obj.set("files", static_cast<std::uint64_t>(scanned));
  scanned_obj.set("include_edges", static_cast<std::uint64_t>(include_edges));
  scanned_obj.set("globals_indexed",
                  static_cast<std::uint64_t>(globals_indexed));
  doc.set("scanned", std::move(scanned_obj));
  Json by_rule = Json::object();
  for (const char* rule : kRules) {
    std::uint64_t n = 0;
    for (const auto& f : findings)
      if (f.rule == rule) ++n;
    by_rule.set(rule, n);
  }
  Json counts = Json::object();
  counts.set("findings", static_cast<std::uint64_t>(findings.size()));
  counts.set("waivers", static_cast<std::uint64_t>(waivers.size()));
  counts.set("by_rule", std::move(by_rule));
  doc.set("counts", std::move(counts));
  Json jf = Json::array();
  for (const auto& f : findings) {
    Json one = Json::object();
    one.set("file", f.file);
    one.set("line", static_cast<std::uint64_t>(f.line));
    one.set("rule", f.rule);
    one.set("message", f.message);
    jf.push_back(std::move(one));
  }
  doc.set("findings", std::move(jf));
  Json jw = Json::array();
  for (const auto& w : waivers) {
    Json one = Json::object();
    one.set("file", w.file);
    one.set("line", static_cast<std::uint64_t>(w.line));
    one.set("kind", w.kind);
    one.set("reason", w.reason);
    jw.push_back(std::move(one));
  }
  doc.set("waivers", std::move(jw));
  return doc;
}

int usage() {
  std::cerr << "usage: scale_lint [--root DIR] [--json FILE] [path...]\n"
               "  Paths are files or directories, resolved against --root\n"
               "  (default: current directory); rule scoping keys off the\n"
               "  root-relative path. --json additionally writes the\n"
               "  scale-lint-v1 report (findings + waiver inventory) to\n"
               "  FILE. Default paths: src bench tests examples tools\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return usage();
      root = fs::path(argv[++i]);
    } else if (arg == "--json") {
      if (i + 1 >= argc) return usage();
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  const bool defaulted = paths.empty();
  if (defaulted) paths = {"src", "bench", "tests", "examples", "tools"};

  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "scale_lint: bad --root: " << ec.message() << "\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const auto& p : paths) {
    const fs::path full = root / p;
    if (fs::is_regular_file(full)) {
      files.push_back(full);
    } else if (fs::is_directory(full)) {
      for (const auto& e : fs::recursive_directory_iterator(full)) {
        if (e.is_regular_file() && lintable(e.path())) files.push_back(e.path());
      }
    } else if (!fs::exists(full)) {
      // Missing optional default dirs (e.g. no examples/) are fine, but an
      // explicitly named path that does not exist is an invocation error.
      if (!defaulted) {
        std::cerr << "scale_lint: no such path: " << full << "\n";
        return 2;
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // ---- pass 1: index every file (lex, include edges, globals, waivers,
  // and the identifiers L9's reach set is built from).
  std::vector<FileIndex> index;
  ReachIndex reach;
  index.reserve(files.size());
  std::size_t include_edges = 0;
  std::size_t globals_indexed = 0;
  for (const auto& file : files) {
    const std::string rel = fs::relative(file, root, ec).generic_string();
    if (ec || excluded(rel)) continue;
    FileIndex fi;
    fi.rel = rel;
    const std::string raw = read_file(file);
    fi.includes = extract_includes(raw);
    fi.lexed = lex(raw);
    fi.waivers = extract_waivers(rel, fi.lexed);
    if (in_l6_scope(rel)) {
      fi.globals = index_globals(fi.lexed);
      globals_indexed += fi.globals.size();
    }
    include_edges += fi.includes.size();
    reach.add(rel, fi.lexed.code);
    index.push_back(std::move(fi));
  }
  // WholeRun's sources reach the library but are not linted: L1 would flag
  // the host clocks its timing needs.
  const fs::path wholerun = root / "wholerun" / "src";
  if (fs::is_directory(wholerun)) {
    for (const auto& e : fs::recursive_directory_iterator(wholerun)) {
      if (!e.is_regular_file() || !lintable(e.path())) continue;
      reach.add(fs::relative(e.path(), root, ec).generic_string(),
                lex(read_file(e.path())).code);
    }
  }

  // ---- pass 2: enforce.
  std::vector<Finding> findings;
  std::vector<Waiver> all_waivers;
  std::set<std::string> files_with_findings;
  std::map<std::string, const FileIndex*> by_rel;
  for (const auto& fi : index) by_rel[fi.rel] = &fi;
  for (const auto& fi : index) {
    // L2 needs member declarations from the paired header: `conns_` is
    // declared in enodeb.h but iterated in enodeb.cpp.
    L2Decls sibling_decls;
    if (fi.rel.size() > 4 &&
        (fi.rel.compare(fi.rel.size() - 4, 4, ".cpp") == 0 ||
         fi.rel.compare(fi.rel.size() - 3, 3, ".cc") == 0)) {
      std::string header = fi.rel.substr(0, fi.rel.rfind('.')) + ".h";
      const auto hit = by_rel.find(header);
      if (hit != by_rel.end()) {
        sibling_decls = l2_decls(hit->second->lexed.code);
      } else {
        fs::path hp = root / header;
        if (fs::is_regular_file(hp))
          sibling_decls = l2_decls(lex(read_file(hp)).code);
      }
    }
    const std::size_t before = findings.size();
    check_l1(fi.rel, fi.lexed, findings);
    check_l2(fi.rel, fi.lexed, sibling_decls, findings);
    check_l3(fi.rel, fi.lexed, findings);
    check_l4(fi.rel, fi.lexed, findings);
    check_l5(fi.rel, fi.lexed, findings);
    check_l6(fi, findings);
    check_l7(fi, findings);
    check_l9(fi, reach, findings);
    if (findings.size() != before) files_with_findings.insert(fi.rel);
    all_waivers.insert(all_waivers.end(), fi.waivers.begin(),
                       fi.waivers.end());
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const auto& fdg : findings)
    std::cout << fdg.file << ":" << fdg.line << ": [" << fdg.rule << "] "
              << fdg.message << "\n";
  std::cerr << "scale_lint: " << findings.size() << " finding(s) in "
            << files_with_findings.size() << " of " << index.size()
            << " file(s)\n";

  if (!json_path.empty()) {
    const scale::obs::Json doc =
        build_report(index.size(), include_edges, globals_indexed, findings,
                     std::move(all_waivers));
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "scale_lint: cannot write " << json_path << "\n";
      return 2;
    }
    out << doc.pretty() << "\n";
  }
  return findings.empty() ? 0 : 1;
}
