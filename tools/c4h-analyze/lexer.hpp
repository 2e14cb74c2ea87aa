// c4h-analyze lexer — the token layer under the dataflow analyzer.
//
// Produces a flat token stream per file with comments, preprocessor
// directives, and literals stripped (string/char literals are kept as
// single placeholder tokens so argument-shape classification can still see
// that *something* temporary sits there). Suppression comments of the form
// `// c4h-analyze: allow(A3)` are recorded while lexing: on a line with
// code they cover that line; on a comment-only line they cover the next
// line that holds code, so a multi-line justification above a statement
// still attaches to it.
//
// `&&`/`->`/`::` lex whole, and the allow maps are keyed by the analyzer's
// rule ids (A1..A6, D1..D3, H1). Raw lines are kept for H1's directive check.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace c4h::analyze {

struct Token {
  enum class Kind { ident, number, punct, str };
  Kind kind;
  std::string text;  // for Kind::str this is the placeholder "<str>"
  int line;
};

struct SourceFile {
  std::string path;
  std::vector<std::string> raw_lines;
  std::vector<Token> toks;
  std::map<int, std::set<std::string>> allow;  // line -> suppressed rules
  bool is_header = false;
};

/// Reads and tokenizes `path` into `f`. Returns false on IO failure.
bool load_file(const std::string& path, SourceFile& f);

/// True when the line carries a suppression for `rule`.
bool allowed(const SourceFile& f, int line, const std::string& rule);

}  // namespace c4h::analyze
