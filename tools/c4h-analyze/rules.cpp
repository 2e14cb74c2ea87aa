#include "tools/c4h-analyze/rules.hpp"

#include <algorithm>

namespace c4h::analyze {

namespace {

bool in_nested_lambda(const Function& fn, std::size_t tok) {
  for (const Lambda& l : fn.lambdas) {
    if (l.body_begin != 0 && tok > l.body_begin && tok < l.body_end) return true;
  }
  return false;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::ident && t.text == text;
}

std::size_t stmt_end(const std::vector<Token>& toks, std::size_t i, std::size_t limit);

// ---------------------------------------------------------------------------
// Family A helpers
// ---------------------------------------------------------------------------

// True when the argument range holds a temporary: a call / braced init /
// literal at top level. `std::move(x)` is an explicit ownership handoff and
// does not count; neither do plain lvalue chains, including subscripts.
bool is_temporary_arg(const std::vector<Token>& toks, std::size_t b, std::size_t e) {
  if (b >= e) return false;
  std::size_t i = b;
  if (is_ident(toks[i], "std") && i + 1 < e && toks[i + 1].text == "::") i += 2;
  if (i < e && is_ident(toks[i], "move") && i + 1 < e && toks[i + 1].text == "(") return false;
  int bracket = 0;
  for (std::size_t k = b; k < e; ++k) {
    const Token& t = toks[k];
    if (t.text == "[") ++bracket;
    else if (t.text == "]") --bracket;
    else if (bracket == 0) {
      if (t.text == "(" || t.text == "{") return true;
      if (t.kind == Token::Kind::number || t.kind == Token::Kind::str) return true;
    }
  }
  return false;
}

// Index of the '(' that ends the call chain `name ((::|.|->) name)*` starting
// at toks[i], or npos; `callee` receives the chain's last name.
std::size_t call_chain(const std::vector<Token>& toks, std::size_t i, std::size_t limit,
                       std::string& callee) {
  for (; i + 1 < limit && toks[i].kind == Token::Kind::ident; i += 2) {
    const std::string& next = toks[i + 1].text;
    if (next == "(") {
      callee = toks[i].text;
      return i + 1;
    }
    if (next != "::" && next != "." && next != "->") break;
  }
  return std::string::npos;
}

// Locates every call to `spawn` / `run_task` in the body and yields the
// token range of its (single) argument.
struct SpawnSite {
  std::size_t open = 0;   // '(' of the spawn call
  std::size_t arg_b = 0;  // argument range [arg_b, arg_e)
  std::size_t arg_e = 0;
  int line = 0;
  bool detached = false;  // spawn() detaches; run_task() drives synchronously
};

std::vector<SpawnSite> spawn_sites(const std::vector<Token>& toks, const Function& fn) {
  std::vector<SpawnSite> out;
  for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
    if (toks[i].kind != Token::Kind::ident) continue;
    if (toks[i].text != "spawn" && toks[i].text != "run_task") continue;
    if (toks[i + 1].text != "(") continue;
    const std::size_t close = match_close(toks, i + 1);
    if (close == std::string::npos || close > fn.body_end) continue;
    const auto args = split_args(toks, i + 1, close);
    if (args.size() != 1) continue;
    out.push_back({i + 1, args[0].first, args[0].second, toks[i].line,
                   toks[i].text == "spawn"});
  }
  return out;
}

// A1 — reference parameters of a spawned coroutine bound to temporaries.
// Two argument shapes are understood:
//   spawn(task_fn(args...))              — signature from the symbol index
//   spawn([](T& p, ...) -> Task<> {...}(args...))  — the tree's IIFE idiom,
//                                          signature read off the lambda
void rule_a1(const FileModel& m, const Function& fn, const SymbolIndex& index,
             std::vector<Finding>& out) {
  const auto& toks = m.file->toks;
  for (const SpawnSite& s : spawn_sites(toks, fn)) {
    if (!s.detached) continue;  // run_task() drives inside the full expression
    std::set<std::size_t> ref_pos;
    std::vector<std::pair<std::size_t, std::size_t>> call_args;
    std::string callee;

    if (toks[s.arg_b].text == "[") {
      // IIFE lambda: [caps](params) -> Task<...> { body }(call args)
      const std::size_t intro_close = match_close(toks, s.arg_b);
      if (intro_close == std::string::npos) continue;
      std::size_t j = intro_close + 1;
      if (j >= s.arg_e || toks[j].text != "(") continue;
      const std::size_t pclose = match_close(toks, j);
      if (pclose == std::string::npos) continue;
      std::size_t pos = 0;
      for (const auto& [b, e] : split_args(toks, j, pclose)) {
        const Param p = parse_param(toks, b, e);
        if (p.is_ref && !p.is_const) ref_pos.insert(pos);
        ++pos;
      }
      std::size_t body = pclose + 1;
      while (body < s.arg_e && toks[body].text != "{") ++body;
      const std::size_t bclose = body < s.arg_e ? match_close(toks, body) : std::string::npos;
      if (bclose == std::string::npos || bclose + 1 >= s.arg_e) continue;
      if (toks[bclose + 1].text != "(") continue;
      const std::size_t cclose = match_close(toks, bclose + 1);
      if (cclose == std::string::npos) continue;
      call_args = split_args(toks, bclose + 1, cclose);
      callee = "coroutine lambda";
    } else {
      const std::size_t call_open = call_chain(toks, s.arg_b, s.arg_e, callee);
      if (call_open == std::string::npos) continue;
      const auto it = index.fns.find(callee);
      if (it == index.fns.end() || !it->second.task_like) continue;
      ref_pos = it->second.ref_params;
      const std::size_t cclose = match_close(toks, call_open);
      if (cclose == std::string::npos) continue;
      call_args = split_args(toks, call_open, cclose);
    }

    for (std::size_t pos : ref_pos) {
      if (pos >= call_args.size()) continue;
      const auto& [b, e] = call_args[pos];
      if (!is_temporary_arg(toks, b, e)) continue;
      const int line = toks[b].line;
      if (allowed(*m.file, line, "A1")) continue;
      out.push_back({m.file->path, line, "A1", fn.qual,
                     "temporary bound to reference parameter " + std::to_string(pos + 1) +
                         " of spawned " + callee +
                         "; the frame suspends and the temporary dies at the full "
                         "expression's end"});
    }
  }
}

// A2 — a capturing coroutine lambda handed to spawn(). Captures live in the
// closure object — a temporary that dies at the end of the spawn statement —
// while the detached frame resumes later, so every capture is dangling by
// first resume. Capturing lambdas driven synchronously (run(sim, ...),
// run_task(...)) or named locals awaited in-frame are fine: the closure
// outlives every resumption there.
void rule_a2(const FileModel& m, const Function& fn, std::vector<Finding>& out) {
  const auto& toks = m.file->toks;
  const auto sites = spawn_sites(toks, fn);
  for (const Lambda& l : fn.lambdas) {
    if (!l.is_coroutine || !l.has_captures) continue;
    const bool in_spawn = std::any_of(sites.begin(), sites.end(), [&](const SpawnSite& s) {
      return s.detached && l.intro >= s.arg_b && l.intro < s.arg_e;
    });
    if (!in_spawn) continue;
    if (allowed(*m.file, l.line, "A2")) continue;
    std::string what = l.captures_this ? "`this`" : l.captures_ref ? "by-reference" : "by-value";
    out.push_back({m.file->path, l.line, "A2", fn.qual,
                   "coroutine lambda with " + what +
                       " captures; captures live in the closure object, which dies "
                       "before the frame first resumes — pass state as parameters "
                       "instead"});
  }
}

// True when the brace block (open, close) ends in an unconditional exit
// (co_return / return / throw), so code after the block is unreachable from
// anything inside it.
bool block_exits(const std::vector<Token>& toks, std::size_t open, std::size_t close) {
  std::size_t stmt_begin = open + 1;
  int depth = 0;
  for (std::size_t k = open + 1; k < close; ++k) {
    const std::string& t = toks[k].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]") --depth;
    else if (t == "}") {
      --depth;
      // A '}' closing a nested statement block is followed by a fresh
      // statement; one closing a braced init is followed by ';' , ')' etc.
      if (depth == 0 && k + 1 < close && toks[k + 1].kind == Token::Kind::ident) {
        stmt_begin = k + 1;
      }
    } else if (t == ";" && depth == 0 && k + 1 < close) {
      stmt_begin = k + 1;
    }
  }
  const std::string& first = toks[stmt_begin].text;
  return first == "co_return" || first == "return" || first == "throw";
}

// A3 — iterator obtained before a co_await and used after it without being
// re-acquired. Another coroutine can mutate the container while this frame is
// suspended, invalidating the iterator.
//
// Path-insensitivity is softened in two ways: an await only threatens uses
// past the end of its own statement (arguments of the awaited call are
// evaluated before the suspension), and an await inside an early-exit block
// cannot be crossed by any use after that block.
void rule_a3(const FileModel& m, const Function& fn, std::vector<Finding>& out) {
  if (fn.awaits.empty()) return;
  const auto& toks = m.file->toks;

  struct AwaitInfo {
    std::size_t tok, stmt_end, limit;  // limit: first token an exit makes unreachable
  };
  std::vector<AwaitInfo> awaits;
  {
    std::vector<std::size_t> opens;  // enclosing '{' stack, innermost last
    std::size_t next_await = 0;
    for (std::size_t k = fn.body_begin; k <= fn.body_end; ++k) {
      if (toks[k].text == "{") opens.push_back(k);
      else if (toks[k].text == "}" && !opens.empty()) opens.pop_back();
      if (next_await < fn.awaits.size() && fn.awaits[next_await] == k) {
        AwaitInfo info{k, stmt_end(toks, k, fn.body_end), fn.body_end};
        for (std::size_t d = opens.size(); d-- > 1;) {  // skip the body itself
          const std::size_t close = match_close(toks, opens[d]);
          if (close != std::string::npos && block_exits(toks, opens[d], close)) {
            info.limit = close;
            break;
          }
        }
        awaits.push_back(info);
        ++next_await;
      }
    }
  }

  for (const Decl& d : fn.decls) {
    if (!d.iterator_like || d.name.empty()) continue;
    std::size_t anchor = d.init_end != 0 ? d.init_end : d.name_tok;
    for (std::size_t o = anchor + 1; o < fn.body_end; ++o) {
      if (toks[o].kind != Token::Kind::ident || toks[o].text != d.name) continue;
      if (in_nested_lambda(fn, o)) continue;
      const bool rebind = o + 1 < fn.body_end && toks[o + 1].text == "=";
      if (rebind) {
        anchor = o;
        continue;
      }
      const bool crossed = std::any_of(awaits.begin(), awaits.end(), [&](const AwaitInfo& a) {
        return a.tok > anchor && a.tok < o && o > a.stmt_end && o < a.limit;
      });
      if (!crossed) continue;
      const int line = toks[o].line;
      if (!allowed(*m.file, line, "A3")) {
        std::string src = d.container.empty() ? "a container" : "'" + d.container + "'";
        out.push_back({m.file->path, line, "A3", fn.qual,
                       "iterator '" + d.name + "' into " + src +
                           " used across co_await; re-acquire it after resuming"});
      }
      break;  // one report per iterator
    }
  }
}

// A4 — a member coroutine of a function-local object passed to spawn(). The
// detached frame captures `this`, which dies when the enclosing scope exits.
void rule_a4(const FileModel& m, const Function& fn, const SymbolIndex& index,
             std::vector<Finding>& out) {
  const auto& toks = m.file->toks;
  for (const SpawnSite& s : spawn_sites(toks, fn)) {
    if (!s.detached || s.arg_e - s.arg_b < 4) continue;
    const Token& obj = toks[s.arg_b];
    const Token& sep = toks[s.arg_b + 1];
    const Token& method = toks[s.arg_b + 2];
    if (obj.kind != Token::Kind::ident || (sep.text != "." && sep.text != "->")) continue;
    if (method.kind != Token::Kind::ident || toks[s.arg_b + 3].text != "(") continue;
    const bool local = std::any_of(fn.decls.begin(), fn.decls.end(),
                                   [&](const Decl& d) { return d.name == obj.text; });
    if (!local) continue;
    const auto it = index.fns.find(method.text);
    if (it == index.fns.end() || !it->second.task_like) continue;
    if (allowed(*m.file, obj.line, "A4")) continue;
    out.push_back({m.file->path, obj.line, "A4", fn.qual,
                   "detached task '" + obj.text + "." + method.text +
                       "(...)' keeps `this` of a function-local object; the frame "
                       "outlives the scope"});
  }
}

// A5 — `co_await f(...)` inside a for/while header, or with an operator on
// either side. GCC 12 has miscompiled these shapes (zero latency, heap
// corruption); await into a named local first.
void rule_a5(const FileModel& m, const Function& fn, std::vector<Finding>& out) {
  static const std::set<std::string> ops = {"&&", "||", "==", "!=", "<", ">", "<=", ">=",
                                            "+",  "-",  "*",  "/",  "%", "!", "?", "<<"};
  const auto& toks = m.file->toks;
  std::vector<bool> loop_header;  // per open '(': does it open a for/while header?
  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    const std::string& t = toks[i].text;
    if (t == "(") {
      loop_header.push_back(is_ident(toks[i - 1], "for") || is_ident(toks[i - 1], "while"));
      continue;
    }
    if (t == ")" && !loop_header.empty()) loop_header.pop_back();
    if (t != "co_await") continue;
    std::string callee;
    const std::size_t open = call_chain(toks, i + 1, fn.body_end, callee);
    if (open == std::string::npos) continue;  // a named awaitable
    const std::size_t close = match_close(toks, open);
    if (close == std::string::npos || close >= fn.body_end) continue;
    const bool in_header =
        std::find(loop_header.begin(), loop_header.end(), true) != loop_header.end();
    if (!in_header && ops.count(toks[i - 1].text) == 0 && ops.count(toks[close + 1].text) == 0)
      continue;
    const int line = toks[i].line;
    if (allowed(*m.file, line, "A5")) continue;
    out.push_back({m.file->path, line, "A5", fn.qual,
                   std::string("co_await of a temporary task inside a ") +
                       (in_header ? "loop header" : "compound subexpression") +
                       "; bind the awaited value to a named local first"});
  }
}

// A6 — `(void)task_fn(...);`. The cast silences Task's [[nodiscard]], so the
// compiler accepts it, but a lazy task runs only when awaited or spawned: the
// call does nothing.
void rule_a6(const FileModel& m, const Function& fn, const SymbolIndex& index,
             std::vector<Finding>& out) {
  const auto& toks = m.file->toks;
  for (std::size_t i = fn.body_begin + 1; i + 3 < fn.body_end; ++i) {
    if (toks[i].text != "(" || !is_ident(toks[i + 1], "void") || toks[i + 2].text != ")")
      continue;
    std::string callee;
    const std::size_t open = call_chain(toks, i + 3, fn.body_end, callee);
    if (open == std::string::npos) continue;
    const auto it = index.fns.find(callee);
    if (it == index.fns.end() || !it->second.task_like) continue;
    const std::size_t close = match_close(toks, open);
    if (close == std::string::npos || close + 1 >= fn.body_end || toks[close + 1].text != ";")
      continue;
    const int line = toks[i].line;
    if (allowed(*m.file, line, "A6")) continue;
    out.push_back({m.file->path, line, "A6", fn.qual,
                   "(void)-cast call to task '" + callee +
                       "' is never awaited, so it never runs; co_await or spawn it"});
  }
}

// H1 — header hygiene: every header has `#pragma once` and declares into
// namespace c4h. Reported at line 1, so `allow(H1)` goes on the first line.
void rule_h1(const FileModel& m, std::vector<Finding>& out) {
  const SourceFile& f = *m.file;
  if (allowed(f, 1, "H1")) return;
  const bool pragma_once =
      std::any_of(f.raw_lines.begin(), f.raw_lines.end(), [](const std::string& s) {
        const std::size_t b = s.find_first_not_of(" \t");
        return b != std::string::npos && s.compare(b, 12, "#pragma once") == 0;
      });
  if (!pragma_once) out.push_back({f.path, 1, "H1", "", "header is missing #pragma once"});
  bool ns = false;
  for (std::size_t i = 0; i + 1 < f.toks.size() && !ns; ++i) {
    ns = is_ident(f.toks[i], "namespace") && is_ident(f.toks[i + 1], "c4h");
  }
  if (!ns) {
    out.push_back({f.path, 1, "H1", "", "header does not declare anything in namespace c4h"});
  }
}

// ---------------------------------------------------------------------------
// Family D — determinism taint
// ---------------------------------------------------------------------------

enum class TaintKind { time_entropy, pointer_identity };

const std::set<std::string>& d_sinks() {
  static const std::set<std::string> s = {"schedule", "delay",  "run_until", "send_message",
                                          "transfer", "record", "add",       "set",
                                          "emit",     "fire"};
  return s;
}

const std::set<std::string>& d2_extra_sinks() {
  static const std::set<std::string> s = {"push_back", "emplace_back", "insert", "emplace"};
  return s;
}

// True when token i begins a taint source expression for `kind`.
bool is_source(const std::vector<Token>& toks, std::size_t i, TaintKind kind) {
  const Token& t = toks[i];
  if (t.kind != Token::Kind::ident) return false;
  const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
  const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
  if (kind == TaintKind::time_entropy) {
    static const std::set<std::string> any_use = {
        "system_clock", "steady_clock", "high_resolution_clock", "random_device",
        "mt19937",      "mt19937_64",   "default_random_engine", "gettimeofday",
        "getenv"};
    if (any_use.count(t.text) > 0) return true;
    static const std::set<std::string> call_only = {"rand", "srand", "time", "clock"};
    if (call_only.count(t.text) > 0 && next != nullptr && next->text == "(") {
      // obj.time() is a member call, not the C library; std::time( is.
      return prev == nullptr || (prev->text != "." && prev->text != "->");
    }
    return false;
  }
  // pointer identity
  if (t.text == "reinterpret_cast" && next != nullptr && next->text == "<") {
    static const std::set<std::string> int_types = {"uintptr_t", "intptr_t",  "size_t",
                                                    "uint64_t",  "uint32_t",  "int64_t",
                                                    "ptrdiff_t"};
    const std::size_t close = skip_angles(toks, i + 1);
    if (close == std::string::npos) return false;
    for (std::size_t k = i + 2; k + 1 < close; ++k) {
      if (int_types.count(toks[k].text) > 0) return true;
    }
    return false;
  }
  if (t.text == "hash" && next != nullptr && next->text == "<") {
    const std::size_t close = skip_angles(toks, i + 1);
    if (close == std::string::npos) return false;
    for (std::size_t k = i + 2; k + 1 < close; ++k) {
      if (toks[k].text == "*") return true;
    }
    return false;
  }
  return false;
}

const std::set<std::string>& tainted_fns_for(const SymbolIndex& index, TaintKind kind) {
  return kind == TaintKind::time_entropy ? index.tainted_fns_time : index.tainted_fns_ptr;
}

bool range_tainted(const std::vector<Token>& toks, std::size_t b, std::size_t e,
                   const std::set<std::string>& vars, const SymbolIndex& index,
                   TaintKind kind) {
  for (std::size_t i = b; i < e; ++i) {
    if (is_source(toks, i, kind)) return true;
    if (toks[i].kind != Token::Kind::ident) continue;
    if (vars.count(toks[i].text) > 0) return true;
    if (i + 1 < e && toks[i + 1].text == "(" &&
        tainted_fns_for(index, kind).count(toks[i].text) > 0) {
      return true;
    }
  }
  return false;
}

std::size_t stmt_end(const std::vector<Token>& toks, std::size_t i, std::size_t limit) {
  int depth = 0;
  for (; i < limit; ++i) {
    const std::string& t = toks[i].text;
    if (t == "(" || t == "{" || t == "[") ++depth;
    else if (t == ")" || t == "}" || t == "]") {
      if (depth == 0) return i;
      --depth;
    } else if (t == ";" && depth == 0) {
      return i;
    }
  }
  return limit;
}

// Computes the set of tainted local names in `fn` to a per-function fixpoint.
std::set<std::string> taint_vars(const std::vector<Token>& toks, const Function& fn,
                                 const SymbolIndex& index, TaintKind kind) {
  std::set<std::string> vars;
  // Source-typed declarations taint the variable itself:
  // `std::random_device rd;` / `std::hash<T*> h;` — the source token sits in
  // the type, before the name, outside any initializer range.
  for (const Decl& d : fn.decls) {
    for (std::size_t k = d.name_tok; k-- > fn.body_begin + 1;) {
      const std::string& t = toks[k].text;
      if (t == ";" || t == "{" || t == "}" || d.name_tok - k > 10) break;
      if (is_source(toks, k, kind)) {
        vars.insert(d.name);
        break;
      }
    }
  }
  for (int pass = 0; pass < 8; ++pass) {
    bool grew = false;
    for (const Decl& d : fn.decls) {
      if (d.init_begin == 0 || vars.count(d.name) > 0) continue;
      if (range_tainted(toks, d.init_begin, d.init_end, vars, index, kind)) {
        vars.insert(d.name);
        grew = true;
      }
    }
    for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      if (toks[i].kind != Token::Kind::ident) continue;
      const std::string& op = toks[i + 1].text;
      if (op != "=" && op != "+=" && op != "-=") continue;
      if (vars.count(toks[i].text) > 0) continue;
      const std::size_t end = stmt_end(toks, i + 2, fn.body_end);
      if (range_tainted(toks, i + 2, end, vars, index, kind)) {
        vars.insert(toks[i].text);
        grew = true;
      }
    }
    if (!grew) break;
  }
  return vars;
}

bool returns_tainted(const std::vector<Token>& toks, const Function& fn,
                     const std::set<std::string>& vars, const SymbolIndex& index,
                     TaintKind kind) {
  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    if (toks[i].kind != Token::Kind::ident) continue;
    if (toks[i].text != "return" && toks[i].text != "co_return") continue;
    const std::size_t end = stmt_end(toks, i + 1, fn.body_end);
    if (range_tainted(toks, i + 1, end, vars, index, kind)) return true;
  }
  return false;
}

void taint_report(const FileModel& m, const Function& fn, const SymbolIndex& index,
                  TaintKind kind, std::vector<Finding>& out) {
  const auto& toks = m.file->toks;
  const char* rule = kind == TaintKind::time_entropy ? "D1" : "D2";
  const char* what = kind == TaintKind::time_entropy ? "wall-clock/entropy"
                                                     : "pointer-identity";
  const std::set<std::string> vars = taint_vars(toks, fn, index, kind);
  for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
    if (toks[i].kind != Token::Kind::ident || toks[i + 1].text != "(") continue;
    const std::string& callee = toks[i].text;
    const bool sink = d_sinks().count(callee) > 0 ||
                      (kind == TaintKind::pointer_identity && d2_extra_sinks().count(callee) > 0);
    if (!sink) continue;
    const std::size_t close = match_close(toks, i + 1);
    if (close == std::string::npos || close > fn.body_end) continue;
    if (!range_tainted(toks, i + 2, close, vars, index, kind)) continue;
    const int line = toks[i].line;
    if (allowed(*m.file, line, rule)) continue;
    out.push_back({m.file->path, line, rule, fn.qual,
                   std::string(what) + " value reaches '" + callee +
                       "'; simulation state, schedules, and metrics must derive from "
                       "Simulation::now() / seeded Rng only"});
  }
}

// D3 — iteration over an unordered container with an order-sensitive body,
// in range-for or iterator form.
void rule_d3(const FileModel& m, const Function& fn, const SymbolIndex& index,
             std::vector<Finding>& out) {
  static const std::set<std::string> sensitive = {
      "push_back", "emplace_back", "<<",   "schedule", "delay", "send_message",
      "transfer",  "record",       "emit", "co_await", "co_yield", "fire", "resume"};
  const auto& toks = m.file->toks;
  for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
    if (!is_ident(toks[i], "for") || toks[i + 1].text != "(") continue;
    const std::size_t hclose = match_close(toks, i + 1);
    if (hclose == std::string::npos || hclose > fn.body_end) continue;
    // Range-for: find the top-level ':'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t k = i + 2; k < hclose; ++k) {
      const std::string& t = toks[k].text;
      if (t == "(" || t == "{" || t == "[" || t == "<") ++depth;
      else if (t == ")" || t == "}" || t == "]" || t == ">") --depth;
      else if (t == ":" && depth == 0) {
        colon = k;
        break;
      }
    }
    bool unordered = false;
    if (colon == std::string::npos) {
      // Iterator form: for (auto it = m.begin(); ...) over an unordered m.
      for (std::size_t k = i + 3; k + 1 < hclose && toks[k].text != ";"; ++k) {
        if ((toks[k].text == "." || toks[k].text == "->") &&
            (is_ident(toks[k + 1], "begin") || is_ident(toks[k + 1], "cbegin")) &&
            index.unordered_vars.count(toks[k - 1].text) > 0) {
          unordered = true;
          break;
        }
      }
    } else {
      // An explicitly sorted view (sorted_keys(m), sorted(m), ...) is ordered
      // no matter what it wraps.
      if (colon + 2 < hclose && toks[colon + 1].kind == Token::Kind::ident &&
          toks[colon + 1].text.find("sort") != std::string::npos &&
          toks[colon + 2].text == "(") {
        continue;
      }
      for (std::size_t k = colon + 1; k < hclose; ++k) {
        if (toks[k].kind != Token::Kind::ident) continue;
        if (toks[k].text.rfind("unordered_", 0) == 0 ||
            index.unordered_vars.count(toks[k].text) > 0) {
          unordered = true;
          break;
        }
      }
    }
    if (!unordered) continue;
    std::size_t body_b = hclose + 1;
    std::size_t body_e;
    if (body_b < fn.body_end && toks[body_b].text == "{") {
      body_e = match_close(toks, body_b);
      if (body_e == std::string::npos) continue;
    } else {
      body_e = stmt_end(toks, body_b, fn.body_end);
    }
    bool hit = false;
    for (std::size_t k = body_b; k < body_e && !hit; ++k) {
      hit = sensitive.count(toks[k].text) > 0;
    }
    if (!hit) continue;
    const int line = toks[i].line;
    if (allowed(*m.file, line, "D3")) continue;
    out.push_back({m.file->path, line, "D3", fn.qual,
                   "order-sensitive loop body over an unordered container; iterate a "
                   "sorted copy or restructure to a commutative reduction"});
  }
}

}  // namespace

SymbolIndex build_index(const std::vector<FileModel>& models) {
  SymbolIndex index;
  for (const FileModel& m : models) {
    for (const Function& fn : m.fns) {
      auto& info = index.fns[fn.name];
      info.task_like = info.task_like || fn.returns_task || fn.is_coroutine;
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        if (fn.params[i].is_ref && !fn.params[i].is_const) info.ref_params.insert(i);
      }
    }
    // Names declared (anywhere: locals, members, globals) with an
    // unordered_* container type.
    const auto& toks = m.file->toks;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::ident || toks[i].text.rfind("unordered_", 0) != 0)
        continue;
      if (toks[i + 1].text != "<") continue;
      std::size_t j = skip_angles(toks, i + 1);
      if (j == std::string::npos) continue;
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" || toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == Token::Kind::ident) {
        index.unordered_vars.insert(toks[j].text);
      }
    }
  }
  return index;
}

bool propagate_taint(const std::vector<FileModel>& models, SymbolIndex& index) {
  bool grew = false;
  for (const FileModel& m : models) {
    const auto& toks = m.file->toks;
    for (const Function& fn : m.fns) {
      if (!fn.has_body) continue;
      for (TaintKind kind : {TaintKind::time_entropy, TaintKind::pointer_identity}) {
        auto& tainted =
            kind == TaintKind::time_entropy ? index.tainted_fns_time : index.tainted_fns_ptr;
        if (tainted.count(fn.name) > 0) continue;
        const auto vars = taint_vars(toks, fn, index, kind);
        if (returns_tainted(toks, fn, vars, index, kind)) {
          tainted.insert(fn.name);
          grew = true;
        }
      }
    }
  }
  return grew;
}

std::vector<Finding> run_rules(const FileModel& m, const SymbolIndex& index,
                               const std::set<std::string>& enabled) {
  std::vector<Finding> out;
  if (enabled.count("H1") > 0 && m.file->is_header) rule_h1(m, out);
  for (const Function& fn : m.fns) {
    if (!fn.has_body) continue;
    if (enabled.count("A1") > 0) rule_a1(m, fn, index, out);
    if (enabled.count("A2") > 0) rule_a2(m, fn, out);
    if (enabled.count("A3") > 0) rule_a3(m, fn, out);
    if (enabled.count("A4") > 0) rule_a4(m, fn, index, out);
    if (enabled.count("A5") > 0) rule_a5(m, fn, out);
    if (enabled.count("A6") > 0) rule_a6(m, fn, index, out);
    if (enabled.count("D1") > 0) taint_report(m, fn, index, TaintKind::time_entropy, out);
    if (enabled.count("D2") > 0) taint_report(m, fn, index, TaintKind::pointer_identity, out);
    if (enabled.count("D3") > 0) rule_d3(m, fn, index, out);
  }
  return out;
}

}  // namespace c4h::analyze
