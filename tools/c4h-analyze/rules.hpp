// c4h-analyze rule passes.
//
// Two rule families and a header check run over the per-file models plus a
// cross-file symbol index:
//
//   Family A — coroutine lifetime:
//     A1  temporary bound to a reference parameter of a spawned Task
//     A2  capturing coroutine lambda (captures live in the closure object,
//         which is destroyed long before the frame first resumes)
//     A3  container iterator held across a co_await suspension point
//     A4  member coroutine of a function-local object handed to spawn()
//         (the detached frame keeps `this` after the local dies)
//     A5  co_await of a temporary call in a for/while header or next to an
//         operator (a shape GCC 12 miscompiles)
//     A6  (void)-cast call to a task that is never awaited, so never runs
//
//   Family B — determinism taint (flow-sensitive, cross-function):
//     D1  wall-clock / entropy values flowing into scheduling, simulation
//         state, or metrics sinks
//     D2  pointer-identity values (reinterpret_cast to integer,
//         std::hash<T*>) flowing into the same sinks or into containers
//     D3  iteration over an unordered container whose loop body performs
//         order-sensitive work (appends, emits, schedules, suspends)
//
//   H1  a header without #pragma once or without namespace c4h
//
// A bare discarded Result or Task is not a rule here: both types are
// [[nodiscard]] and the build passes -Werror=unused-result.
//
// Taint for D1/D2 propagates through local assignments to a per-function
// fixpoint, and across calls via the set of functions whose return value is
// tainted (computed to a global fixpoint by the driver before reporting).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/c4h-analyze/model.hpp"

namespace c4h::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  // "A1".."A6", "D1".."D3", "H1"
  std::string func;  // qualified enclosing function; empty for H1
  std::string msg;
};

/// Per-name facts merged across every file handed to the analyzer. Overload
/// merging is deliberately conservative: a ref-parameter position recorded by
/// any overload counts for all of them.
struct SymbolIndex {
  struct FnInfo {
    bool task_like = false;            // returns Task<> and/or is a coroutine
    std::set<std::size_t> ref_params;  // positions of non-const lvalue-ref params
  };
  std::map<std::string, FnInfo> fns;        // unqualified name -> merged facts
  std::set<std::string> unordered_vars;     // names declared as unordered_{map,set,...}
  std::set<std::string> tainted_fns_time;   // return value carries D1 taint
  std::set<std::string> tainted_fns_ptr;    // return value carries D2 taint
};

/// Builds the symbol index over every model (headers included).
SymbolIndex build_index(const std::vector<FileModel>& models);

/// One global taint-propagation pass: recomputes tainted_fns_* from the
/// current index. Returns true when either set grew (caller iterates to a
/// fixpoint, which the acyclic-call-depth of real code reaches in <= 4 passes).
bool propagate_taint(const std::vector<FileModel>& models, SymbolIndex& index);

/// Runs every enabled rule over one file model. Suppressions
/// (`// c4h-analyze: allow(RULE)`) are honored here.
std::vector<Finding> run_rules(const FileModel& m, const SymbolIndex& index,
                               const std::set<std::string>& enabled);

}  // namespace c4h::analyze
