// R4 cases (bad): two bare discards, which -Werror=unused-result rejects, and
// a (void) cast that compiles but leaves the task unrun, which A6 flags.
#include "src/common/result.hpp"
#include "src/sim/task.hpp"

namespace c4h {
Result<void> flush_metadata();
sim::Task<Result<void>> replicate_all();

void tick() {
  flush_metadata();       // compiler: the error is silently dropped
  replicate_all();        // compiler: the lazy task never runs
  (void)replicate_all();  // A6: the cast silences the compiler; still never runs
}
}  // namespace c4h
