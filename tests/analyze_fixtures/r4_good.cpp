// R4 cases (good): the Result is checked, the task is awaited, and a
// deliberate (void) discard of a Result needs no annotation.
#include "src/common/result.hpp"
#include "src/sim/task.hpp"

namespace c4h {
Result<void> flush_metadata();
sim::Task<Result<void>> replicate_all();

sim::Task<> tick() {
  auto r = flush_metadata();
  if (!r.ok()) co_return;
  (void)co_await replicate_all();
  (void)flush_metadata();  // best-effort flush on shutdown; failure is benign
}
}  // namespace c4h
