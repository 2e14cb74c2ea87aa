// R1 cases for A5 (good): every co_await binds to a named variable before the
// value participates in control flow or arithmetic.
namespace c4h {
sim::Task<bool> poll_ready();
sim::Task<int> sample();

sim::Task<> driver() {
  for (;;) {
    const bool ready = co_await poll_ready();
    if (!ready) break;
    const int v = co_await sample();
    const int shifted = v + 1;
    (void)shifted;
  }
}
}  // namespace c4h
