// R1 cases for A5 (bad): co_await of a temporary task in a loop header and in
// a compound subexpression. Token-level fixture — it only has to parse.
namespace c4h {
sim::Task<bool> poll_ready();
sim::Task<int> sample();

sim::Task<> driver() {
  while (co_await poll_ready()) {       // A5: temporary awaited in loop header
    const int v = co_await sample() + 1;  // A5: compound subexpression
    (void)v;
  }
}
}  // namespace c4h
