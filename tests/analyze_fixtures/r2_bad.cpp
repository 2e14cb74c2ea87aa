// R2 cases for D1 (bad): wall-clock and ambient-entropy sources, each reaching
// a schedule or metrics sink.
namespace c4h {
void wall_clock_delay(sim::Simulation& sim) {
  const auto t0 = std::chrono::steady_clock::now().time_since_epoch().count();
  sim.schedule(t0, [] {});  // D1: wall clock into the event schedule
}

void wall_clock_metric(obs::Histogram& h) {
  h.record(static_cast<unsigned long>(time(nullptr)));  // D1: time() into metrics
}

void noisy_delay(sim::Simulation& sim) {
  sim.schedule(rand() % 6, [] {});  // D1: ambient entropy
}
}  // namespace c4h
