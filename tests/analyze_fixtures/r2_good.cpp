// R2 cases for D1 (good): time comes from the virtual clock, randomness from
// the seeded Rng, and a member spelled time() is not mistaken for ::time().
namespace c4h {
void sim_clock_delay(sim::Simulation& sim) {
  sim.schedule(to_seconds(sim.now()), [] {});
}

void seeded_delay(sim::Simulation& sim, Rng& rng) {
  sim.schedule(rng.uniform_int(1, 6), [] {});
}

void stopwatch_metric(obs::Histogram& h, const Stopwatch& sw) {
  h.record(sw.time());  // member access, not the libc call
}
}  // namespace c4h
