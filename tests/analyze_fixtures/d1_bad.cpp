// D1 true positives: wall-clock / entropy values flowing into scheduling and
// metrics sinks — directly, through local assignments, across a function
// boundary via a tainted return value, and from a library-defined engine.
#include <chrono>
#include <random>

#include "src/sim/simulation.hpp"

using c4h::sim::Simulation;

// Returns a tainted value: callers of jitter_ms() inherit the taint.
static long jitter_ms() {
  std::random_device rd;
  long j = static_cast<long>(rd());
  return j % 10;
}

void bad_direct_clock(Simulation& sim) {
  const auto t = std::chrono::steady_clock::now().time_since_epoch().count();
  sim.schedule(t, [] {});  // D1: wall clock into the event schedule
}

void bad_propagated_local(Simulation& sim) {
  auto seed = std::chrono::system_clock::now().time_since_epoch().count();
  auto skew = seed / 2;     // taint propagates through the assignment
  sim.schedule(skew, [] {});  // D1
}

void bad_cross_function(Simulation& sim) {
  sim.schedule(jitter_ms(), [] {});  // D1: tainted via jitter_ms's return
}

void bad_metric(c4h::obs::Histogram& lat) {
  lat.record(static_cast<unsigned long>(std::time(nullptr)));  // D1: time() into metrics
}

void bad_library_engine(Simulation& sim) {
  std::default_random_engine eng;  // the engine type differs between std libraries
  sim.schedule(static_cast<long>(eng() % 10), [] {});  // D1
}
