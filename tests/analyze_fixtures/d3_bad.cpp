// D3 true positives: iterating an unordered container, in range-for or
// iterator form, while doing order-sensitive work in the loop body — appending,
// awaiting, recording metrics. Hash order leaks into observable state.
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulation.hpp"

using c4h::sim::Task;

struct Directory {
  std::unordered_map<std::string, int> entries;

  void bad_append_in_hash_order(std::vector<std::string>& out) {
    for (const auto& [name, size] : entries) {
      out.push_back(name);  // D3: output order = hash order
    }
  }

  Task<> bad_await_in_hash_order() {
    for (const auto& [name, size] : entries) {
      co_await c4h::sim::delay_for(size);  // D3: event order = hash order
    }
  }

  void bad_metrics_in_hash_order(c4h::obs::Histogram& h) {
    for (const auto& [name, size] : entries) {
      h.record(static_cast<unsigned long>(size));  // D3: merge order = hash order
    }
  }

  void bad_iterator_in_hash_order(std::vector<std::string>& out) {
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      out.push_back(it->first);  // D3: the iterator form walks the same order
    }
  }
};
