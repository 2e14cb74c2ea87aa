#include "src/vmm/machine.hpp"

#include <algorithm>
#include <cassert>

namespace c4h::vmm {

namespace {
constexpr double kCycleEps = 1e-6;  // gigacycles; jobs this close are done
constexpr Bytes kDom0Memory = 256_MB;
}  // namespace

double memory_slowdown(Bytes working_set, Bytes domain_memory) {
  if (domain_memory == 0) return 1.0;
  const double ratio = static_cast<double>(working_set) / static_cast<double>(domain_memory);
  if (ratio <= 1.0) return 1.0;
  // Paging cost grows super-linearly in the overflow: once the working set
  // spills, every pass over it faults the spilled fraction back in, and the
  // faults themselves evict more. Calibrated so ws = 2×mem → ~10× slowdown,
  // which reproduces Fig 7's collapse of the 128 MB VM on 2 MB images.
  const double over = ratio - 1.0;
  return 1.0 + 3.0 * over + 6.0 * over * over;
}

Host::Host(sim::Simulation& sim, HostSpec spec)
    : sim_(sim),
      spec_(std::move(spec)),
      free_memory_(spec_.memory),
      battery_wh_(spec_.battery.capacity_wh) {
  assert(spec_.memory > kDom0Memory && "host too small for dom0");
  domains_.push_back(std::make_unique<Domain>(*this, spec_.name + "/dom0", DomainType::dom0,
                                              spec_.cores, kDom0Memory, 0));
  free_memory_ -= kDom0Memory;
}

Domain& Host::create_guest(std::string name, int vcpus, Bytes memory) {
  assert(memory <= free_memory_ && "host out of memory for guest");
  free_memory_ -= memory;
  domains_.push_back(std::make_unique<Domain>(
      *this, std::move(name), DomainType::guest, vcpus, memory, static_cast<int>(domains_.size())));
  return *domains_.back();
}

sim::Task<> Host::execute(Domain& domain, double gigacycles, int threads) {
  assert(&domain.host() == this);
  if (gigacycles <= 0) co_return;
  drain_battery_to_now();

  sim::Event done{sim_};
  const std::uint64_t id = next_job_id_++;
  Job job;
  job.id = id;
  job.remaining = gigacycles;
  const int usable = std::max(1, std::min(threads, domain.vcpus()));
  job.cap = usable * spec_.ghz * (1.0 - spec_.virt_overhead);
  job.last_update = sim_.now();
  job.done = &done;
  jobs_.emplace(id, job);
  recompute();
  co_await done.wait();
}

double Host::cpu_utilization() const {
  double used = 0;
  for (const auto& [id, j] : jobs_) used += j.rate;
  const double cap = capacity();
  return cap > 0 ? std::min(1.0, used / cap) : 0.0;
}

double Host::battery_fraction() {
  if (!battery_powered()) return 1.0;
  drain_battery_to_now();
  return std::max(0.0, battery_wh_ / spec_.battery.capacity_wh);
}

void Host::set_battery_fraction(double f) {
  if (!battery_powered()) return;
  battery_updated_ = sim_.now();
  battery_wh_ = std::clamp(f, 0.0, 1.0) * spec_.battery.capacity_wh;
}

void Host::drain_battery_to_now() {
  if (!battery_powered()) return;
  const double hours = to_seconds(sim_.now() - battery_updated_) / 3600.0;
  if (hours > 0) {
    const double watts =
        spec_.battery.idle_watts +
        (spec_.battery.busy_watts - spec_.battery.idle_watts) * cpu_utilization();
    battery_wh_ = std::max(0.0, battery_wh_ - watts * hours);
  }
  battery_updated_ = sim_.now();
}

void Host::advance() {
  const TimePoint now = sim_.now();
  for (auto& [id, j] : jobs_) {
    const double elapsed = to_seconds(now - j.last_update);
    if (elapsed > 0) j.remaining = std::max(0.0, j.remaining - elapsed * j.rate);
    j.last_update = now;
  }
}

void Host::recompute() {
  drain_battery_to_now();  // integrate at the old utilization first
  advance();

  std::vector<sim::Event*> completed;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->second.remaining <= kCycleEps) {
      completed.push_back(it->second.done);
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }

  // One "link" (host capacity) shared max-min with per-job parallelism caps.
  static constexpr std::uint32_t kCpu[] = {0};
  solver_.clear();
  for (const auto& [id, j] : jobs_) solver_.add_flow(kCpu, j.cap);
  solver_.solve([this](std::uint32_t) { return capacity(); });

  // One pending event, as in net::Network: the earliest job completion.
  Duration next = Duration::max();
  std::size_t i = 0;
  for (auto& [id, j] : jobs_) {
    j.rate = solver_.rate(i++);
    if (j.rate <= 0) continue;
    next = std::min(next, from_seconds(j.remaining / j.rate));
  }
  sim_.cancel(next_event_);
  if (next != Duration::max()) next_event_ = sim_.schedule(next, [this] { recompute(); });

  for (auto* ev : completed) ev->fire();
}

}  // namespace c4h::vmm
