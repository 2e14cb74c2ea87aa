#include "src/mon/monitor.hpp"

namespace c4h::mon {

Buffer ResourceRecord::serialize() const {
  Writer w{8 * sizeof(std::uint64_t) + 1};  // eight 8-byte fields and a flag
  w.write(node.raw());
  w.write(cpu_load);
  w.write(free_memory);
  w.write(mandatory_bin_free);
  w.write(voluntary_bin_free);
  w.write(uplink_estimate);
  w.write(battery);
  w.write(battery_powered);
  w.write(sampled_at_ns);
  return std::move(w).take();
}

Result<ResourceRecord> ResourceRecord::deserialize(const Buffer& b) {
  Reader r{b};
  ResourceRecord rec;
  auto node = r.read<std::uint64_t>();
  if (!node) return node.error();
  rec.node = Key{*node};
  auto cpu = r.read_double();
  if (!cpu) return cpu.error();
  rec.cpu_load = *cpu;
  auto mem = r.read<Bytes>();
  if (!mem) return mem.error();
  rec.free_memory = *mem;
  auto mbin = r.read<Bytes>();
  if (!mbin) return mbin.error();
  rec.mandatory_bin_free = *mbin;
  auto vbin = r.read<Bytes>();
  if (!vbin) return vbin.error();
  rec.voluntary_bin_free = *vbin;
  auto up = r.read_double();
  if (!up) return up.error();
  rec.uplink_estimate = *up;
  auto bat = r.read_double();
  if (!bat) return bat.error();
  rec.battery = *bat;
  auto bp = r.read_bool();
  if (!bp) return bp.error();
  rec.battery_powered = *bp;
  auto ts = r.read<std::int64_t>();
  if (!ts) return ts.error();
  rec.sampled_at_ns = *ts;
  return rec;
}

ResourceRecord ResourceMonitor::sample() const {
  auto& host = node_.host();
  ResourceRecord rec;
  rec.node = node_.id();
  rec.cpu_load = host.cpu_utilization();
  rec.free_memory = host.free_memory();
  rec.mandatory_bin_free = watcher_.mandatory_free ? watcher_.mandatory_free() : 0;
  rec.voluntary_bin_free = watcher_.voluntary_free ? watcher_.voluntary_free() : 0;
  rec.uplink_estimate = uplink_;
  rec.battery = host.battery_fraction();
  rec.battery_powered = host.battery_powered();
  rec.sampled_at_ns = kv_.overlay().simulation().now().count();
  return rec;
}

sim::Task<> ResourceMonitor::publish_once() {
  if (!node_.online()) co_return;
  const ResourceRecord rec = sample();
  (void)co_await kv_.put(node_, node_.id(), rec.serialize(), kv::OverwritePolicy::overwrite);
  ++updates_;
}

sim::Task<> ResourceMonitor::loop() {
  auto& sim = kv_.overlay().simulation();
  // One loop per node incarnation: after a crash+restart the loop started for
  // the new life takes over and this one retires at its next tick.
  const std::uint64_t inc = node_.incarnation();
  for (;;) {
    co_await sim.delay(config_.period);
    if (!node_.online() || node_.incarnation() != inc) co_return;
    co_await publish_once();
  }
}

void ResourceMonitor::start() {
  kv_.overlay().simulation().spawn([](ResourceMonitor& m) -> sim::Task<> {
    co_await m.publish_once();
    co_await m.loop();
  }(*this));
}

sim::Task<Result<ResourceRecord>> fetch_record(kv::KvStore& kv, overlay::ChimeraNode& origin,
                                               Key node, obs::Ctx ctx) {
  auto raw = co_await kv.get(origin, node, ctx);
  if (!raw.ok()) co_return raw.error();
  co_return ResourceRecord::deserialize(*raw);
}

}  // namespace c4h::mon
