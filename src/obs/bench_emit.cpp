#include "src/obs/bench_emit.hpp"

#include <cstdio>

#include "src/common/rng.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"

namespace c4h::obs {

BenchReport::BenchReport(std::string bench, std::uint64_t seed)
    : bench_(std::move(bench)), seed_(seed), run_id_(splitmix64(seed)) {}

void BenchReport::meta(std::string key, std::string value) {
  meta_.emplace_back(std::move(key), std::move(value));
}

void BenchReport::add(std::string label, std::string metric, double value, std::string unit) {
  series_.push_back(BenchPoint{std::move(label), std::move(metric), value, std::move(unit)});
}

std::string BenchReport::json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("c4h-bench-v1");
  w.key("bench").value(bench_);
  w.key("seed").value(seed_);
  w.key("run_id").value(run_id_);
  w.key("meta").begin_object();
  for (const auto& [k, v] : meta_) w.key(k).value(v);
  w.end_object();
  w.key("series").begin_array();
  for (const BenchPoint& p : series_) {
    w.begin_object();
    w.key("label").value(p.label);
    w.key("metric").value(p.metric);
    w.key("value").value(p.value);
    w.key("unit").value(p.unit);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

Result<std::string> BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + bench_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Error{Errc::io_error, "cannot open " + path + " for writing"};
  }
  const std::string doc = json();
  const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (n != doc.size() || !closed) {
    return Error{Errc::io_error, "short write to " + path};
  }
  return path;
}

void add_latency_tails(BenchReport& report, const std::string& label,
                       const std::string& metric, const LogHistogram& h) {
  constexpr double kNsToMs = 1e-6;
  report.add(label, metric + ".count", static_cast<double>(h.count()), "count");
  if (h.count() == 0) return;
  report.add(label, metric + ".mean", h.mean() * kNsToMs, "ms");
  report.add(label, metric + ".p50", static_cast<double>(h.quantile(50.0)) * kNsToMs, "ms");
  report.add(label, metric + ".p99", static_cast<double>(h.quantile(99.0)) * kNsToMs, "ms");
  report.add(label, metric + ".p999", static_cast<double>(h.quantile(99.9)) * kNsToMs, "ms");
}

}  // namespace c4h::obs
