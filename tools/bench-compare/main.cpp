// bench-compare — guards the simulated-metric contract of bench artifacts.
//
// Compares freshly produced `BENCH_<name>.json` files (schema c4h-bench-v1)
// against checked-in baselines (bench/baselines/). The rule of the tree is
// that simulated series are a pure function of the seed, so any numeric
// drift in them is a behavior change that must be explained and re-baselined
// deliberately — CI fails. Host-side cost series (units suffixed "-wall",
// e.g. "ms-wall"/"mb-wall") are advisory: regressions print warnings but
// never fail the build, because wall-clock and RSS depend on the runner.
//
//   bench-compare --baseline <dir> <fresh.json...> [--tol 1e-9]
//                 [--wall-slack 1.5] [--require-all]
//
// Exit codes: 0 = clean (warnings allowed), 1 = simulated drift (or missing
// rows under --require-all), 2 = usage / IO / parse error, 3 = a fresh
// artifact has no baseline file at all (a new bench must be baselined
// deliberately, not silently waved through).
//
// A fresh artifact may carry a *subset* of the baseline's rows (the --quick
// lanes run shortened sweeps; every label they do produce is seed-identical
// to the full run), so only the intersection is compared and the skip count
// is reported. A fresh row with no baseline counterpart is a new metric:
// reported, and only fatal with --require-all.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

namespace {

struct Point {
  double value = 0.0;
  std::string unit;
};

struct Artifact {
  std::string bench;
  double seed = 0.0;
  // label \x1f metric -> point; std::map so mismatch reports come out in a
  // stable sorted order (determinism rule D3 applies to tools too).
  std::map<std::string, Point> points;
};

bool wall_unit(const std::string& unit) {
  return unit.size() >= 5 && unit.compare(unit.size() - 5, 5, "-wall") == 0;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool load_artifact(const std::string& path, Artifact& a, std::string& err) {
  std::string text;
  if (!read_file(path, text)) {
    err = "cannot read " + path;
    return false;
  }
  auto parsed = c4h::obs::json_parse(text);
  if (!parsed.ok()) {
    err = path + ": " + parsed.error().message;
    return false;
  }
  const c4h::obs::JsonValue& root = *parsed;
  const auto* schema = root.find("schema");
  if (schema == nullptr || schema->str != "c4h-bench-v1") {
    err = path + ": not a c4h-bench-v1 artifact";
    return false;
  }
  if (const auto* b = root.find("bench")) a.bench = b->str;
  if (const auto* s = root.find("seed")) a.seed = s->num;
  const auto* series = root.find("series");
  if (series == nullptr) {
    err = path + ": no series array";
    return false;
  }
  for (const auto& row : series->items) {
    const auto* label = row.find("label");
    const auto* metric = row.find("metric");
    const auto* value = row.find("value");
    const auto* unit = row.find("unit");
    if (label == nullptr || metric == nullptr || value == nullptr) {
      err = path + ": malformed series row";
      return false;
    }
    Point p;
    p.value = value->num;
    if (unit != nullptr) p.unit = unit->str;
    a.points[label->str + '\x1f' + metric->str] = p;
  }
  return true;
}

std::string basename_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

void print_key(const std::string& key) {
  const auto sep = key.find('\x1f');
  std::printf("%s / %s", key.substr(0, sep).c_str(), key.substr(sep + 1).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir;
  double tol = 1e-9;
  double wall_slack = 1.5;
  bool require_all = false;
  std::vector<std::string> fresh;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
      tol = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--wall-slack") == 0 && i + 1 < argc) {
      wall_slack = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--require-all") == 0) {
      require_all = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "bench-compare: unknown flag %s\n", argv[i]);
      return 2;
    } else {
      fresh.emplace_back(argv[i]);
    }
  }
  if (baseline_dir.empty() || fresh.empty()) {
    std::fprintf(stderr,
                 "usage: bench-compare --baseline <dir> <fresh.json...> "
                 "[--tol 1e-9] [--wall-slack 1.5] [--require-all]\n");
    return 2;
  }

  int drift = 0;
  int warnings = 0;
  int missing_baselines = 0;
  for (const std::string& path : fresh) {
    const std::string base_path = baseline_dir + '/' + basename_of(path);
    Artifact now;
    std::string err;
    if (!load_artifact(path, now, err)) {
      std::fprintf(stderr, "bench-compare: %s\n", err.c_str());
      return 2;
    }
    Artifact base;
    if (!load_artifact(base_path, base, err)) {
      std::printf("%-28s MISSING baseline (%s)\n", now.bench.c_str(),
                  basename_of(base_path).c_str());
      ++missing_baselines;
      continue;
    }
    if (base.seed != now.seed) {
      std::printf("%-28s FAIL seed mismatch (baseline %.0f, fresh %.0f)\n", now.bench.c_str(),
                  base.seed, now.seed);
      ++drift;
      continue;
    }

    int compared = 0;
    int fresh_only = 0;
    int file_drift = 0;
    for (const auto& [key, p] : now.points) {
      const auto it = base.points.find(key);
      if (it == base.points.end()) {
        ++fresh_only;
        if (require_all) {
          std::printf("  new row (no baseline): ");
          print_key(key);
          std::printf("\n");
          ++file_drift;
        }
        continue;
      }
      ++compared;
      const Point& b = it->second;
      if (wall_unit(p.unit) || wall_unit(b.unit)) {
        // Host-cost series: advisory only.
        if (b.value > 0 && p.value > b.value * wall_slack) {
          std::printf("  warn: ");
          print_key(key);
          std::printf(" wall cost %.2f %s vs baseline %.2f (> %.2fx)\n", p.value, p.unit.c_str(),
                      b.value, wall_slack);
          ++warnings;
        }
        continue;
      }
      const double scale = std::max(1.0, std::fabs(b.value));
      if (std::fabs(p.value - b.value) > tol * scale || p.unit != b.unit) {
        std::printf("  DRIFT: ");
        print_key(key);
        std::printf(" baseline %.17g %s, fresh %.17g %s\n", b.value, b.unit.c_str(), p.value,
                    p.unit.c_str());
        ++file_drift;
      }
    }
    // Baseline rows missing from fresh are expected under --quick; count
    // them so a silently shrinking sweep is at least visible.
    const int baseline_only = static_cast<int>(base.points.size()) - compared;
    std::printf("%-28s %s  (%d compared, %d baseline-only, %d fresh-only)\n", now.bench.c_str(),
                file_drift == 0 ? "ok" : "FAIL", compared, baseline_only, fresh_only);
    drift += file_drift;
  }
  if (warnings > 0) std::printf("%d wall-cost warning(s) — advisory only\n", warnings);
  if (drift > 0) {
    std::printf("simulated-metric drift detected: rebaseline deliberately (see "
                "bench/baselines/README.md) or fix the regression\n");
    return 1;
  }
  if (missing_baselines > 0) {
    std::printf("%d artifact(s) with no baseline: check in bench/baselines/ entries for new "
                "benches before they can gate\n",
                missing_baselines);
    return 3;
  }
  return 0;
}
