#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <flash_fetch|iot_ingest|city_fetch>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the system's sources in
src/) into $CARGO_TARGET_DIR (default .bench_build), checks that the
recorded schedule fingerprints still hold, then runs the workload untraced
in fresh processes, one repeat (set-up + measured phase) each, until at
least --seconds host seconds and three repeats have passed; host times are
CPU seconds at the host-speed reference's nominal speed (see Reference in
main.cpp), medians over the repeats, and every repeat must simulate the
same thing. With --trace 1 a further, traced run of the same seed gives the
per-layer numbers, and its simulated results must equal the untraced
run's exactly.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. Any failed check exits
with code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flash_fetch", "iot_ingest", "city_fetch")
OP_CLASSES = ("fetch", "store", "process")

# (name, unit, better) of every end-to-end metric, in output order.
END_TO_END = [
    ("host_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("fetch_p50_ms", "ms", "lower"),
    ("fetch_p99_ms", "ms", "lower"),
    ("store_p50_ms", "ms", "lower"),
    ("store_p99_ms", "ms", "lower"),
    ("process_p50_ms", "ms", "lower"),
    ("process_p99_ms", "ms", "lower"),
]

SPANS = [
    "vstore.command", "vstore.create", "vstore.place", "vstore.decision",
    "vstore.store", "vstore.fetch", "vstore.fetch.attempt", "vstore.process",
    "vstore.move", "vstore.return", "vstore.fetch_process", "kv.put", "kv.get",
    "overlay.route", "net.transfer", "net.transfer_striped", "net.msg", "fs.read",
    "fs.write", "vmm.xensocket", "svc.exec", "s3.get", "s3.put", "fed2.publish",
    "fed2.fetch",
]
TIERS = ("local", "neighborhood", "wide_area", "cloud")
FAIL_CODES = ("not_found", "already_exists", "no_capacity", "no_route", "unavailable",
              "invalid_argument", "timeout", "io_error", "permission_denied")
STEP_CLASSES = ("net_flow", "net_msg", "kv", "overlay", "other")


def _per_layer():
    rows = [
        ("sim.events", "count", "lower"),
        ("sim.host_ns_per_event", "ns", "lower"),
        ("sim.queue_peak", "count", "lower"),
        ("net.flows", "count", "lower"),
        ("net.msgs", "count", "lower"),
        ("net.bytes_mb", "MB", "lower"),
        ("net.active_flows_peak", "count", "lower"),
        ("net.flow_steps", "count", "lower"),
        ("overlay.routes", "count", "lower"),
        ("overlay.hops_per_route", "count", "lower"),
        ("kv.puts", "count", "lower"),
        ("kv.gets", "count", "lower"),
        ("kv.hit_ratio", "ratio", "higher"),
        ("kv.replication_msgs", "count", "lower"),
        ("kv.redistribution_msgs", "count", "lower"),
        ("vstore.fetch_retries", "count", "lower"),
        ("vstore.cloud_fallbacks", "count", "lower"),
        ("vstore.store_reroutes", "count", "lower"),
        ("vstore.op_failures", "count", "lower"),
        ("placement.decisions", "count", "lower"),
        ("placement.switches", "count", "lower"),
    ]
    for t in TIERS:
        rows.append((f"fed.fetch.{t}.count", "count",
                     "higher" if t in ("local", "neighborhood") else "lower"))
        rows.append((f"fed.fetch.{t}.p50_ms", "ms", "lower"))
    rows.append(("fed.dir_lookup_ms", "ms", "lower"))
    for s in SPANS:
        rows.append((f"span.{s}.count", "count", "lower"))
        rows.append((f"span.{s}.self_ms", "ms", "lower"))
        rows.append((f"span.{s}.tail_share", "ratio", "lower"))
    for c in STEP_CLASSES:
        rows.append((f"host.step.{c}.ms", "ms", "lower"))
        rows.append((f"host.step.{c}.count", "count", "lower"))
    rows.append(("host.slowdown", "ratio", "lower"))
    rows.append(("trace.overhead_frac", "ratio", "lower"))
    rows.append(("trace.peak_rss_mb", "MiB", "lower"))
    for code in FAIL_CODES:
        rows.append((f"fail.{code}", "count", "lower"))
    rows.append(("failed_frac", "ratio", "lower"))
    return rows


PER_LAYER = _per_layer()


def log(msg):
    print(msg, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_bin(binary, *args):
    out = subprocess.run([binary, *args], check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_fingerprints(binary, workload, seed, run_fp, problems):
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        recorded = json.load(f)["fingerprints"][workload]
    for s, fp in sorted(recorded.items()):
        got = run_fp if int(s) == seed else \
            run_bin(binary, "--workload", workload, "--seed", s, "--fingerprint")["fingerprint"]
        if got != fp:
            problems.append(f"schedule fingerprint of {workload} seed {s} is {got}, "
                            f"recorded {fp}")


def check_run(r, problems, label):
    if not r["finished"] or r["pending"] != 0:
        problems.append(f"{label}: {r['pending']} issued ops still pending at the end")
    if r["wrong"] != 0:
        problems.append(f"{label}: {r['wrong']} fetches returned a size other than the catalog's")
    if r["preload_failures"] != 0:
        problems.append(f"{label}: {r['preload_failures']} catalog preloads failed")


def simulated(r):
    """Everything seed-exact in a run: per-class counts and quantiles."""
    return {"sim": r["sim"], "attempted": r["attempted"], "failed": r["failed"]}


def tail_lines(r):
    for c in OP_CLASSES:
        n = r["sim"][f"{c}_ok"] + r["sim"][f"{c}_failed"]
        if n == 0:
            log(f"{c}: no samples")
            continue
        top = 100.0 * (1.0 - 10.0 / n) if n >= 10 else None
        p50, p99 = r["sim"][f"{c}_p50_ns"], r["sim"][f"{c}_p99_ns"]
        log(f"{c}: n={n} failed={r['sim'][f'{c}_failed']} "
            f"p50={p50 / 1e6 if p50 is not None else 'failed'} ms "
            f"p99={p99 / 1e6 if p99 is not None else 'failed'} ms "
            f"highest percentile with >=10 samples beyond it: "
            f"{'none' if top is None else f'p{top:.4f}'}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    binary = build()
    problems = []
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    repeats = []
    start = time.monotonic()
    while len(repeats) < 3 or time.monotonic() - start < a.seconds:
        repeats.append(run_bin(binary, *base))
    r = repeats[0]
    check_run(r, problems, "untraced run")
    if any(simulated(x) != simulated(r) for x in repeats):
        problems.append("repeats of one seed simulated different results")
    check_fingerprints(binary, a.workload, a.seed, r["fingerprint"], problems)
    log(f"{a.workload} seed {a.seed}: schedule {r['fingerprint']}, {len(repeats)} repeats")
    tail_lines(r)

    def host_median(key):
        return statistics.median(x["host"][key] for x in repeats)

    def at_reference(x, key):
        return x["host"][key] / x["host"]["slowdown"]

    host = statistics.median(at_reference(x, "cpu_s") for x in repeats)
    metrics = {}
    if a.trace == 0:
        values = {
            "host_s": host,
            "setup_s": statistics.median(at_reference(x, "setup_cpu_s") for x in repeats),
            "peak_rss_mb": host_median("peak_rss_mb"),
        }
        for c in OP_CLASSES:
            for q in ("p50", "p99"):
                ns = r["sim"][f"{c}_{q}_ns"]
                if ns is None:
                    problems.append(f"{c} {q} has no value (no samples, or a failed op)")
                    continue
                values[f"{c}_{q}_ms"] = ns / 1e6
        for name, unit, _ in END_TO_END:
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
    else:
        t = run_bin(binary, *base, "--traced")
        check_run(t, problems, "traced run")
        if simulated(t) != simulated(r):
            problems.append("the traced run's simulated results differ from the untraced run's")
        layers = dict(t["layers"])
        layers["sim.host_ns_per_event"] = host / max(r["host"]["events"], 1) * 1e9
        layers["host.slowdown"] = host_median("slowdown")
        layers["trace.overhead_frac"] = at_reference(t, "cpu_s") / host - 1.0
        layers["trace.peak_rss_mb"] = t["host"]["peak_rss_mb"]
        layers["failed_frac"] = r["failed"] / max(r["attempted"], 1)
        for name, unit, _ in PER_LAYER:
            if name not in layers:
                problems.append(f"per-layer metric {name} missing")
                continue
            metrics[name] = {"value": layers[name], "unit": unit}

    for p in problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
