#!/usr/bin/env python3
"""Seed test of the benchmark, at reduced size (perfbench --small).

    python3 perfbench/test_seed.py

For every workload: two runs of one seed must give identical simulated
results and schedule fingerprints, and a second seed must change both. Also
checks that BENCHMARK.json names exactly the workloads and metrics run.py
prints. Exits non-zero on any failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark command: build, tables, simulated())


def check(cond, msg, failures):
    print(("ok   " if cond else "FAIL ") + msg, flush=True)
    if not cond:
        failures.append(msg)


def main():
    failures = []
    binary = run.build()
    for w in run.WORKLOADS:
        def once(seed):
            return run.run_bin(binary, "--workload", w, "--seed", str(seed), "--small")

        a, b, c = once(11), once(11), once(12)
        check(a["attempted"] > 0 and a["finished"] and a["pending"] == 0 and a["wrong"] == 0,
              f"{w}: seed 11 completes every op with catalog sizes", failures)
        check(run.simulated(a) == run.simulated(b) and a["fingerprint"] == b["fingerprint"],
              f"{w}: same seed, identical simulated results and fingerprint", failures)
        check(run.simulated(a) != run.simulated(c) and a["fingerprint"] != c["fingerprint"],
              f"{w}: another seed changes the simulated results and fingerprint", failures)
        t = run.run_bin(binary, "--workload", w, "--seed", "11", "--small", "--traced")
        check(run.simulated(t) == run.simulated(a),
              f"{w}: tracing leaves the simulated results unchanged", failures)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check([x["name"] for x in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py runs", failures)
    check([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py", failures)
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.py", failures)
    print("FAILED" if failures else "all ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
