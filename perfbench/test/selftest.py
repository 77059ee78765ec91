#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size.

    python3 perfbench/test/selftest.py

Run from the checkout root.  For every workload it asserts that

  * an untraced run prints every end-to-end metric BENCHMARK.json lists
    and a traced run every per-layer metric, each with its unit;
  * a corrupted output of each phase (a flipped report byte, a changed
    served report line, a flipped replica digest) trips the checks:
    non-zero exit and no result line;
  * a second seed runs clean.

Tiny runs end with a "SMOKE " line, never a result.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def bench(workload, seed, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "2",
                 "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def metrics_of(proc):
    last = proc.stdout.strip().splitlines()[-1]
    assert last.startswith("SMOKE "), "tiny run must end with a SMOKE line: " + last[:100]
    return json.loads(last[len("SMOKE "):])["metrics"]


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p = bench(w, 1, trace)
            if p.returncode != 0:
                failures.append("%s trace=%d failed:\n%s" % (w, trace, p.stderr[-2000:]))
                continue
            got = metrics_of(p)
            missing = sorted({m["name"] for m in spec[kind]} - set(got))
            if missing:
                failures.append("%s trace=%d never printed %s" % (w, trace, missing))
            for name, m in got.items():
                if units.get(name) != m["unit"]:
                    failures.append("%s: %s printed with unit %r" % (w, name, m["unit"]))
        for phase in ("analyze-scratch", "reanalyze-edits", "store"):
            p = bench(w, 1, 0, "--corrupt", phase)
            if p.returncode == 0 or "SMOKE" in p.stdout or "output check failed" not in p.stderr:
                failures.append("%s: a corrupted %s output did not trip the checks" % (w, phase))
        p = bench(w, 2, 0)
        if p.returncode != 0:
            failures.append("%s: seed 2 failed:\n%s" % (w, p.stderr[-2000:]))
        print("ok " + w, flush=True)
    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print("self-test passed: %d metrics printed with their units" % len(units))


if __name__ == "__main__":
    main()
