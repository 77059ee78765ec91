#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--tiny] [--corrupt <phase>]

Run from the root of a source checkout.  The script builds
perfbench/main.exe with dune, runs it, checks that the result names
exactly the metrics BENCHMARK.json lists (end-to-end metrics untraced,
per-layer metrics traced) with their units, and
prints the result JSON as the last line of stdout.  Any failed build,
output check or metric check exits non-zero without a result.

--tiny runs the self-test size: its last line is prefixed "SMOKE " so
it can never be taken for a benchmark result.  --corrupt damages one
output of the named phase (analyze-scratch, reanalyze-edits or store)
before the program's checks, which must then fail.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the program is built from."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".report")) or f in ("dune", "dune-project"):
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
        if os.path.isfile(top):
            with open(top, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the checkout root (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", choices=["analyze-scratch", "reanalyze-edits", "store"])
    args = ap.parse_args()

    # --cache=disabled: the build writes only inside the checkout
    build = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                            "./perfbench/main.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--meta", "commit=" + commit(), "--meta", "source_sha256=" + source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    last = lines[-1]
    prefix = "SMOKE " if args.tiny else ""
    if not last.startswith(prefix):
        fail("unexpected last line: " + last[:200])
    result = json.loads(last[len(prefix):])

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run")
    # every workload reports every metric of its kind
    want = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]
    got = result["metrics"]
    if sorted(got) != sorted(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            fail("%s has unit %r, BENCHMARK.json says %r" % (name, m["unit"], units.get(name)))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("%s is not a finite number" % name)
        if args.trace == "0" and not args.tiny and m["value"] <= 0:
            fail("%s must be positive, got %r" % (name, m["value"]))

    for line in lines[:-1]:
        print(line)
    print(last, flush=True)


if __name__ == "__main__":
    main()
