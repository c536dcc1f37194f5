#!/usr/bin/env python3
"""Builds and runs the kcenter benchmark (one workload per call).

    python3 perfbench/run.py --workload batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the library from
the repository's own build file) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild incrementally.  The
build log goes to stderr; the last line of stdout is the result object:

    {"correct": true, "attempted": 16, "failed": 0,
     "metrics": {"wall_s": {"value": 6.27, "unit": "s"}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (a layer the workload never reaches
reads 0; a missing metric of a layer it does reach is a failed check).
Exit status: 0 when every output check passed, 1 when a check
failed or the run broke, 2 on a usage or build error.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# A run stops after this long; the build before the first run is not
# counted.
RUN_TIMEOUT_S = 175
# Name prefixes of the per-layer metrics each workload emits.  A traced
# run must emit every declared metric that matches its workload's
# prefixes; the others belong to layers it never reaches and read 0.
REACHES = {
    "batch": ("engine.", "workload.", "mpc.", "core.", "trace."),
    "stream": ("engine.", "workload.", "dataset.", "stream.", "core.solve",
               "core.eval", "trace."),
    "turnstile": ("engine.", "workload.", "dynamic.", "sketch.",
                  "core.solve", "core.eval", "trace."),
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets=("kc_perfbench",)):
    """Configures (once) and builds the benchmark package; returns the
    build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "kcenter.hpp")):
        fail(f"no library sources under {ROOT}/src: run from a checkout of "
             f"the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    cmd = ["cmake", "--build", bdir, "-j", "4", "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return bdir


def load_catalogue():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench


def declared(bench, trace):
    """{name: unit} of the metrics a run with this --trace prints."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def complete(result, bench, workload, trace):
    """Checks the program's metrics against the catalogue and fills in the
    per-layer metrics of layers the workload does not reach (0).  Returns
    a list of problems."""
    want = declared(bench, trace)
    reached = REACHES[workload] if trace else ("",)
    got = result.get("metrics", {})
    problems = []
    for name, m in got.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        elif name not in want:
            problems.append(f"metric {name!r} is not declared in "
                            f"BENCHMARK.json")
        elif m.get("unit") != want[name]:
            problems.append(f"metric {name!r} has unit {m.get('unit')!r}, "
                            f"BENCHMARK.json says {want[name]!r}")
    for name, unit in want.items():
        if name not in got:
            if name.startswith(reached):
                problems.append(f"metric {name!r} missing")
            got[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: got[name] for name in want}
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_catalogue() if os.path.isfile(BENCHMARK_JSON) else None
    if bench is None:
        fail("BENCHMARK.json not found at the repository root")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")

    bdir = build()
    out_dir = bdir + "-out"
    cmd = [os.path.join(bdir, "kc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line from kc_perfbench (exit {proc.returncode})",
             code=1)
    problems = complete(result, bench, args.workload, args.trace)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
        result["failed"] = result.get("failed", 0) + len(problems)
        result["attempted"] = result.get("attempted", 0) + len(problems)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and not problems else 1)


if __name__ == "__main__":
    main()
