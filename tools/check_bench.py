#!/usr/bin/env python3
"""Perf/determinism gate for the engine-smoke JSON records (stdlib only).

Compares a candidate JSONL file of ``engine_pipeline`` records (what
``kcenter_cli --json`` appends) against a baseline:

* the two files must cover the same set of configurations, one per
  (pipeline, n, k, z, eps, dim, norm) key — so one file can hold several
  configurations of a pipeline; a record without dim/norm reads as d = 2,
  l2 (the kcenter_cli defaults), and the first record per key is kept;
* the *result* columns must match the baseline — the engine layer is
  deterministic, so any drift in radius/quality/storage is a real
  behavioral change, not noise.  Integer columns (coreset, words, rounds,
  comm_words) compare exactly; float columns (radius, radius_direct,
  quality) compare within a 1e-9 *relative* epsilon, absorbing last-ULP
  libm/FMA differences between the machine that generated the baseline
  and the CI runner while still catching any real drift.  The fault
  accounting of a chaos run (``fault_*`` and ``degraded``, present only
  when injection was on) is simulated, not timed, and compares exactly.
  The bit-exact thread-determinism guarantee is enforced where it is
  meaningful — same binary, same machine — by tests/test_parallel.cpp and
  the --threads 8 vs 1 CI step, which passes ``--exact`` so its float
  columns compare with equality, not the epsilon.
* the *timing* columns (build_ms, solve_ms) must stay within a generous
  ``--tolerance`` factor (default 3x) of the baseline, ignoring entries
  below an absolute noise floor; ``--ignore-time`` skips this check (used
  by the thread-determinism step, which compares two runs of the same
  build at different ``--threads``).
* with ``--wire``, every candidate record of model ``mpc`` must carry a
  measured ``wire_ratio`` (encoded frame bytes / 8*comm_words) in
  (0, --max-wire-ratio]; used by the wire-backend CI legs, where the
  candidate ran under ``--backend wire`` and the measured frame bytes
  must track the model's words accounting within the framing budget.

Usage:
    tools/check_bench.py CANDIDATE BASELINE [--tolerance 3.0] [--ignore-time]

A second mode gates the SoA kernel throughput (``--kernel``): the file's
``hotpath_kernel_throughput`` records (bench_mbc_offline Part 5) are
grouped by (n, d, norm) and the fused SIMD path must sustain at least
``--min-speedup`` times the scalar AoS baseline's points/sec in every
group.  The ratio is machine-independent (both variants run in the same
process seconds apart), so a modest floor is a stable CI gate:
    tools/check_bench.py --kernel bench.json --min-speedup 1.2

A third mode gates the out-of-core dataset layer (``--scale``) over the
``scale_ingest`` records bench_scale emits, keyed by (n, pipeline,
source):
* every candidate key present in the baseline must match it in the
  result columns (coreset/words exact, radius within the relative
  epsilon) — the CI smoke runs ``bench_scale --quick`` and the committed
  BENCH_scale.json carries both the quick and the full (1M/10M) rows, so
  the smoke keys always overlap;
* disk-vs-memory identity: where the candidate holds both a ``kcb`` and
  a ``memory`` row for the same (n, pipeline), their result columns must
  agree — streaming from disk is bit-identical to the in-memory path by
  contract;
* ingest throughput: the ``kcb`` row must sustain at least
  ``--min-ingest-ratio`` (default 0.5) of the ``memory`` row's
  points/sec (same process, minutes apart — a stable ratio);
* fixed memory: per pipeline, peak_rss_mb of the largest-n ``kcb`` row
  may exceed the smallest-n one by at most ``--rss-slack-mb`` (default
  160 — the chunk budget plus scratch; an O(n) materialization
  regression at 10M points overshoots this by an order of magnitude).
    tools/check_bench.py --scale scale_smoke.json BENCH_scale.json

Refreshing the committed baseline (BENCH_engine.json) after an intended
behavioral or performance change:
    ./build/tools/kcenter_cli --pipeline all --n 2000 --k 3 --z 16 --eps 0.5 \
        --json BENCH_engine.new.json --json-tag "PR<N>"
    mv BENCH_engine.new.json BENCH_engine.json
and mention the expected column drift in the PR description.
"""

import argparse
import json
import sys

EXACT_COLUMNS = ("coreset", "words", "rounds", "comm_words")
FAULT_PREFIX = "fault_"
FLOAT_COLUMNS = ("radius", "radius_direct", "quality")
FLOAT_REL_EPS = 1e-9
TIME_COLUMNS = ("build_ms", "solve_ms")
# Timing entries below this many milliseconds are noise on a busy CI
# runner; they are not gated.
TIME_FLOOR_MS = 10.0


def float_close(a, b):
    return abs(a - b) <= FLOAT_REL_EPS * max(abs(a), abs(b), 1.0)


def record_key(rec):
    """The configuration a record ran: pipeline plus its shared problem
    parameters.  Records written before dim/norm were stamped ran the
    defaults."""
    return (rec["pipeline"], rec.get("n"), rec.get("k"), rec.get("z"),
            rec.get("eps"), rec.get("dim", 2), rec.get("norm", "l2"))


def load_records(path):
    records = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{line_no}: not JSON: {exc}")
            if rec.get("experiment") != "engine_pipeline":
                continue
            if rec.get("pipeline") is None:
                raise SystemExit(f"{path}:{line_no}: record without 'pipeline'")
            # Keep the first record per key: the smoke run emits one per
            # pipeline, and thread-sweep files list threads=1 first.
            records.setdefault(record_key(rec), rec)
    if not records:
        raise SystemExit(f"{path}: no engine_pipeline records found")
    return records


def load_kernel_records(path):
    """Last hotpath_kernel_throughput record per (n, d, norm, variant) —
    appended bench logs gate the freshest run."""
    records = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{line_no}: not JSON: {exc}")
            if rec.get("experiment") != "hotpath_kernel_throughput":
                continue
            key = (rec.get("n"), rec.get("d"), rec.get("norm"),
                   rec.get("variant"))
            records[key] = rec
    if not records:
        raise SystemExit(
            f"{path}: no hotpath_kernel_throughput records found")
    return records


def check_kernel(path, min_speedup):
    records = load_kernel_records(path)
    groups = sorted({(n, d, norm) for (n, d, norm, _) in records})
    failures = []
    for n, d, norm in groups:
        scalar = records.get((n, d, norm, "scalar_aos"))
        simd = records.get((n, d, norm, "simd_soa"))
        if scalar is None or simd is None:
            failures.append(
                f"n={n} d={d} {norm}: missing scalar_aos/simd_soa pair")
            continue
        ratio = float(simd["pts_per_sec"]) / float(scalar["pts_per_sec"])
        status = "ok" if ratio >= min_speedup else "FAIL"
        print(f"  n={n} d={d} {norm}: simd/scalar = {ratio:.2f}x "
              f"({float(simd['pts_per_sec']) / 1e6:.0f} vs "
              f"{float(scalar['pts_per_sec']) / 1e6:.0f} Mpts/s) [{status}]")
        if ratio < min_speedup:
            failures.append(
                f"n={n} d={d} {norm}: simd/scalar speedup {ratio:.2f}x "
                f"below the {min_speedup:g}x floor")
    if failures:
        print(f"check_bench: FAIL ({path}, kernel throughput)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"check_bench: OK — {len(groups)} kernel configs at >= "
          f"{min_speedup:g}x scalar throughput")
    return 0


SCALE_EXACT_COLUMNS = ("coreset", "words")
SCALE_FLOAT_COLUMNS = ("radius",)


def load_scale_records(path):
    """scale_ingest records keyed by (n, pipeline, source); the last record
    per key wins (appended logs gate the freshest run)."""
    records = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{line_no}: not JSON: {exc}")
            if rec.get("experiment") != "scale_ingest":
                continue
            key = (rec.get("n"), rec.get("pipeline"), rec.get("source"))
            if None in key:
                raise SystemExit(
                    f"{path}:{line_no}: scale_ingest record without "
                    f"n/pipeline/source")
            records[key] = rec
    if not records:
        raise SystemExit(f"{path}: no scale_ingest records found")
    return records


def check_scale(candidate_path, baseline_path, min_ingest_ratio,
                rss_slack_mb):
    candidate = load_scale_records(candidate_path)
    baseline = load_scale_records(baseline_path)
    failures = []

    # 1. Baseline determinism: candidate keys that the baseline covers must
    # reproduce its result columns.
    overlap = sorted(set(candidate) & set(baseline))
    if not overlap:
        failures.append(
            "no (n, pipeline, source) keys shared with the baseline — "
            "wrong sizes or a renamed pipeline?")
    for key in overlap:
        cand, base = candidate[key], baseline[key]
        for col in SCALE_EXACT_COLUMNS:
            if cand.get(col) != base.get(col):
                failures.append(
                    f"{key}: {col} = {cand.get(col)!r}, "
                    f"baseline {base.get(col)!r} (exact column)")
        for col in SCALE_FLOAT_COLUMNS:
            if not float_close(float(cand.get(col, 0.0)),
                               float(base.get(col, 0.0))):
                failures.append(
                    f"{key}: {col} = {cand.get(col)!r}, "
                    f"baseline {base.get(col)!r} (beyond {FLOAT_REL_EPS:g} "
                    f"relative)")

    # 2. Disk-vs-memory identity + ingest-throughput floor, inside the
    # candidate run.
    pairs = sorted({(n, p) for (n, p, s) in candidate if s == "memory"})
    for n, pipeline in pairs:
        disk = candidate.get((n, pipeline, "kcb"))
        mem = candidate[(n, pipeline, "memory")]
        if disk is None:
            failures.append(f"n={n} {pipeline}: memory row without a kcb row")
            continue
        for col in SCALE_EXACT_COLUMNS:
            if disk.get(col) != mem.get(col):
                failures.append(
                    f"n={n} {pipeline}: kcb {col} = {disk.get(col)!r} != "
                    f"memory {mem.get(col)!r} (disk runs must reproduce the "
                    f"in-memory result exactly)")
        for col in SCALE_FLOAT_COLUMNS:
            if not float_close(float(disk.get(col, 0.0)),
                               float(mem.get(col, 0.0))):
                failures.append(
                    f"n={n} {pipeline}: kcb {col} = {disk.get(col)!r} != "
                    f"memory {mem.get(col)!r} (disk runs must reproduce the "
                    f"in-memory result)")
        ratio = (float(disk["pts_per_sec"]) / float(mem["pts_per_sec"])
                 if float(mem.get("pts_per_sec", 0.0)) > 0 else 0.0)
        status = "ok" if ratio >= min_ingest_ratio else "FAIL"
        print(f"  n={n} {pipeline}: kcb/memory ingest = {ratio:.2f}x "
              f"[{status}]")
        if ratio < min_ingest_ratio:
            failures.append(
                f"n={n} {pipeline}: disk ingest at {ratio:.2f}x of the "
                f"in-memory rate, below the {min_ingest_ratio:g}x floor")

    # 3. Fixed memory: per pipeline, the largest-n disk row's RSS
    # high-water mark may sit at most rss_slack_mb above the smallest-n
    # one.  (RSS is process-monotone and bench_scale orders disk runs
    # ascending in n, so the delta isolates what the larger run added.)
    by_pipeline = {}
    for (n, pipeline, source), rec in candidate.items():
        if source == "kcb" and "peak_rss_mb" in rec:
            by_pipeline.setdefault(pipeline, []).append(
                (n, float(rec["peak_rss_mb"])))
    for pipeline, rows in sorted(by_pipeline.items()):
        if len(rows) < 2:
            continue
        rows.sort()
        (n_lo, rss_lo), (n_hi, rss_hi) = rows[0], rows[-1]
        delta = rss_hi - rss_lo
        status = "ok" if delta <= rss_slack_mb else "FAIL"
        print(f"  {pipeline}: peak RSS {rss_lo:.0f} MB @ n={n_lo} -> "
              f"{rss_hi:.0f} MB @ n={n_hi} (delta {delta:.0f} MB) [{status}]")
        if delta > rss_slack_mb:
            failures.append(
                f"{pipeline}: disk-run peak RSS grew {delta:.0f} MB from "
                f"n={n_lo} to n={n_hi}, beyond the {rss_slack_mb:g} MB "
                f"slack — out-of-core runs must not scale memory with n")

    if failures:
        print(f"check_bench: FAIL ({candidate_path} vs {baseline_path}, "
              f"scale)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"check_bench: OK — {len(candidate)} scale rows: baseline "
          f"reproduced, disk == memory, ingest >= {min_ingest_ratio:g}x, "
          f"RSS flat in n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", help="fresh engine smoke JSONL")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline JSONL (omitted in --kernel "
                             "mode)")
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed slowdown factor for timing columns")
    parser.add_argument("--ignore-time", action="store_true",
                        help="skip the timing check (determinism-only mode)")
    parser.add_argument("--wire", action="store_true",
                        help="require every candidate mpc record to report a "
                             "measured wire_ratio in (0, --max-wire-ratio] — "
                             "for wire-backend runs")
    parser.add_argument("--max-wire-ratio", type=float, default=2.0,
                        help="--wire mode: allowed wire_bytes/(8*comm_words) "
                             "ceiling (framing + checksum overhead budget)")
    parser.add_argument("--exact", action="store_true",
                        help="compare float columns exactly instead of within "
                             "the relative epsilon — for same-binary, "
                             "same-runner comparisons (the --threads 8 vs 1 "
                             "determinism gate), where bit-identity is the "
                             "contract")
    parser.add_argument("--kernel", action="store_true",
                        help="gate the SoA kernel throughput records in "
                             "CANDIDATE instead of diffing engine reports")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="--kernel mode: required simd/scalar points-per-"
                             "sec ratio in every (n, d, norm) group")
    parser.add_argument("--scale", action="store_true",
                        help="gate the out-of-core scale_ingest records in "
                             "CANDIDATE against BASELINE (bench_scale runs)")
    parser.add_argument("--min-ingest-ratio", type=float, default=0.5,
                        help="--scale mode: required kcb/memory points-per-"
                             "sec ratio at each shared (n, pipeline)")
    parser.add_argument("--rss-slack-mb", type=float, default=160.0,
                        help="--scale mode: allowed peak-RSS growth between "
                             "the smallest- and largest-n disk runs")
    args = parser.parse_args()

    if args.kernel:
        return check_kernel(args.candidate, args.min_speedup)
    if args.baseline is None:
        parser.error("BASELINE is required unless --kernel is given")
    if args.scale:
        return check_scale(args.candidate, args.baseline,
                           args.min_ingest_ratio, args.rss_slack_mb)

    candidate = load_records(args.candidate)
    baseline = load_records(args.baseline)
    failures = []

    missing = sorted(set(baseline) - set(candidate), key=str)
    extra = sorted(set(candidate) - set(baseline), key=str)
    if missing:
        failures.append(f"configurations missing from candidate: {missing}")
    if extra:
        failures.append(f"configurations not in baseline: {extra}")

    for key in sorted(set(candidate) & set(baseline), key=str):
        cand, base = candidate[key], baseline[key]
        name = " ".join(str(part) for part in key)
        for col in EXACT_COLUMNS:
            if col not in base:
                continue
            if cand.get(col) != base[col]:
                failures.append(
                    f"{name}: {col} = {cand.get(col)!r}, "
                    f"baseline {base[col]!r} (exact column)")
        for col in FLOAT_COLUMNS:
            if col not in base:
                continue
            if args.exact:
                if cand.get(col) != base[col]:
                    failures.append(
                        f"{name}: {col} = {cand.get(col)!r}, "
                        f"baseline {base[col]!r} (exact float column)")
            elif not float_close(float(cand.get(col, 0.0)),
                                 float(base[col])):
                failures.append(
                    f"{name}: {col} = {cand.get(col)!r}, "
                    f"baseline {base[col]!r} (beyond {FLOAT_REL_EPS:g} "
                    f"relative)")
        for col in sorted(c for c in base
                          if c.startswith(FAULT_PREFIX) or c == "degraded"):
            if cand.get(col) != base[col]:
                failures.append(
                    f"{name}: {col} = {cand.get(col)!r}, "
                    f"baseline {base[col]!r} (fault accounting)")
        if args.wire and cand.get("model") == "mpc":
            ratio = float(cand.get("wire_ratio", 0.0))
            if not 0.0 < ratio <= args.max_wire_ratio:
                failures.append(
                    f"{name}: wire_ratio = {ratio!r} outside "
                    f"(0, {args.max_wire_ratio:g}] — measured frame "
                    f"bytes do not track comm_words (or the run was not "
                    f"on the wire backend)")
        if args.ignore_time:
            continue
        for col in TIME_COLUMNS:
            base_ms = float(base.get(col, 0.0))
            cand_ms = float(cand.get(col, 0.0))
            limit = args.tolerance * max(base_ms, TIME_FLOOR_MS)
            if cand_ms > limit:
                failures.append(
                    f"{name}: {col} = {cand_ms:.1f}ms exceeds "
                    f"{args.tolerance:g}x baseline "
                    f"(max({base_ms:.1f}ms, floor {TIME_FLOOR_MS:g}ms))")

    if failures:
        print(f"check_bench: FAIL ({args.candidate} vs {args.baseline})")
        for failure in failures:
            print(f"  - {failure}")
        print("  (intended change? refresh the baseline — see the module "
              "docstring)")
        return 1
    mode = ("result columns match" +
            ("" if args.ignore_time
             else f", timings within {args.tolerance:g}x"))
    print(f"check_bench: OK — {len(candidate)} configurations, {mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
