#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh BENCH_selfperf.json against
the committed baseline.

Usage: check_selfperf.py BASELINE FRESH [--tolerance PCT]
                         [--floor KEY=VALUE]... [--ceiling KEY=VALUE]...

Throughput keys (*_per_sec, *_x ratios such as parallel_scaling_x,
batch_speedup_x and superblock_speedup_x, *_ops_per_round, and
*_rate ratios such as superblock_hit_rate) gate on slowdown: a fresh
run being slower than baseline by more than the tolerance fails;
being faster only prints a note (the committed baseline should then
be refreshed). A gated key present in only one of the two files is
itself a failure — a silently vanished (or never-committed) gate is
how regressions slip through, so the baseline must be refreshed
whenever the bench grows a gated key. --floor KEY=VALUE (repeatable) additionally enforces
an absolute minimum on a fresh-run key, independent of the baseline
— CI uses it to pin hard floors under the headline throughputs so a
slow creep across many refreshed baselines still gets caught. Latency keys (*_cycles — the PEC read-latency
percentiles) gate the other way: a fresh run exceeding the baseline
by more than the latency tolerance fails. They are measured in
*simulated* cycles on a fixed seed, so they are deterministic and
host-independent — the default latency tolerance is therefore 0%:
any increase is a real regression (or deliberate cost-model change)
in the PEC read fast path and must be acknowledged by refreshing the
baseline. --ceiling KEY=VALUE (repeatable) is the mirror of --floor:
an absolute maximum on a fresh-run key — CI uses it to cap overhead
metrics such as timeline_overhead_pct. Keys ending in _pct are
informational overhead percentages, not throughputs: they are printed
but never gated except through an explicit --ceiling. Non-throughput,
non-latency keys (run_ticks, repetitions, parallel_jobs) must match
exactly, since differing run shapes make the numbers incomparable.
"""

import argparse
import json
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=15.0,
                    help="allowed slowdown, percent (default 15)")
    ap.add_argument("--latency-tolerance", type=float, default=0.0,
                    help="allowed latency increase, percent (default 0:"
                         " the *_cycles keys are simulated-deterministic)")
    ap.add_argument("--floor", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="absolute floor on a fresh-run key (repeatable);"
                         " fails if fresh[KEY] < VALUE")
    ap.add_argument("--ceiling", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="absolute ceiling on a fresh-run key"
                         " (repeatable); fails if fresh[KEY] > VALUE")
    args = ap.parse_args()

    def parse_bounds(specs, flag):
        out = []
        for spec in specs:
            key, sep, text = spec.partition("=")
            if not sep or not key:
                ap.error(f"{flag} needs KEY=VALUE, got '{spec}'")
            try:
                out.append((key, float(text)))
            except ValueError:
                ap.error(f"{flag} value for '{key}' is not a number: "
                         f"'{text}'")
        return out

    floors = parse_bounds(args.floor, "--floor")
    ceilings = parse_bounds(args.ceiling, "--ceiling")

    def load(path, role):
        try:
            with open(path) as f:
                return json.load(f)
        except FileNotFoundError:
            print(f"check_selfperf: {role} file '{path}' does not exist"
                  f" — run bench_selfperf to produce it (it writes"
                  f" BENCH_selfperf.json into its working directory)",
                  file=sys.stderr)
            sys.exit(1)
        except json.JSONDecodeError as e:
            print(f"check_selfperf: {role} file '{path}' is not valid"
                  f" JSON ({e}) — rerun bench_selfperf; a truncated"
                  f" file usually means the bench was interrupted",
                  file=sys.stderr)
            sys.exit(1)

    base = load(args.baseline, "baseline")
    fresh = load(args.fresh, "fresh")

    gated_suffixes = ("_per_sec", "_x", "_ops_per_round", "_rate",
                      "_cycles")

    failures = []
    # A gated key the fresh bench emits but the committed baseline
    # lacks means the gate never ran for it: fail loudly instead of
    # letting an ungated number drift.
    for key in sorted(fresh.keys() - base.keys()):
        if key.endswith("_pct"):
            continue
        if key.endswith(gated_suffixes):
            failures.append(
                f"{key}: gated key missing from baseline "
                f"{args.baseline}; refresh the committed baseline")
    for key, base_val in sorted(base.items()):
        if key not in fresh:
            failures.append(f"{key}: missing from fresh run")
            continue
        fresh_val = fresh[key]
        if key.endswith("_cycles"):
            if base_val <= 0:
                failures.append(f"{key}: non-positive baseline {base_val}")
                continue
            delta_pct = 100.0 * (fresh_val - base_val) / base_val
            marker = "ok"
            if delta_pct > args.latency_tolerance:
                marker = "FAIL"
                failures.append(
                    f"{key}: {fresh_val} vs baseline {base_val} "
                    f"({delta_pct:+.1f}% > "
                    f"+{args.latency_tolerance:.0f}% budget)")
            elif delta_pct < 0:
                marker = "faster (consider refreshing the baseline)"
            print(f"  {key}: {base_val} -> {fresh_val} "
                  f"({delta_pct:+.1f}%) {marker}")
            continue
        if key.endswith("_pct"):
            # Overhead percentages vary with host load; print them for
            # the log but gate only through an explicit --ceiling.
            print(f"  {key}: {base_val:.2f} -> {fresh_val:.2f} "
                  f"(informational)")
            continue
        if not key.endswith(("_per_sec", "_x", "_ops_per_round",
                             "_rate")):
            if fresh_val != base_val:
                failures.append(
                    f"{key}: run shape changed ({base_val} -> "
                    f"{fresh_val}); refresh the baseline")
            continue
        if base_val <= 0:
            failures.append(f"{key}: non-positive baseline {base_val}")
            continue
        delta_pct = 100.0 * (fresh_val - base_val) / base_val
        marker = "ok"
        if delta_pct < -args.tolerance:
            marker = "FAIL"
            failures.append(
                f"{key}: {fresh_val:.2f} vs baseline {base_val:.2f} "
                f"({delta_pct:+.1f}% > -{args.tolerance:.0f}% budget)")
        elif delta_pct > args.tolerance:
            marker = "faster (consider refreshing the baseline)"
        print(f"  {key}: {base_val:.2f} -> {fresh_val:.2f} "
              f"({delta_pct:+.1f}%) {marker}")

    for key, want in floors:
        if key not in fresh:
            failures.append(f"{key}: --floor key missing from fresh run")
            continue
        have = fresh[key]
        marker = "ok"
        if have < want:
            marker = "FAIL"
            failures.append(f"{key}: {have} below floor {want}")
        print(f"  {key}: {have} >= floor {want} {marker}")

    for key, want in ceilings:
        if key not in fresh:
            failures.append(
                f"{key}: --ceiling key missing from fresh run"
                f" {args.fresh}; the bench that emits it did not run"
                f" (or dropped the key) — the gate cannot pass by"
                f" omission")
            continue
        have = fresh[key]
        marker = "ok"
        if have > want:
            marker = "FAIL"
            failures.append(f"{key}: {have} above ceiling {want}")
        print(f"  {key}: {have} <= ceiling {want} {marker}")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed (tolerance {args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
