#!/usr/bin/env python3
"""Build and run the LiMiT++ end-to-end benchmark.

    python3 limitbench/run.py --workload case-studies --seed 0 --seconds 20 --trace 0

Builds the driver from the checkout's sources into .bench_build/ (the
first run builds the libraries; later runs reuse them), runs one
workload on one host thread, and relays the driver's output. The last
line of stdout is the result object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). See README.md for the workloads and metrics.

    python3 limitbench/run.py --record-reference 0-15

re-records the per-job reference digests for seeds 0..15 of every
workload into reference_digests.txt.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference_digests.txt"
WORKLOADS = ("case-studies", "spec-kernels")
# Leaves headroom under the 180 s a run may take at most.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(target="limitbench"):
    """Configure (once) and build `target`; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"limitbench: no LiMiT++ sources at {ROOT / 'src'}; "
                 "run from a full checkout")
    steps = [["cmake", "--build", str(BUILD), "--target", target,
              "-j", BUILD_JOBS]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("limitbench: build failed: " + " ".join(step))
    return BUILD / target


def run_driver(args):
    """Run the driver, relay its stdout, return its exit code."""
    # Any integer is a seed: fold it into the driver's unsigned 64-bit
    # range, which leaves seeds 0 .. 2^64-1 as they are.
    seed = args.seed % 2**64
    cmd = [str(build()), "--workload", args.workload, "--seed",
           str(seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--reference", str(REFERENCE)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}.json")]
    # Run inside BUILD: analysis::mapGuarded's status reporter writes a
    # ".tmp" heartbeat into the working directory even when no status
    # file was asked for.
    try:
        proc = subprocess.run(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"limitbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record_reference(seeds):
    binary = str(build())
    lines = [
        "# Per-job outcome digests of limitbench, one line per workload",
        "# and seed: <workload> <seed> <digest of each job in job order>.",
        "# Re-record with: python3 limitbench/run.py --record-reference "
        f"{seeds.start}-{seeds.stop - 1}",
    ]
    for workload in WORKLOADS:
        for seed in seeds:
            out = subprocess.run([binary, "--workload", workload, "--seed",
                                  str(seed), "--digests"], cwd=BUILD,
                                 stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            lines.append(out.strip())
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    REFERENCE.write_text("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="FIRST-LAST",
                        type=seed_range)
    args = parser.parse_args()
    if args.record_reference is not None:
        record_reference(args.record_reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
