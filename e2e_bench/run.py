#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the mvcc library.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

The benchmark package (e2e_bench/CMakeLists.txt) is configured and built in
$CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench); build output
goes to stderr. The benchmark binary then runs the workload and its output
is passed through: the last stdout line is the JSON result. `--workload
all` runs every workload in turn and ends with one combined JSON line.
Traced runs (--trace 1) write their span logs to the build directory's
traces/ folder. Exits non-zero, without a result line, if the build or the
run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["read-mostly", "write-stream", "sync-sharded"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "e2e_bench"))


def build(bdir):
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", "2"],
    ]
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "mvcc_e2e")


def run_one(binary, out_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        # Pass the diagnostics through, never a result line.
        print("\n".join(l for l in lines if not l.startswith("{")))
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        bdir = build_dir()
        binary = build(bdir)
        out_dir = os.path.join(bdir, "traces")
        os.makedirs(out_dir, exist_ok=True)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            text, result = run_one(binary, out_dir, name, args.seed,
                                   args.seconds, args.trace)
            print("\n".join(text), flush=True)
            results[name] = result
    except (subprocess.SubprocessError, RuntimeError, OSError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
