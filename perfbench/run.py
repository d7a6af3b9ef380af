#!/usr/bin/env python3
"""Build the dollymp library and run one end-to-end benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-1m --seed 1 --seconds 25 --trace 0

Builds perfbench/ (which compiles ../src) in Release into .bench_build, or
into $CARGO_TARGET_DIR when that is set, then runs perfbench_e2e.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The full result, with provenance, is written to
<build dir>/results/<workload>-s<seed>-t<trace>.json; a traced run also
writes a Perfetto-loadable trace to <build dir>/traces/.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own helper tests instead.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fleet-1m", "straggler-30k", "service-30k")
# Never used while the benchmark was tuned: rerun a claimed gain on it.
HELD_OUT_SEED = 424242
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_ROOT = BENCH_DIR.parent


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_logged(cmd, log):
    """Run a build step, appending its output to `log`; raise on failure."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text().splitlines()[-25:]
        sys.stderr.write("\n".join(tail) + "\n")
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build(target):
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"], log)
    jobs = str(max(1, min(4, cpu_count())))
    run_logged(["cmake", "--build", str(out), "-j", jobs, "--target", target], log)
    return out / target


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(SOURCE_ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    files = [p for d in ("src", BENCH_DIR.name) for p in (SOURCE_ROOT / d).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(SOURCE_ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def self_test():
    binary = build("perfbench_selftest")
    status = subprocess.run([str(binary)]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                            str(BENCH_DIR / "tests"), "-p", "test_*.py"]).returncode
    return 0 if status == 0 and tests == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench_e2e")
    out = build_dir()
    work = out / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    trace_file = None
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        trace_file = out / "traces" / f"{args.workload}-s{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench_e2e exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result["build_type"] != "Release" or not result["ndebug"]:
        raise RuntimeError("refusing to report a non-Release build")

    result["provenance"] = {
        "nproc": cpu_count(),
        "compiler": result.pop("compiler"),
        "build_type": result.pop("build_type"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace_file": str(trace_file) if trace_file else None,
    }
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        sys.stderr.write(f"perfbench: {err}\n")
        sys.exit(2)
