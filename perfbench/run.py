#!/usr/bin/env python3
"""Live end-to-end HVAC benchmark: build, then run one workload.

    python3 perfbench/run.py --workload warm_small --seed 1 --seconds 10 \
        --trace 0 [--smoke]

Builds the repository's libraries, the LD_PRELOAD shim and the
benchmark's driver and reader (Release, in .bench_build/perfbench under
the checkout root, never in build/), then runs the driver in a scratch
directory under .bench_run/. Build output goes to stderr; the driver's
report goes to stdout, whose last line is the JSON result. Exits non-zero
when the build fails, a check fails or a metric is missing.
"""
import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("warm_small", "warm_packed", "cold_pfs", "seq_ckpt")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "perfbench_driver", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_driver")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny dataset sizes (the benchmark's own tests)")
    ap.add_argument("--fault", choices=("stopped-server", "pfs-fallback"),
                    help="point the shim at a stopped server (the "
                         "benchmark's own tests of its correctness gate)")
    args = ap.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_run",
                        f"{args.workload}-{os.getpid()}")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd += ["--fault", args.fault]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the driver's readers.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        # A run takes about twice --seconds of wall time.
        return proc.wait(timeout=120 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
