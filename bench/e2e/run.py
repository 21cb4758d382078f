#!/usr/bin/env python3
"""Build rdo_e2e from the checkout's sources and run one benchmark workload.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload serve_hot --seed 2021 --seconds 10 --trace 0

The first call configures and builds into $CARGO_TARGET_DIR (default
.bench_build); later calls only re-check the build. The benchmark's own
stdout is passed through, so its last line is the JSON result. With
--trace 1 the run records a trace and reports the per-layer metrics. The
full result document and the trace land in <build dir>/out/.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def call(cmd, env, timeout=None, stdout=None):
    """Run `cmd` in its own process group and return (returncode, stdout).
    On a timeout, or when this script is terminated, the whole group is
    killed and waited for, so no process outlives the script."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir, env):
    """Configure (once) and build the rdo_e2e target; returns the binary."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    configured = any((build_dir / f).exists() for f in ("build.ninja", "Makefile"))
    steps = []
    if not configured:
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(build_dir), "--target", "rdo_e2e",
                  "-j", jobs])
    for cmd in steps:
        rc, _ = call(cmd, env, stdout=sys.stderr)
        if rc != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with {rc}")
    return build_dir / "rdo_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = root / "rdo_e2e"
    out_dir = root / "out"
    tmp_dir = root / "tmp"
    for d in (build_dir, out_dir, tmp_dir):
        d.mkdir(parents=True, exist_ok=True)
    # Compilers and the benchmark's plan cache write temporaries here, so
    # nothing is written outside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp_dir))

    try:
        binary = build(build_dir, env)
    except (RuntimeError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    stem = f"{args.workload}-{args.seed}"
    doc = out_dir / (stem + ("-traced" if args.trace else "") + ".json")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(doc)]
    if args.trace:
        cmd += ["--trace", str(out_dir / f"{stem}.trace.json")]
    try:
        rc, out = call(cmd, env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
