#!/usr/bin/env python3
"""ablation_baseline: ablation_design still equals its committed baseline.

    ablation_baseline.py <ablation_design binary> <bench_diff binary>
                         <baseline BENCH_ablation_design.json>

Runs ablation_design at RDO_THREADS=4 into a temporary directory and
compares the BENCH document it writes with the baseline through
bench_diff at zero tolerance, so every counter, gauge, result and
failure must be equal. The harness covers what no other tier-1 run
does: PerCell-scope variation draws, and the VAWO objective, PWT warm
start and offset-register-width ablations.
"""
import os
import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    harness, bench_diff, baseline = map(os.path.abspath, sys.argv[1:])
    env = dict(os.environ, RDO_THREADS="4")
    # Knobs that leave results alone only by contract; keep them out.
    for knob in ("RDO_OPT_PASSES", "RDO_PLAN_CACHE_DIR", "RDO_LUT_CACHE_DIR",
                 "RDO_TRACE"):
        env.pop(knob, None)
    with tempfile.TemporaryDirectory() as tmp:
        env["RDO_BENCH_DIR"] = tmp
        r = subprocess.run([harness], env=env, cwd=tmp,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            sys.exit(f"ablation_baseline: {harness} exited {r.returncode}\n"
                     f"{r.stderr}")
        current = os.path.join(tmp, "BENCH_ablation_design.json")
        r = subprocess.run([bench_diff, baseline, current])
        return r.returncode


if __name__ == "__main__":
    sys.exit(main())
