#!/usr/bin/env python3
"""opt_parity: the optimizer pipeline changes no result of rdo_experiment.

    opt_parity.py <rdo_experiment binary>

Runs `rdo_experiment --model mlp --scheme vawo* --repeats 2` three times
and asserts that
  * with every optimizer pass on, stdout at RDO_THREADS=1 and at
    RDO_THREADS=4 is byte-identical;
  * the accuracy, per-cycle, crossbars and power lines with the passes
    off equal those with the passes on (the "optimized plan" line aside).
These are the two diffs of the CI opt-parity job, as one ctest entry.
"""
import difflib
import os
import re
import subprocess
import sys

ALL_PASSES = "color_offset_registers"
ARGS = ["--model", "mlp", "--scheme", "vawo*", "--repeats", "2"]
KEY = re.compile(r"accuracy|per-cycle|crossbars|power")


def run(binary, threads, passes):
    env = dict(os.environ, RDO_THREADS=str(threads))
    env.pop("RDO_OPT_PASSES", None)
    if passes:
        env["RDO_OPT_PASSES"] = passes
    r = subprocess.run([binary] + ARGS, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"opt_parity: RDO_THREADS={threads} "
                 f"RDO_OPT_PASSES={passes or '(unset)'} exited "
                 f"{r.returncode}\n{r.stderr}")
    return r.stdout


def check_equal(what, a, b, names):
    if a == b:
        return True
    print(f"opt_parity: {what} differ:")
    sys.stdout.writelines(difflib.unified_diff(
        a.splitlines(keepends=True), b.splitlines(keepends=True), *names))
    return False


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    on_t1 = run(binary, 1, ALL_PASSES)
    on_t4 = run(binary, 4, ALL_PASSES)
    off_t4 = run(binary, 4, None)
    key_off = "".join(l for l in off_t4.splitlines(keepends=True)
                      if KEY.search(l))
    key_on = "".join(l for l in on_t4.splitlines(keepends=True)
                     if KEY.search(l) and "optimized plan" not in l)
    ok = check_equal("stdout with all passes at 1 vs 4 threads", on_t1,
                     on_t4, ("threads1", "threads4"))
    ok &= check_equal("key lines with passes off vs on", key_off, key_on,
                      ("passes_off", "passes_on"))
    if not key_off:
        print("opt_parity: no accuracy/per-cycle/crossbars/power lines")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
