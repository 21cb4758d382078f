#!/usr/bin/env python3
"""e2e_smoke: every workload at a reduced op count, at 1 and at 4 threads.

    smoke.py <rdo_e2e binary> <BENCHMARK.json>

For each workload in BENCHMARK.json it runs one round of a few ops with
RDO_THREADS=1, with RDO_THREADS=4, and traced with RDO_THREADS=4, and
asserts that
  * every run exits 0 and its JSON result line says correct,
  * the deterministic digest is the same in all three runs,
  * every end_to_end metric of BENCHMARK.json is printed untraced and
    every per_layer metric is printed traced,
  * error_rate is 0.
"""
import json
import os
import subprocess
import sys
import tempfile

# Small rounds that still touch every grid point / config family.
SMOKE_OPS = {
    "sweep_lenet_pwt": 8,
    "compile_mlp_sim": 12,
    "serve_hot": 64,
    "serve_churn": 48,
}


def run(binary, workload, threads, trace_path=None):
    cmd = [binary, "--workload", workload, "--seed", "2021", "--seconds", "0",
           "--ops", str(SMOKE_OPS[workload]), "--setup-reps", "1"]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ, RDO_THREADS=str(threads))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    digest = None
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] in ("metric", "layer") and len(parts) == 4:
            printed[parts[1]] = float(parts[2])
        elif parts[0] == "digest":
            digest = parts[1]
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, result, printed, digest


def main():
    binary, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        bench = json.load(f)
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    problems = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in (wl["name"] for wl in bench["workloads"]):
            digests = {}
            for threads, traced in ((1, False), (4, False), (4, True)):
                label = f"{w} RDO_THREADS={threads}{' traced' if traced else ''}"
                trace = os.path.join(tmp, f"{w}.trace.json") if traced else None
                rc, result, printed, digest = run(binary, w, threads, trace)
                digests[label] = digest
                print(f"{label}: rc={rc} digest={digest} "
                      f"attempted={result.get('attempted')}", flush=True)
                if rc != 0 or not result.get("correct"):
                    problems.append(f"{label}: rc={rc}, result {result}")
                expected = layer_names if traced else e2e_names + ["error_rate"]
                missing = [n for n in expected if n not in printed]
                if missing:
                    problems.append(f"{label}: metrics not printed: {missing}")
                if set(result.get("metrics", {})) != set(
                        layer_names if traced else e2e_names):
                    problems.append(f"{label}: result metrics differ from "
                                    "BENCHMARK.json")
                if not traced and printed.get("error_rate") != 0.0:
                    problems.append(f"{label}: error_rate "
                                    f"{printed.get('error_rate')}")
            if None in digests.values() or len(set(digests.values())) != 1:
                problems.append(f"{w}: digests differ: {digests}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
