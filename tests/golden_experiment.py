#!/usr/bin/env python3
"""golden_experiment: rdo_experiment's deterministic results do not move.

    golden_experiment.py <rdo_experiment binary> <golden dir> [--update]

Runs two small deployments at RDO_THREADS 1 and 4:
  * --model mlp   --scheme vawo*+pwt --repeats 2
  * --model lenet --scheme vawo*+pwt --repeats 1
and compares the `counters`, `gauges`, `results` and `failures` sections
of each --json document with the ones stored in <golden dir>/<name>.json.
Together the two runs cover training, weight quantization, the mean
gradients, VAWO, PWT and evaluation, on the Dense and the Conv2D path.

The sections are stored as they are, not as a digest, so a failure names
each number that moved. A golden file may change only in a commit that
says why; `--update` rewrites the files from a 1-thread run.
"""
import json
import os
import subprocess
import sys
import tempfile

RUNS = {
    "mlp_vawo_star_pwt": ["--model", "mlp", "--scheme", "vawo*+pwt",
                          "--repeats", "2"],
    "lenet_vawo_star_pwt": ["--model", "lenet", "--scheme", "vawo*+pwt",
                            "--repeats", "1"],
}
SECTIONS = ("counters", "gauges", "results", "failures")
THREADS = (1, 4)


def run(binary, args, threads, workdir):
    env = dict(os.environ, RDO_THREADS=str(threads))
    # Both knobs leave results alone only by contract; keep them out.
    env.pop("RDO_OPT_PASSES", None)
    env.pop("RDO_PLAN_CACHE_DIR", None)
    out = os.path.join(workdir, "result.json")
    r = subprocess.run([binary] + args + ["--json", out], env=env,
                       cwd=workdir, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"golden_experiment: {' '.join(args)} at RDO_THREADS="
                 f"{threads} exited {r.returncode}\n{r.stderr}")
    with open(out) as f:
        doc = json.load(f)
    return {s: doc.get(s) for s in SECTIONS}


def diff(path, want, got, out):
    """Append one line per leaf where `got` differs from `want`."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got)):
            diff(f"{path}.{k}", want.get(k), got.get(k), out)
    elif (isinstance(want, list) and isinstance(got, list)
          and len(want) == len(got)):
        for i, (w, g) in enumerate(zip(want, got)):
            diff(f"{path}[{i}]", w, g, out)
    elif want != got:
        out.append(f"  {path}: golden {json.dumps(want)}, "
                   f"got {json.dumps(got)}")


def main():
    if len(sys.argv) not in (3, 4) or (len(sys.argv) == 4
                                       and sys.argv[3] != "--update"):
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    golden_dir = sys.argv[2]
    update = len(sys.argv) == 4
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for name, args in RUNS.items():
            path = os.path.join(golden_dir, name + ".json")
            if update:
                with open(path, "w") as f:
                    json.dump(run(binary, args, 1, workdir), f, indent=1)
                    f.write("\n")
                print(f"golden_experiment: wrote {path}")
                continue
            with open(path) as f:
                golden = json.load(f)
            for threads in THREADS:
                lines = []
                diff(name, golden, run(binary, args, threads, workdir), lines)
                if lines:
                    ok = False
                    print(f"golden_experiment: {name} at RDO_THREADS="
                          f"{threads} differs from {path}:")
                    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
