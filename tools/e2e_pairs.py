#!/usr/bin/env python3
"""Paired before/after runs of one end-to-end benchmark workload.

    python3 tools/e2e_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seed S
    python3 tools/e2e_pairs.py --self-test

PARENT_DIR and CHANGE_DIR are two checkouts of this repository. Pair i
runs `python3 bench/e2e/run.py --workload W --seed S+i` once in each
checkout, for the benchmark's own run length, from that checkout's root and with its own build
directory (<checkout>/.bench_build), so each side builds and runs its
own code. The parent goes first in even pairs and the change in odd
ones, so a drift of the machine over the batch loads both sides alike.
Before the pairs, each side runs once for one second (its build, then a
discarded warm-up).

A pair fails when either run fails (nonzero exit, no result line, or
"correct": false) or when the two runs disagree on the deterministic
digest or on the accuracy: the change must compute what the parent
computes. Any failed pair makes the exit status 1.

For every end-to-end metric of the parent's BENCHMARK.json (the script
exits with an error when that file cannot be read) it prints each side's median and quartiles, the number of pairs the change
won (better in the metric's own direction), and the median per-pair
ratio change/parent with a sign-test interval: the order statistics
r_(k) and r_(n+1-k) of the n ratios, with the largest k whose two-sided
coverage 1 - 2 P(Binomial(n, 1/2) <= k - 1) is at least 95 %. It needs
no assumption about the shape of the noise, only that the pairs are
independent.

The rule, one for every metric: the change is BETTER (WORSE) on a metric
when that whole interval lies on the better (worse) side of 1, the change
is better (worse) in at least nine tenths of all the pairs run, failed
pairs included, and the two medians differ by more than the parent's
quartile distance (q3 - q1); otherwise the metric is UNRESOLVED. The
nine-tenths count and the quartile test are the benchmark's own claim
check. At 10 pairs the interval is [r_(2), r_(9)] (97.9 %) and asks for 9
of 10 pairs on one side as well; at 20 pairs it would take 15 of 20, so
there the count is the stricter test (18 of 20). Under 6 pairs no
interval reaches 95 % and every metric reads UNRESOLVED.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

CONFIDENCE = 0.95
WIN_SHARE = 0.9  # of all pairs run, as in the benchmark's claim check
RUN_TIMEOUT_S = 1800  # a cold run includes the build
WARMUP_SECONDS = 1


def log(msg):
    print(f"e2e_pairs: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- running

def run_side(checkout, workload, seed, seconds=None):
    """Runs bench/e2e/run.py in `checkout`; returns (returncode, stdout).
    `seconds` is given only for the warm-up; measured runs take the
    benchmark's own run length. The run gets its own process group,
    killed on a timeout or when this script is interrupted."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
           "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.Popen(cmd, cwd=checkout, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def parse_run(returncode, stdout):
    """One side of a pair: {"ok", "error", "digest", "metrics"} from the
    benchmark's stdout (a `digest <hex>` line and a JSON last line)."""
    run = {"ok": False, "error": "", "digest": None, "metrics": {}}
    result = None
    for line in stdout.splitlines():
        if line.startswith("digest "):
            run["digest"] = line.split()[1]
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                pass
    if result is None:
        run["error"] = f"no result line (exit {returncode})"
        return run
    run["metrics"] = {k: v["value"] for k, v in
                      result.get("metrics", {}).items()}
    if returncode != 0 or not result.get("correct", False):
        run["error"] = (f"exit {returncode}, correct="
                        f"{result.get('correct')}, failed="
                        f"{result.get('failed')}")
        return run
    run["ok"] = True
    return run


def pair_error(parent, change):
    """Why a pair fails, or "" if both runs are good and agree."""
    for side, run in (("parent", parent), ("change", change)):
        if not run["ok"]:
            return f"{side} run failed: {run['error']}"
    if parent["digest"] is None or parent["digest"] != change["digest"]:
        return f"digests differ: {parent['digest']} vs {change['digest']}"
    pa = parent["metrics"].get("accuracy")
    ca = change["metrics"].get("accuracy")
    if pa != ca:
        return f"accuracy differs: {pa} vs {ca}"
    return ""


# ------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    v = sorted(values)

    def at(p):
        x = p * (len(v) - 1)
        lo = math.floor(x)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (x - lo)
    return at(0.25), at(0.5), at(0.75)


def sign_interval(ratios, confidence=CONFIDENCE):
    """Distribution-free interval for the median ratio: (lo, hi, coverage)
    from order statistics; (None, None, 0.0) when n is too small to reach
    `confidence`."""
    n = len(ratios)
    r = sorted(ratios)
    best = None
    cdf = 0.0
    for k in range(1, n // 2 + 1):
        # P(B <= k - 1) for B ~ Binomial(n, 1/2)
        cdf += math.comb(n, k - 1) / 2 ** n
        coverage = 1.0 - 2.0 * cdf
        if coverage < confidence:
            break
        best = (r[k - 1], r[n - k], coverage)
    return best if best is not None else (None, None, 0.0)


def verdict(lo, hi, parent, change, better, wins, losses, runs):
    """The one rule (module docstring): BETTER/WORSE when the whole
    interval of change/parent lies on that side of 1, the change wins
    (loses) at least nine tenths of the `runs` pairs run, failed ones
    included, and the medians differ by more than the parent's quartile
    distance. `parent` and `change` are (q1, median, q3)."""
    if lo is None or abs(change[1] - parent[1]) <= parent[2] - parent[0]:
        return "UNRESOLVED"
    need = math.ceil(WIN_SHARE * runs)
    above, below = lo > 1.0, hi < 1.0
    if better == "lower":
        above, below = below, above
    if above and wins >= need:
        return "BETTER"
    if below and losses >= need:
        return "WORSE"
    return "UNRESOLVED"


def summarize(pairs, metrics, runs=None):
    """One row per metric over the good pairs: dict with medians,
    quartiles, wins, ratio median, interval, coverage and verdict.
    `runs` is the number of pairs run, failed ones included (default:
    the good pairs)."""
    runs = len(pairs) if runs is None else runs
    rows = []
    for name, better in metrics:
        ps, cs = [], []
        for parent, change in pairs:
            if name in parent["metrics"] and name in change["metrics"]:
                ps.append(parent["metrics"][name])
                cs.append(change["metrics"][name])
        if not ps:
            continue
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(ps, cs))
        losses = sum((c < p) if better == "higher" else (c > p)
                     for p, c in zip(ps, cs))
        ratios = [c / p for p, c in zip(ps, cs) if p != 0]
        lo, hi, coverage = sign_interval(ratios)
        pq, cq = quartiles(ps), quartiles(cs)
        rows.append({
            "metric": name, "better": better, "n": runs,
            "parent": pq, "change": cq, "wins": wins,
            "ratio": statistics.median(ratios) if ratios else float("nan"),
            "lo": lo, "hi": hi, "coverage": coverage,
            "verdict": verdict(lo, hi, pq, cq, better, wins, losses, runs)
            if len(ratios) == len(ps) else "UNRESOLVED",
        })
    return rows


def format_rows(rows):
    lines = [f"{'metric':<14} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'wins':>6} "
             f"{'ratio':>7} {'sign-test interval':<26} verdict"]
    for r in rows:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        if r["lo"] is None:
            interval = "none below 6 pairs"
        else:
            interval = (f"[{r['lo']:.4f}, {r['hi']:.4f}] "
                        f"{100 * r['coverage']:.1f}%")
        lines.append(f"{r['metric']:<14} {side(r['parent']):<30} "
                     f"{side(r['change']):<30} "
                     f"{r['wins']:>3}/{r['n']:<2} {r['ratio']:>7.4f} "
                     f"{interval:<26} {r['verdict']}")
    return lines


def load_metrics(checkout):
    """(name, better) of BENCHMARK.json's end-to-end metrics; None when
    the file cannot be read."""
    try:
        doc = json.loads((checkout / "BENCHMARK.json").read_text())
        return [(m["name"], m["better"]) for m in doc["end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None


# -------------------------------------------------------------- self-test

def canned(digest, metrics, correct=True, rc=0):
    """Benchmark stdout as rdo_e2e prints it, for the self-test."""
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {k: {"value": v, "unit": ""}
                          for k, v in metrics.items()}}
    return rc, f"ops 10\ndigest {digest}\n{json.dumps(result)}\n"


def self_test():
    """Runs the parsing, pairing, statistics and verdict on canned result
    lines; no benchmark is built or run."""
    # Sign-test intervals: exact binomial coverage.
    lo, hi, cov = sign_interval([float(i) for i in range(1, 11)])
    assert (lo, hi) == (2.0, 9.0) and abs(cov - (1 - 22 / 1024)) < 1e-12
    lo, hi, cov = sign_interval([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert (lo, hi) == (1.0, 6.0) and abs(cov - 62 / 64) < 1e-12
    assert sign_interval([1.0, 2.0, 3.0, 4.0, 5.0]) == (None, None, 0.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)

    metrics = [("ops_per_s", "higher"), ("op_p50_ms", "lower"),
               ("accuracy", "higher")]

    def pair(p_ops, c_ops, digest_c="ab12", acc_c=0.9, correct_c=True):
        parent = parse_run(*canned("ab12", {"ops_per_s": p_ops,
                                            "op_p50_ms": 1000 / p_ops,
                                            "accuracy": 0.9}))
        change = parse_run(*canned(digest_c, {"ops_per_s": c_ops,
                                              "op_p50_ms": 1000 / c_ops,
                                              "accuracy": acc_c},
                                   correct=correct_c))
        return parent, change

    # A change 20 % faster in 9 of 10 pairs: BETTER on both timings,
    # accuracy equal everywhere is UNRESOLVED (all ratios 1).
    faster = [pair(100 + i, (100 + i) * 1.2) for i in range(9)]
    faster.append(pair(100, 99))
    assert all(pair_error(p, c) == "" for p, c in faster)
    rows = {r["metric"]: r for r in summarize(faster, metrics)}
    assert rows["ops_per_s"]["wins"] == 9
    assert rows["ops_per_s"]["verdict"] == "BETTER", rows["ops_per_s"]
    assert rows["op_p50_ms"]["verdict"] == "BETTER", rows["op_p50_ms"]
    assert rows["accuracy"]["verdict"] == "UNRESOLVED"
    assert abs(rows["ops_per_s"]["ratio"] - 1.2) < 1e-12

    # An A/A batch whose sides alternate: UNRESOLVED; 8 of 10 is too few.
    same = [pair(100, 101 if i % 2 else 99) for i in range(10)]
    assert summarize(same, metrics)[0]["verdict"] == "UNRESOLVED"
    eight = [pair(100, 110) for _ in range(8)] + [pair(100, 90)] * 2
    assert summarize(eight, metrics)[0]["verdict"] == "UNRESOLVED"
    slower = [pair(100, 80) for _ in range(10)]
    assert summarize(slower, metrics)[0]["verdict"] == "WORSE"
    # 15 of 20: the sign-test interval excludes 1 (r_(6) > 1), but the
    # claim check's nine tenths would need 18.
    fifteen = ([pair(80 + 2 * i, (80 + 2 * i) * 1.3) for i in range(15)]
               + [pair(80 + 2 * i, (80 + 2 * i) * 0.99)
                  for i in range(15, 20)])
    row = summarize(fifteen, metrics)[0]
    assert row["wins"] == 15 and row["lo"] > 1.0, row
    assert row["verdict"] == "UNRESOLVED", row
    # 9 wins in 10 good pairs is BETTER when no pair failed; with an 11th
    # pair run that failed, 9 of 11 is under nine tenths.
    assert summarize(faster, metrics, runs=10)[0]["verdict"] == "BETTER"
    assert summarize(faster, metrics, runs=11)[0]["verdict"] == "UNRESOLVED"
    # 10 of 10 pairs won by 2 %, inside the parent's own spread of 80 to
    # 120: the quartile test keeps it UNRESOLVED.
    spread = [pair(80 + 4 * i, (80 + 4 * i) * 1.02) for i in range(10)]
    row = summarize(spread, metrics)[0]
    assert row["wins"] == 10 and row["lo"] > 1.0
    assert row["verdict"] == "UNRESOLVED", row

    # Failed pairs: digest, accuracy, a failed run, a missing result line.
    assert "digests differ" in pair_error(*pair(100, 100, digest_c="ff"))
    assert "accuracy differs" in pair_error(*pair(100, 100, acc_c=0.8))
    assert "change run failed" in pair_error(
        *pair(100, 100, correct_c=False))
    broken = parse_run(1, "run.py: build failed\n")
    assert not broken["ok"] and "no result line" in broken["error"]
    assert "parent run failed" in pair_error(broken, pair(1, 1)[1])
    lines = format_rows(summarize(faster, metrics))
    assert lines[1].startswith("ops_per_s") and "BETTER" in lines[1]
    print("e2e_pairs: self-test passed")
    return 0


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None or not args.workload:
        ap.error("PARENT_DIR, CHANGE_DIR and --workload are required")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, path in sides.items():
        if not (path / "bench/e2e/run.py").is_file():
            ap.error(f"{name} {path} has no bench/e2e/run.py")
    metrics = load_metrics(sides["parent"])
    if metrics is None:
        ap.error(f"cannot read the end_to_end metrics of "
                 f"{sides['parent'] / 'BENCHMARK.json'}")

    for name, path in sides.items():
        log(f"build and warm-up: {name} ({path})")
        rc, out = run_side(path, args.workload, args.seed, WARMUP_SECONDS)
        if not parse_run(rc, out)["ok"]:
            log(f"{name} warm-up failed (exit {rc})")
            return 1

    print(f"e2e_pairs: {args.workload}, {args.pairs} pairs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    good, failed = [], 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for name in order:
            runs[name] = parse_run(*run_side(sides[name], args.workload,
                                             seed))
        err = pair_error(runs["parent"], runs["change"])
        p = runs["parent"]["metrics"].get("ops_per_s", float("nan"))
        c = runs["change"]["metrics"].get("ops_per_s", float("nan"))
        print(f"pair {i + 1} seed {seed} {order[0]} first: ops_per_s "
              f"{p:.4g} -> {c:.4g}  {'FAILED: ' + err if err else 'ok'}",
              flush=True)
        if err:
            failed += 1
        else:
            good.append((runs["parent"], runs["change"]))
    for line in format_rows(summarize(good, metrics, runs=args.pairs)):
        print(line)
    print(f"e2e_pairs: {len(good)} good pairs, {failed} failed; rule: a "
          f"metric is BETTER/WORSE when its {100 * CONFIDENCE:.0f} % "
          f"sign-test interval of change/parent excludes 1, the change "
          f"wins (loses) {100 * WIN_SHARE:.0f} % of all {args.pairs} pairs "
          f"run and the medians differ by more than the parent's quartile "
          f"distance")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
