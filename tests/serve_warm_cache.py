#!/usr/bin/env python3
"""A warm rdo_serve start re-uses the on-disk plan cache.

Usage: serve_warm_cache.py RDO_SERVE VALIDATE_BENCH_JSON

Runs `rdo_serve --stdio --epochs 1` twice on one fresh RDO_PLAN_CACHE_DIR
with the same batch: a VAWO* sigma 0.5 evaluate request, then a stats
request. The first (cold) evaluate response must report
"plan_from_disk_cache":false and the second true; with that one field
dropped, the two evaluate responses must be byte-equal. The cold batch's
stats reply must pass `validate_bench_json --stats`.
"""
import os
import re
import subprocess
import sys
import tempfile

REQUESTS = (b'{"id": 1, "op": "evaluate", "config": {"scheme": "VAWO*", '
            b'"sigma": 0.5}, "data": {"split": "test", "count": 40}}\n'
            b'{"id": 2, "op": "stats"}\n')
FIELD = re.compile(rb',"plan_from_disk_cache":(true|false)')


def serve(binary, cache_dir):
    """The (evaluate, stats) response lines of one stdio batch."""
    env = dict(os.environ, RDO_PLAN_CACHE_DIR=cache_dir)
    out = subprocess.run([binary, "--stdio", "--epochs", "1"],
                         input=REQUESTS, env=env, check=True,
                         capture_output=True, timeout=300).stdout
    lines = out.splitlines(keepends=True)
    return (lines + [b"", b""])[:2]


def stats_problem(validator, stats, scratch_dir):
    """Why validate_bench_json --stats rejects `stats`, or None."""
    path = os.path.join(scratch_dir, "stats.json")
    with open(path, "wb") as f:
        f.write(stats)
    check = subprocess.run([validator, "--stats", path], capture_output=True,
                           timeout=60)
    if check.returncode == 0:
        return None
    return (b"cold stats reply fails validate_bench_json --stats: "
            + check.stdout + check.stderr + stats)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as cache_dir:
        cold, cold_stats = serve(argv[1], cache_dir)
        warm, _ = serve(argv[1], cache_dir)
    problems = []
    for name, response, want in ((b"cold", cold, b"false"),
                                 (b"warm", warm, b"true")):
        found = FIELD.findall(response)
        if b'"ok":true' not in response or found != [want]:
            problems.append(name + b" response does not say ok with "
                            b"plan_from_disk_cache " + want + b": " + response)
    if FIELD.sub(b"", cold) != FIELD.sub(b"", warm):
        problems.append(b"responses differ beyond plan_from_disk_cache:\n"
                        + cold + warm)
    with tempfile.TemporaryDirectory() as scratch_dir:
        problem = stats_problem(argv[2], cold_stats, scratch_dir)
    if problem is not None:
        problems.append(problem)
    for p in problems:
        sys.stdout.buffer.write(p.rstrip(b"\n") + b"\n")
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
