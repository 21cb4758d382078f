#!/usr/bin/env python3
"""A warm rdo_serve start re-uses the on-disk plan cache.

Usage: serve_warm_cache.py RDO_SERVE

Runs `rdo_serve --stdio --epochs 1` twice on one fresh RDO_PLAN_CACHE_DIR
with the same VAWO* sigma 0.5 evaluate request. The first (cold) response
must report "plan_from_disk_cache":false and the second true; with that
one field dropped, the two responses must be byte-equal.
"""
import os
import re
import subprocess
import sys
import tempfile

REQUEST = (b'{"id": 1, "op": "evaluate", "config": {"scheme": "VAWO*", '
           b'"sigma": 0.5}, "data": {"split": "test", "count": 40}}\n')
FIELD = re.compile(rb',"plan_from_disk_cache":(true|false)')


def serve(binary, cache_dir):
    env = dict(os.environ, RDO_PLAN_CACHE_DIR=cache_dir)
    return subprocess.run([binary, "--stdio", "--epochs", "1"], input=REQUEST,
                          env=env, check=True, capture_output=True,
                          timeout=300).stdout


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = serve(argv[1], cache_dir)
        warm = serve(argv[1], cache_dir)
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
    for p in problems:
        sys.stdout.buffer.write(p.rstrip(b"\n") + b"\n")
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
