#!/usr/bin/env python3
"""Fail on any rdo:: function in the src/ archives that no shipped binary
keeps and that the allowlist does not name.

The build compiles one section per function and links with section
garbage collection (root CMakeLists.txt), so an executable's symbol table
holds exactly the functions it can reach. A function that an archive
defines but that no bench, tool, example or fuzz binary keeps is reached
only from tests/ or not at all: it belongs in the tests, or nowhere,
unless the allowlist names it with a reason.

Usage: surface_gate.py NM ALLOWLIST --archives ARCHIVE... --binaries BINARY...

Allowlist lines read `SIGNATURE  # KIND: reason`, where SIGNATURE is the
demangled name as `nm -C` prints it without any ` [clone ...]` suffix,
and KIND is one of
  test     a test entry point or hook that no binary may keep;
  inlined  a function that the compiler inlined into a kept caller in its
           own file (GCC's choice, so it may also be kept).
Blank lines and lines starting with `#` are comments.

Exit 1 on an unlisted unkept function (the line to add is printed), on a
listed name that no archive defines, on a `test` entry that a binary
keeps, or on a malformed line; exit 0 otherwise.
"""
import argparse
import re
import subprocess
import sys

CLONE = re.compile(r" \[clone [^\]]*\]")
FUNCTION_TYPES = {"T", "t", "W", "w"}  # nm: global/local text, weak
KINDS = ("test", "inlined")


def functions(nm, path):
    """Demangled rdo:: functions that `path` defines, clone suffixes merged."""
    out = subprocess.run([nm, "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in FUNCTION_TYPES:
            continue
        name = CLONE.sub("", parts[2])
        if name.startswith("rdo::"):
            names.add(name)
    return names


def read_allowlist(path):
    """{signature: kind}, plus a list of malformed-line messages."""
    entries, errors = {}, []
    with open(path, encoding="utf-8") as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            sig, _, note = line.partition(" # ")
            kind, _, reason = note.partition(":")
            sig, kind, reason = sig.strip(), kind.strip(), reason.strip()
            if kind not in KINDS or not reason:
                errors.append(f"{path}:{n}: want `SIGNATURE  # KIND: reason` "
                              f"with KIND in {KINDS}: {line}")
            elif sig in entries:
                errors.append(f"{path}:{n}: listed twice: {sig}")
            else:
                entries[sig] = kind
    return entries, errors


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("nm")
    ap.add_argument("allowlist")
    ap.add_argument("--archives", nargs="+", required=True)
    ap.add_argument("--binaries", nargs="+", required=True)
    args = ap.parse_args(argv[1:])

    defined = set()
    for archive in args.archives:
        defined |= functions(args.nm, archive)
    kept = set()
    for binary in args.binaries:
        kept |= functions(args.nm, binary)
    allowed, problems = read_allowlist(args.allowlist)

    for sig in sorted(defined - kept - allowed.keys()):
        problems.append(f"kept by no binary and not listed; delete it, move "
                        f"it into tests/, or add the line\n  {sig}  # test: "
                        f"<reason>")
    for sig, kind in sorted(allowed.items()):
        if sig not in defined:
            problems.append(f"listed but defined in no archive; remove the "
                            f"line\n  {sig}")
        elif kind == "test" and sig in kept:
            problems.append(f"listed as test-only but kept by a binary; "
                            f"remove the line\n  {sig}")
    for p in problems:
        print(p)
    unkept = len(defined - kept)
    print(f"{len(args.archives)} archives define {len(defined)} rdo:: "
          f"functions; {len(args.binaries)} binaries keep all but {unkept}; "
          f"{len(allowed)} listed; {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
