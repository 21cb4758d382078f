#!/usr/bin/env python3
"""Fail if any library archive holds a fused multiply-add instruction.

A fused a * b + c rounds once where the source rounds twice, so an FMA in
a kernel would change results against the baseline build (the libraries
build with -ffp-contract=off; see src/CMakeLists.txt).

Usage: no_fma.py OBJDUMP [--avx-copy ARCHIVE]... ARCHIVE...

Each --avx-copy names an archive that must hold VEX-encoded (AVX) vector
instructions: an AVX kernel copy (nn/kernel_isa.h), such as the GEMM row
kernel in rdo_nn or the VAWO offset sweep in rdo_core. It shows the
check reads real x86 disassembly and that the copy was built.
"""
import re
import subprocess
import sys

FMA = re.compile(r"\sv(?:f|fn)m(?:add|sub)\w*\s")
VEX = re.compile(r"\sv\w+\s.*%[xy]mm")


def disassemble(objdump, archive):
    return subprocess.run([objdump, "-d", "--no-show-raw-insn", archive],
                          check=True, capture_output=True,
                          text=True).stdout


def main(argv):
    objdump, args = argv[1], argv[2:]
    avx_copies = []
    while args[:1] == ["--avx-copy"] and len(args) >= 2:
        avx_copies.append(args[1])
        args = args[2:]
    args = avx_copies + [a for a in args if a not in avx_copies]
    if not args:
        print("no_fma.py: no archives given", file=sys.stderr)
        return 2
    bad = 0
    for archive in args:
        text = disassemble(objdump, archive)
        hits = [line.strip() for line in text.splitlines()
                if FMA.search(line)]
        for line in hits[:5]:
            print(f"{archive}: {line}")
        bad += len(hits)
        if archive in avx_copies and not VEX.search(text):
            print(f"{archive}: no VEX instruction, so no AVX copy")
            bad += 1
    print(f"{len(args)} archives, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
