#!/usr/bin/env python3
"""Fail if any library object holds an out-of-line fsefi::Real op.

Every counted fsefi::Real operation is marked always_inline
(src/fsefi/real.hpp), and so is every fsefi::PackedReal op the quiet
windows compute on. If an out-of-line copy of Real::binary, one of the
four binary operators or sqrt of either type reappears in an object
file, the compiler has stopped inlining there, and every op in that file
pays a call plus a spill/reload stall (DESIGN.md §8, "Real arithmetic is
always inlined").

Usage: tools/check_real_inline.py <build-dir>
Runs `nm -C` over every libresilience_*.a below <build-dir> (build it
with -DCMAKE_BUILD_TYPE=Release, the configuration the benchmark uses)
and exits non-zero naming each object that defines such a symbol.
"""

import argparse
import pathlib
import re
import subprocess
import sys

NS = r"resilience::fsefi::"
REAL = NS + "Real"
PACKED = NS + "PackedReal"


def ops_of(t):
    """Out-of-line binary operators and sqrt of fsefi type `t`."""
    return ("|" + re.escape(NS) + r"operator[-+*/]\(" + re.escape(t) + ", "
            + re.escape(t) + r"\)"
            + "|" + re.escape(NS) + r"sqrt\(" + re.escape(t) + r"\)")


# Demangled names, optionally followed by a GCC clone suffix such as
# " [clone .isra.0]" or " [clone .constprop.0]".
OUT_OF_LINE = re.compile(
    "^(?:" + re.escape(REAL) + r"::binary\(" + ops_of(REAL) + ops_of(PACKED)
    + ")")
# Symbol types that mean "defined in this object" (text, weak, local).
DEFINED = set("TtWw")


def offenders(archive):
    """Yield (object, symbol) for each out-of-line Real op in `archive`."""
    out = subprocess.run(["nm", "-C", str(archive)], capture_output=True,
                         text=True, check=True).stdout
    obj = archive.name
    for line in out.splitlines():
        if line.endswith(".o:"):
            obj = line[:-1]
            continue
        # "<address> <type> <name>"; undefined symbols have no address.
        parts = line.split(maxsplit=2)
        if len(parts) != 3 or parts[1] not in DEFINED:
            continue
        if OUT_OF_LINE.match(parts[2]):
            yield obj, parts[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=pathlib.Path,
                        help="CMake build tree holding libresilience_*.a")
    args = parser.parse_args()

    archives = sorted(args.build_dir.rglob("libresilience_*.a"))
    if not archives:
        print(f"check_real_inline: no libresilience_*.a under "
              f"{args.build_dir}; build the libraries first", file=sys.stderr)
        return 2

    bad = 0
    for archive in archives:
        for obj, symbol in offenders(archive):
            print(f"check_real_inline: {archive.name}({obj}) defines "
                  f"out-of-line {symbol}", file=sys.stderr)
            bad += 1
    if bad:
        print(f"check_real_inline: {bad} out-of-line fsefi::Real or "
              f"PackedReal op(s); every one must inline at its call site",
              file=sys.stderr)
        return 1
    print(f"check_real_inline: ok ({len(archives)} archives, no out-of-line "
          f"fsefi::Real or PackedReal ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
