#!/usr/bin/env python3
"""Lint the runtime-knob documentation against the parser.

Every RESILIENCE_* environment knob parsed in src/util/options.cpp must
have a row in README.md's knob table, and every documented row must
correspond to a parsed knob — stale docs and undocumented knobs both
fail. The knob table in options.cpp (kKnobs, the names from_env() does
not warn about) must list exactly the names its parse sites read.
CMake options (RESILIENCE_TSAN, RESILIENCE_WERROR, ...) are out of scope
for the README table: it documents runtime behavior, not build
configuration.

Beyond the table, any RESILIENCE_* name in the CI workflows, README.md
or the verify notes must be a parsed knob or a name some CMakeLists.txt
defines, so a deleted knob cannot linger in a command line or a recipe.

Usage: tools/check_knobs.py [--repo DIR]
Exits non-zero listing every knob missing on either side.
"""

import argparse
import pathlib
import re
import sys

# env_int(knob("RESILIENCE_X"), ...) — the name may be wrapped onto its
# own line by the formatter, so allow whitespace after the opening paren.
PARSE_RE = re.compile(
    r'env_(?:int|flag|str)\(\s*knob\("(RESILIENCE_[A-Z_]+)"\)')
# constexpr std::string_view kKnobs[] = { "RESILIENCE_X", ... };
KNOBS_RE = re.compile(r"kKnobs\[\]\s*=\s*\{([^}]*)\}")
# | `RESILIENCE_X` | description | default |
TABLE_RE = re.compile(r"^\|\s*`(RESILIENCE_[A-Z_]+)`\s*\|", re.MULTILINE)
NAME_RE = re.compile(r"\bRESILIENCE_[A-Z][A-Z0-9_]*")
BUILD_DIRS = ("build", ".bench_build", ".git")


def cmake_names(repo):
    names = set()
    for path in repo.rglob("CMakeLists.txt"):
        rel = path.relative_to(repo).parts
        if rel[0] in BUILD_DIRS or rel[0].startswith("build-"):
            continue
        names |= set(NAME_RE.findall(path.read_text()))
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=pathlib.Path(__file__).parent.parent,
                        type=pathlib.Path, help="repository root")
    args = parser.parse_args()

    options_cpp = args.repo / "src" / "util" / "options.cpp"
    readme = args.repo / "README.md"
    source = options_cpp.read_text()
    parsed = set(PARSE_RE.findall(source))
    table = KNOBS_RE.search(source)
    listed = set(NAME_RE.findall(table.group(1))) if table else set()
    documented = set(TABLE_RE.findall(readme.read_text()))

    ok = True
    for knob in sorted(parsed - documented):
        print(f"check_knobs: {knob} is parsed in {options_cpp.name} but has "
              f"no row in the README knob table", file=sys.stderr)
        ok = False
    for knob in sorted(documented - parsed):
        print(f"check_knobs: {knob} is documented in the README knob table "
              f"but not parsed in {options_cpp.name}", file=sys.stderr)
        ok = False
    for knob in sorted(listed - parsed):
        print(f"check_knobs: {knob} is in kKnobs but no parse site in "
              f"{options_cpp.name} reads it", file=sys.stderr)
        ok = False

    allowed = parsed | cmake_names(args.repo)
    mentions = [readme, args.repo / ".claude" / "skills" / "verify" /
                "SKILL.md"]
    mentions += sorted((args.repo / ".github" / "workflows").glob("*.yml"))
    for path in mentions:
        if not path.exists():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in NAME_RE.findall(line):
                if name not in allowed:
                    print(f"check_knobs: {path.relative_to(args.repo)}:"
                          f"{lineno}: {name} is neither parsed in "
                          f"{options_cpp.name} nor defined by a "
                          f"CMakeLists.txt", file=sys.stderr)
                    ok = False
    if ok:
        print(f"check_knobs: {len(parsed)} knobs parsed, all documented")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
