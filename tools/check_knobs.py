#!/usr/bin/env python3
"""Checks that every SLICER_* environment variable the code reads is documented.

Collects the SLICER_* string literals passed to env::size_knob,
env::flag_knob or getenv in the C++ sources, and compares two sets with two
README tables:

  * reads under src/ and examples/ with the table under "## Knobs";
  * reads under tests/ and bench/ with the table under
    "## Test and bench variables".

Each pair must be equal, so a variable cannot be added undocumented or
deleted with its row left behind. It also fails on a getenv("SLICER_...")
literal under src/ or examples/ outside common/env.cpp: the library reads
its knobs through that file only. tests/common/env_test.cpp is skipped,
because it exercises the parser on throwaway names.

Usage: python3 tools/check_knobs.py [--root DIR]
"""

import argparse
import pathlib
import re
import sys

READ_RE = re.compile(
    r'\b(?:size_knob|flag_knob|getenv)\s*\(\s*"(SLICER_[A-Z0-9_]+)"')
RAW_GETENV_RE = re.compile(r'\bgetenv\s*\(\s*"(SLICER_[A-Z0-9_]+)"')
ROW_RE = re.compile(r"^\|\s*`(SLICER_[A-Z0-9_]+)`\s*\|")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
PARSER_TEST = "tests/common/env_test.cpp"
ENV_READER = "src/common/env.cpp"

# (README heading, directories whose reads it documents)
TABLES = (
    ("## Knobs", ("src", "examples")),
    ("## Test and bench variables", ("tests", "bench")),
)


def sources(root, subdirs):
    """(relative path, text) of every C++ source under `subdirs`."""
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*")):
            rel = str(path.relative_to(root))
            if path.suffix in SOURCE_SUFFIXES and rel != PARSER_TEST:
                yield rel, path.read_text(encoding="utf-8")


def read_knobs(root, subdirs):
    """Variable name -> sorted list of files under `subdirs` that read it."""
    found = {}
    for rel, text in sources(root, subdirs):
        for name in READ_RE.findall(text):
            found.setdefault(name, set()).add(rel)
    return {name: sorted(files) for name, files in found.items()}


def raw_getenvs(root):
    """'file: NAME' for each getenv("SLICER_...") in src/ or examples/."""
    return [f"{rel}: {name}"
            for rel, text in sources(root, ("src", "examples"))
            if rel != ENV_READER
            for name in RAW_GETENV_RE.findall(text)]


def readme_table(lines, heading):
    """Variable names in the first table under `heading`."""
    starts = [i for i, line in enumerate(lines) if line.strip() == heading]
    if len(starts) != 1:
        raise SystemExit(
            f"check_knobs: README needs exactly one '{heading}' heading, "
            f"found {len(starts)}")
    rows = []
    in_table = False
    for line in lines[starts[0] + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            in_table = True
            match = ROW_RE.match(line)
            if match:
                rows.append(match.group(1))
        elif in_table:
            break  # the section's first table has ended
    if len(rows) != len(set(rows)):
        raise SystemExit(
            f"check_knobs: a variable is listed twice under '{heading}'")
    return set(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()

    lines = (args.root / "README.md").read_text(encoding="utf-8").splitlines()
    failed = False
    for heading, subdirs in TABLES:
        read = read_knobs(args.root, subdirs)
        documented = readme_table(lines, heading)
        for name in sorted(read):
            print(f"{name}: read in {', '.join(read[name])}")
        undocumented = sorted(set(read) - documented)
        unread = sorted(documented - set(read))
        if undocumented:
            print(f"check_knobs: read but not in the README '{heading}' "
                  f"table: {', '.join(undocumented)}", file=sys.stderr)
        if unread:
            print(f"check_knobs: in the README '{heading}' table but read "
                  f"nowhere: {', '.join(unread)}", file=sys.stderr)
        if undocumented or unread:
            failed = True
        else:
            print(f"check_knobs: '{heading}': {len(read)} variables, "
                  f"all documented")
    raw = raw_getenvs(args.root)
    if raw:
        print("check_knobs: raw getenv of a SLICER_* variable (read it "
              "through common/env.hpp): " + "; ".join(raw), file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
