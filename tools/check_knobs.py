#!/usr/bin/env python3
"""Checks that every SLICER_* environment knob the library reads is documented.

Collects the SLICER_* string literals passed to env::size_knob,
env::flag_knob or getenv in the C++ sources under src/ and examples/, and
the knob names in the first column of the table under the README's
"## Knobs" heading. Fails unless the two sets are equal, so a knob cannot
be added undocumented or deleted with its row left behind.

Usage: python3 tools/check_knobs.py [--root DIR]
"""

import argparse
import pathlib
import re
import sys

READ_RE = re.compile(
    r'\b(?:size_knob|flag_knob|getenv)\s*\(\s*"(SLICER_[A-Z0-9_]+)"')
ROW_RE = re.compile(r"^\|\s*`(SLICER_[A-Z0-9_]+)`\s*\|")


def read_knobs(root):
    """Knob name -> sorted list of files that read it."""
    found = {}
    for sub in ("src", "examples"):
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            for name in READ_RE.findall(path.read_text(encoding="utf-8")):
                found.setdefault(name, set()).add(
                    str(path.relative_to(root)))
    return {name: sorted(files) for name, files in found.items()}


def readme_knobs(readme):
    """Knob names in the table of the one "## Knobs" section."""
    lines = readme.read_text(encoding="utf-8").splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == "## Knobs"]
    if len(starts) != 1:
        raise SystemExit(
            f"check_knobs: README needs exactly one '## Knobs' heading, "
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
        raise SystemExit("check_knobs: a knob is listed twice in README")
    return set(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()

    read = read_knobs(args.root)
    documented = readme_knobs(args.root / "README.md")
    for name in sorted(read):
        print(f"{name}: read in {', '.join(read[name])}")
    undocumented = sorted(set(read) - documented)
    unread = sorted(documented - set(read))
    if undocumented:
        print(f"check_knobs: read but not in the README Knobs table: "
              f"{', '.join(undocumented)}", file=sys.stderr)
    if unread:
        print(f"check_knobs: in the README Knobs table but read nowhere: "
              f"{', '.join(unread)}", file=sys.stderr)
    if undocumented or unread:
        return 1
    print(f"check_knobs: {len(read)} knobs, all documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
