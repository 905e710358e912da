#!/usr/bin/env python3
"""Counts the code lines of Rust sources, per file and in total.

A code line is a line that is not blank, not only a comment, and not
inside an item marked `#[cfg(test)]` (the attribute line included).
Doc comments count as comments.

    python3 scripts/code_lines.py [PATH ...]

Each PATH is a `.rs` file or a directory searched recursively; the
default is `crates/ssd/src`. To compare two trees, run it in each (for
a commit, in a `git archive` or `git clone` of it).
"""

import sys
from pathlib import Path


def strip_code(line, in_block):
    """Returns (the line without comments and string or char literals,
    whether a block comment is still open at its end)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i, in_block = end + 2, False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            i, in_block = i + 2, True
        elif line[i] == '"':
            j = i + 1
            while j < n and line[j] != '"':
                j += 2 if line[j] == "\\" else 1
            out.append('""')
            i = j + 1
        elif line[i] == "'" and i + 2 < n and (line[i + 2] == "'" or line[i + 1] == "\\"):
            # A char literal ('x' or '\n'); a lifetime has no closing quote.
            j = line.find("'", i + 2)
            out.append("' '")
            i = j + 1 if j > 0 else n
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block


def count_file(path):
    """Code lines of one file."""
    count = 0
    in_block = False
    skip = False  # inside a #[cfg(test)] item
    depth = 0
    opened = False
    for raw in path.read_text().splitlines():
        code, in_block = strip_code(raw, in_block)
        code = code.strip()
        if not skip and code.startswith("#[cfg(test)]"):
            skip, depth, opened = True, 0, False
            code = code[len("#[cfg(test)]"):].strip()
        if skip:
            for ch in code:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
                elif ch == ";" and depth == 0 and not opened:
                    opened = True
            if opened and depth == 0:
                skip = False
            continue
        if code:
            count += 1
    return count


def main(args):
    roots = [Path(a) for a in args] or [Path("crates/ssd/src")]
    files = []
    for root in roots:
        files.extend(sorted(root.rglob("*.rs")) if root.is_dir() else [root])
    total = 0
    for f in files:
        n = count_file(f)
        total += n
        print(f"{n:6} {f}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1:])
