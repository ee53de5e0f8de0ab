#!/usr/bin/env python3
"""Fail when a test asserts from inside a worker-domain callback.

Alcotest's state is not domain-safe, so tests must collect results in
worker callbacks and assert on the coordinating domain. This lint finds
every parenthesised `(fun ...)` argument of `Pool.run`, `Pool.map_chunks`,
`Shard.create` or `Domain.spawn` in the given OCaml files (default:
test/*.ml), takes its extent by matching parentheses, and reports any
`Alcotest.` use or unqualified `check_*` helper call inside it.

    python3 test/lint_worker_callbacks.py [FILE.ml ...]

Exits 1 and prints file:line for each offence, 0 when clean.
"""

import glob
import re
import sys

WORKER_CALLS = re.compile(r"\b(?:Pool\.run|Pool\.map_chunks|Shard\.create|Domain\.spawn)\b")
ASSERTION = re.compile(r"\bAlcotest\.|(?<![.\w])check_\w+")
FUN = re.compile(r"\(\s*fun\b")


def mask(src):
    """Blank out comments, string and char literals, keeping offsets and
    newlines, so parentheses and names inside them are never matched."""
    out = list(src)
    i, n, depth = 0, len(src), 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        if src.startswith("(*", i):
            start, depth, i = i, 1, i + 2
            while i < n and depth:
                if src.startswith("(*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*)", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
            blank(start, i)
        elif src[i] == '"':
            start, i = i, i + 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            blank(start, i)
        elif src[i] == "'" and re.match(r"'(?:\\[^']+|[^\\'])'", src[i:]):
            end = i + re.match(r"'(?:\\[^']+|[^\\'])'", src[i:]).end()
            blank(i, end)
            i = end
        else:
            i += 1
    return "".join(out)


def callback_extent(text, pos):
    """Extent of the `(fun ...)` argument of the call ending at [pos], or
    None when the application ends (`;`, `in`, an enclosing `)`) first."""
    depth, i, n = 0, pos, len(text)
    while i < n:
        c = text[i]
        if c == "(":
            if depth == 0 and FUN.match(text, i):
                start, d = i, 0
                while i < n:
                    if text[i] == "(":
                        d += 1
                    elif text[i] == ")":
                        d -= 1
                        if d == 0:
                            return (start, i + 1)
                    i += 1
                return (start, n)
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                return None
        elif depth == 0 and (c == ";" or re.match(r"\bin\b", text[i:i + 3])):
            return None
        i += 1
    return None


def offences(path):
    with open(path, encoding="utf-8") as f:
        text = mask(f.read())
    found = []
    for call in WORKER_CALLS.finditer(text):
        extent = callback_extent(text, call.end())
        if extent is None:
            continue
        start, end = extent
        for hit in ASSERTION.finditer(text, start, end):
            line = text.count("\n", 0, hit.start()) + 1
            found.append((path, line, hit.group(0).rstrip("."), call.group(0)))
    return found


def main(argv):
    files = argv[1:] or sorted(glob.glob("test/*.ml"))
    bad = [o for path in files for o in offences(path)]
    for path, line, what, call in bad:
        print(f"{path}:{line}: {what} inside a {call} callback "
              "(collect in the worker, assert on the calling domain)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
