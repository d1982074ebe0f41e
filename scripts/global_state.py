#!/usr/bin/env python3
"""List the process-global mutable state defined under lib/.

A module-level `let name = ref ...` (or `Hashtbl.create`, `Array.make`,
`Queue.create`, `Atomic.make`) is state that every mediator, shard and
twin in one process shares. Several mediators run side by side (mediator
composition, federation shards, chaos twins), so each cache or counter
must belong to the value that uses it. A binding counts as module-level
when it is not closed by `in`: the let of a function body always is,
a structure item never is. Prints one `path:line: name` per binding not
on the allowlist and exits 1 when there are any.

Run from anywhere:  python3 scripts/global_state.py
"""

import pathlib
import re
import sys

# (file relative to the repo root, binding name) -> why it stays global
ALLOWLIST = {
    ("lib/relalg/tuple.ml", "intern_tbl"):
        "descriptor interning is identity: two tuples over one attribute "
        "set must share one descriptor, whichever mediator built them",
    ("lib/relalg/tuple.ml", "next_id"):
        "the descriptor ids the intern table hands out",
    ("lib/relalg/plan.ml", "ops_counter"):
        "the tuple-operation counter is the simulated cost model's clock "
        "input, read and reset around each simulated computation",
}

CONSTRUCTORS = ("ref", "Hashtbl.create", "Array.make", "Queue.create", "Atomic.make")
LET_RE = re.compile(r"^(\s*)let\s+([a-z_][A-Za-z0-9_']*)\s*(?::[^=]*)?=(?!=)\s*(.*)$")
RHS_RE = re.compile(r"^(?:" + "|".join(re.escape(c) for c in CONSTRUCTORS) + r")\b")


def strip_comments(text):
    """Blank out (* ... *) comments (nested) and string literals,
    keeping line breaks so line numbers hold."""
    out = []
    depth = 0
    i = 0
    in_string = False
    while i < len(text):
        c = text[i]
        if in_string:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                in_string = False
            out.append(c if c == "\n" else " ")
        elif text.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
            continue
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
            continue
        elif depth > 0:
            out.append(c if c == "\n" else " ")
        elif text.startswith("'\"'", i):
            # the double-quote character literal opens no string
            out.append("   ")
            i += 3
            continue
        elif c == '"':
            in_string = True
            out.append(c)
        else:
            out.append(c)
        i += 1
    return "".join(out)


def indent(line):
    return len(line) - len(line.lstrip())


def global_bindings(text):
    lines = strip_comments(text).split("\n")
    for n, line in enumerate(lines):
        m = LET_RE.match(line)
        if not m:
            continue
        col = len(m.group(1))
        # the binding's text: the rest of this line and every following
        # line indented deeper than the let
        body = [m.group(3)]
        end = n + 1
        while end < len(lines) and (
            not lines[end].strip() or indent(lines[end]) > col
        ):
            body.append(lines[end])
            end += 1
        rhs = " ".join(" ".join(body).split())
        closer = lines[end].strip() if end < len(lines) else ""
        local = rhs.endswith(" in") or rhs == "in" or re.match(r"^in\b", closer)
        if RHS_RE.match(rhs) and not local:
            yield n + 1, m.group(2)


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    found = []
    for path in sorted((root / "lib").rglob("*.ml")):
        rel = path.relative_to(root).as_posix()
        for line, name in global_bindings(path.read_text()):
            if (rel, name) not in ALLOWLIST:
                found.append(f"{rel}:{line}: {name}")
    for f in found:
        print(f)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
