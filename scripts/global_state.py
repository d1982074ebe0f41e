#!/usr/bin/env python3
"""List the process-global mutable state defined under lib/.

A module-level `let name = ref ...` (or `Hashtbl.create`, `Array.make`,
`Queue.create`, `Atomic.make`) is state that every mediator, shard and
twin in one process shares. Several mediators run side by side (mediator
composition, federation shards, chaos twins), so each cache or counter
must belong to the value that uses it. A `let` and the `and`s that
follow it form one binding group, module-level when `in` does not close
it: the let of a function body always is closed, a structure item never
is. Prints one `path:line: name` per binding not on the allowlist and
exits 1 when there are any.

Run from anywhere:  python3 scripts/global_state.py
Check the scanner itself:  python3 scripts/global_state.py --self-test
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
GROUP_RE = re.compile(r"^(\s*)let\b")
BINDING_RE = re.compile(
    r"^(\s*)(?:let|and)\s+([a-z_][A-Za-z0-9_']*)\s*(?::[^=]*)?=(?!=)\s*(.*)$"
)
AND_RE = re.compile(r"^\s*and\b")
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


def flat(parts):
    return " ".join(" ".join(parts).split())


def global_bindings(text):
    lines = strip_comments(text).split("\n")
    for n, line in enumerate(lines):
        g = GROUP_RE.match(line)
        if not g:
            continue
        col = len(g.group(1))
        # the group's members: this let and every `and` at its own
        # indentation, each with the following lines indented deeper
        members = [(n, [line])]
        end = n + 1
        while end < len(lines):
            nxt = lines[end]
            if not nxt.strip() or indent(nxt) > col:
                members[-1][1].append(nxt)
            elif indent(nxt) == col and AND_RE.match(nxt):
                members.append((end, [nxt]))
            else:
                break
            end += 1
        closer = lines[end].strip() if end < len(lines) else ""
        if flat(members[-1][1]).endswith(" in") or re.match(r"^in\b", closer):
            continue
        for first, member in members:
            m = BINDING_RE.match(member[0])
            if m and RHS_RE.match(flat([m.group(3)] + member[1:])):
                yield first + 1, m.group(2)


SELF_TESTS = [
    # (source, expected [(line, name)])
    ("let cache = Hashtbl.create 8\n", [(1, "cache")]),
    ("let f () =\n  let r = ref 0 in\n  !r\n", []),
    ("let f n =\n  let a = Array.make n 0\n  and b = Array.make n 1 in\n  (a, b)\n", []),
    ("let x = 1\nand hidden = ref 0\n", [(2, "hidden")]),
    ("let rec f x = g x\nand g x = x\nand hidden = ref 0\n\nlet y = 2\n", [(3, "hidden")]),
    ("let counter =\n  ref 0\n", [(1, "counter")]),
    ("let f () =\n  let t =\n    Hashtbl.create 8\n  in\n  t\n", []),
]


def self_test():
    failed = 0
    for source, want in SELF_TESTS:
        got = list(global_bindings(source))
        if got != want:
            failed += 1
            print(f"self-test: {source!r}: expected {want}, got {got}")
    return 1 if failed else 0


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
    sys.exit(self_test() if sys.argv[1:] == ["--self-test"] else main())
