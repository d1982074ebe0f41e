#!/usr/bin/env python3
"""List the public values that no program outside the tests uses.

For every `val` declared in lib/**/*.mli (inside a `module X : sig ...
end` block its path is `Module.X.value`), search the .ml files under
lib/, bin/, bench/, perfbench/ and examples/, with comments and string
literals removed. A use is one of:

- the qualified name, `Module.value` (or `Module.X.value`), anywhere;
- the bare name in the value's own module, minus its definitions
  (`let`, `let rec` or `and` of that name);
- the bare name (or `X.value` for a nested one) in a file that opens
  the module: `open Module`, `let open Module in`, or a local open
  `Module.( ... )`, `Module.[ ... ]`, `Module.{ ... }`.

A bare name preceded by `.`, `~` or `?` is a field, another module's
value or a label, not a use. Prints one qualified name per line for the
values used nowhere and exits 1 when there are any.

Run from anywhere:  python3 scripts/unused_api.py
"""

import pathlib
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]

# Test oracles: public so that tests can check a run against them,
# called by no program.
ALLOWLIST = {
    # the Theorem 7.2 freshness check of a recorded run
    "Checker.check_freshness",
    # the interpretive evaluator's set difference (test/oracle)
    "Bag.set_diff",
    # the equality and printer the tests compare deltas by
    "Rel_delta.equal",
    "Rel_delta.pp",
    # which columns a source indexed: tests check that only declared
    # indexes exist and that polls probe them
    "Source_db.indexed",
    # one shard's own mediator, which tests query to check the
    # coordinator's scatter-gather answer
    "Coordinator.mediator",
    # the triple store's native interface: tests play the native
    # applications whose entity changes the adapter must translate
    "Triple_store.put",
    "Triple_store.delete",
    "Triple_store.get",
}

VAL_RE = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)")
SIG_RE = re.compile(r"^\s*module\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b")
END_RE = re.compile(r"^\s*end\b")
CHAR_RE = re.compile(r"'(?:\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|.)|[^\\'])'")
OPEN_RE = re.compile(
    r"\b(?:let\s+)?open!?\s+([A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*)"
    r"|\b([A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*)\.[(\[{]"
)


def strip_code(text):
    """The text with comments (nested) and string literals blanked."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and text.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            # string literal (comments may hold them too)
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append(" " if depth == 0 else "")
            continue
        lit = depth == 0 and c == "'" and CHAR_RE.match(text, i)
        if lit:
            # a char literal such as '"' or '\n'
            i = lit.end()
            out.append(" ")
            continue
        if depth == 0:
            out.append(c)
        elif c == "\n":
            out.append("\n")
        i += 1
    return "".join(out)


def public_values(mli):
    """(path, name) for each `val`, path being the enclosing modules."""
    top = mli.stem.capitalize()
    stack = []
    for line in strip_code(mli.read_text()).splitlines():
        m = SIG_RE.match(line)
        if m:
            stack.append(m.group(1))
            continue
        if END_RE.match(line) and stack:
            stack.pop()
            continue
        m = VAL_RE.match(line)
        if m:
            yield [top] + stack, m.group(1)


def opened(text):
    """The module paths a file opens, each also by its last component."""
    mods = set()
    for m in OPEN_RE.finditer(text):
        path = m.group(1) or m.group(2)
        mods.add(path)
        mods.add(path.split(".")[-1])
    return mods


def bare(name):
    return re.compile(r"(?<![\w'.~?])" + re.escape(name) + r"(?![\w'])")


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    texts = {
        path: strip_code(path.read_text())
        for d in SEARCH_DIRS
        for path in sorted((root / d).rglob("*.ml"))
    }
    opens = {path: opened(t) for path, t in texts.items()}
    unused = []
    for mli in sorted((root / "lib").rglob("*.mli")):
        own = mli.with_suffix(".ml")
        for path, name in sorted(set((tuple(p), n) for p, n in public_values(mli))):
            qualified = ".".join(path + (name,))
            if qualified in ALLOWLIST:
                continue
            full = re.compile(
                r"(?<![\w'])" + re.escape(qualified) + r"(?![\w'])"
            )
            # the shortest form that names the value where its top
            # module is in scope: [name], or [Inner.name] for a nested one
            local = bare(".".join(path[1:] + (name,)))
            definition = re.compile(
                r"\b(?:let|let\s+rec|and)\s+" + re.escape(name) + r"\b"
            )

            def uses(file):
                t = texts[file]
                n = len(full.findall(t))
                if file == own:
                    n += len(bare(name).findall(t)) - len(definition.findall(t))
                    if len(path) > 1:
                        n += len(local.findall(t))
                elif path[0] in opens[file] or ".".join(path) in opens[file]:
                    n += len(local.findall(t))
                return n

            if not any(uses(file) > 0 for file in texts):
                unused.append(qualified)
    for q in unused:
        print(q)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
