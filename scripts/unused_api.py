#!/usr/bin/env python3
"""List the public values that no program outside the tests mentions.

For every `val` declared in lib/**/*.mli, search the .ml files under
lib/, bin/, bench/, perfbench/ and examples/ for its name as a whole
word. The value's own definition (`let`, `let rec` or `and` in its
module's .ml) does not count; any other occurrence does, so the check
errs toward keeping a value whose name is common. Prints one
`Module.value` per line for the values found nowhere and exits 1 when
there are any.

Run from anywhere:  python3 scripts/unused_api.py
"""

import collections
import pathlib
import re
import sys

SEARCH_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]

# Test oracles and checker entry points: public so that tests can use
# them, called by no program.
ALLOWLIST = {
    # the Theorem 7.2 freshness check of a recorded run
    "Checker.check_freshness",
}

VAL_RE = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    texts = {
        path: path.read_text()
        for d in SEARCH_DIRS
        for path in sorted((root / d).rglob("*.ml"))
    }
    words = {path: collections.Counter(WORD_RE.findall(t)) for path, t in texts.items()}
    unused = []
    for mli in sorted((root / "lib").rglob("*.mli")):
        own = mli.with_suffix(".ml")
        for name in sorted(set(VAL_RE.findall(mli.read_text()))):
            qualified = f"{mli.stem.capitalize()}.{name}"
            if qualified in ALLOWLIST:
                continue
            definition = re.compile(r"\b(?:let|let\s+rec|and)\s+" + re.escape(name) + r"\b")

            def uses(path):
                n = words[path][name]
                if path == own:
                    n -= len(definition.findall(texts[path]))
                return n

            if not any(uses(path) > 0 for path in texts):
                unused.append(qualified)
    for q in unused:
        print(q)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
