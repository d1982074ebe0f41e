#!/usr/bin/env python3
"""Drop every span of one name from a trace JSONL export and renumber.

Usage: trace_drop_spans.py NAME OLD.jsonl [NEW.jsonl]

Removes the lines of the spans named NAME (which must have no child
spans), renumbers the remaining span ids densely in their old order,
and maps every parent id through the same renumbering; every other
byte of a line is kept. With NEW.jsonl it reports whether the result
equals that file byte for byte (exit 1 if not); without, it prints the
result. Used to check that a trace golden changed only by a span that
was removed on purpose.
"""
import json
import re
import sys


def drop(name, lines):
    spans = [json.loads(line) for line in lines]
    dropped = {s["id"] for s in spans if s["name"] == name}
    orphans = [s["id"] for s in spans if s["parent"] in dropped]
    if orphans:
        sys.exit(f"spans {orphans[:5]} have a dropped parent")
    kept_ids = sorted(s["id"] for s in spans if s["id"] not in dropped)
    renumber = {old: new for new, old in enumerate(kept_ids, start=1)}

    def sub(match):
        return f'"{match.group(1)}":{renumber[int(match.group(2))]}'

    out = [
        re.sub(r'"(id|parent)":(\d+)', sub, line, count=2)
        for line, s in zip(lines, spans)
        if s["id"] not in dropped
    ]
    return out, len(dropped)


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    name, old = sys.argv[1], sys.argv[2]
    with open(old) as f:
        out, n = drop(name, f.read().splitlines(keepends=True))
    if len(sys.argv) == 3:
        sys.stdout.write("".join(out))
        return
    with open(sys.argv[3]) as f:
        new = f.read()
    same = "".join(out) == new
    print(f"dropped {n} {name!r} spans; {len(out)} lines left;",
          "equal to" if same else "DIFFERS from", sys.argv[3])
    sys.exit(0 if same else 1)


if __name__ == "__main__":
    main()
