"""A fixed pure-Python workload that measures how fast this machine runs now.

run.py times this program between checks and set-ups and scales their wall
times to a machine on which it takes CAL_REFERENCE_S seconds.  It imports
nothing from limon, so a change to limon never changes its time.  It does
the kinds of work a check does: split and parse text, build small frozen
objects, sort them, count in a dict and filter a list.

Changing this file changes every calibrated metric: do it only in a change
of its own.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Row:
    key: int
    left: int
    right: int


def main(n: int = 25_000) -> int:
    rng = random.Random(0)
    text = "\n".join(f"push {rng.randrange(1 << 20)} {2 * i} {2 * i + rng.randrange(1, 9)}"
                     for i in range(n))
    rows = []
    for line in text.splitlines():
        _, key, left, right = line.split()
        rows.append(Row(int(key), int(left), int(right)))
    rows.sort(key=lambda r: (r.key, r.right))
    counts: dict[int, int] = {}
    for r in rows:
        counts[r.key & 1023] = counts.get(r.key & 1023, 0) + r.right - r.left
    kept = [r for r in rows if counts[r.key & 1023] & 1]
    return len(kept)


if __name__ == "__main__":
    main()
