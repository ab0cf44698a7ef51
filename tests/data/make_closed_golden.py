"""Write closed_golden.json: what the closed-symbol path returns or raises on a fixed list of symbols.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/data/make_closed_golden.py

The symbols are a few fixed cases (no fiber, a mirrored pair, values past the
float range) and 150 seeded draws: 0-4 fibers with multiplicity a <= 25,
unit and even a included, b coprime to a and drawn from -2a..2a, either base,
genus 1-3, and a mirrored pair (a, -b) in about one draw in five.  Each symbol
is evaluated at a random odd level up to 199, at an odd level sharing a
factor with one of its a_j when some a_j has an odd factor > 1, and at
A = lcm(a_j) when A is odd and 3 <= A <= 1000, so that the comparison in
test_rt.py stays under a second.  For each symbol and level the file holds
the repr of the result, or the error type and message, of z_direct,
rt_closed and tv_closed.  It also holds verlinde_dimension(g, r) for
g = 1..6 at every odd r <= 99 and at r = 10 001 and 100 003.  pytest does
not collect this script; test_rt.py reads only the JSON.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "closed_golden.json"
SEED = "closed-golden"
DRAWS = 150
MAX_A = 1000
LEVEL_CALLS = ("z_direct", "rt_closed", "tv_closed")
VERLINDE_LEVELS = list(range(3, 100, 2)) + [10_001, 100_003]
VERLINDE_GENERA = range(1, 7)
FIXED = [
    ("o", 1, []),  # no fiber: every gamma is summed
    ("n", 1, []),  # no fiber, the odd sign
    ("o", 2, [[3, 1], [3, -1]]),  # a mirrored pair, e = 0
    ("n", 2, [[5, 2], [7, 3], [5, -2]]),  # a mirrored pair after another fiber
    ("o", 1, [[1, 2], [2, 1]]),  # a unit fiber and an even one
    ("o", 700, []),  # the power of r leaves the float range
    ("n", 1331, [[5, 1], [5, -1]]),  # the terms reach +inf and -inf
]


def _draw(rng: random.Random) -> tuple[str, int, list[list[int]]]:
    fibers = []
    for _ in range(rng.randint(0, 4)):
        a = rng.randint(1, 25)
        fibers.append([a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1])])
    if len(fibers) > 1 and rng.random() < 0.2:
        a, b = fibers[0]
        fibers[rng.randrange(1, len(fibers))] = [a, -b]
    return rng.choice("on"), rng.randint(1, 3), fibers


def _levels(rng: random.Random, fibers: list[list[int]]) -> list[int]:
    levels = [rng.randrange(3, 200, 2)]
    odd_parts = [a // (a & -a) for a, _ in fibers if a // (a & -a) > 1]
    if odd_parts:
        factor = rng.choice(odd_parts)
        levels.append(factor * rng.randrange(1, 200 // factor + 2, 2))
    A = math.lcm(*(a for a, _ in fibers))
    if A % 2 and 3 <= A <= MAX_A:
        levels.append(A)
    return levels


def outcome(call, *args) -> str:
    """The repr of call(*args), or its error's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def outcomes(symbol_fields, levels: list[int]) -> dict:
    import seifertq

    epsilon, genus, fibers = symbol_fields
    symbol = seifertq.SeifertSymbol(epsilon, genus, tuple(map(tuple, fibers)))
    return {name: [outcome(getattr(seifertq, name), symbol, r) for r in levels] for name in LEVEL_CALLS}


def verlinde_outcomes() -> dict:
    import seifertq

    return {str(g): [outcome(seifertq.verlinde_dimension, g, r) for r in VERLINDE_LEVELS] for g in VERLINDE_GENERA}


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    for fields in FIXED + [_draw(rng) for _ in range(DRAWS)]:
        levels = _levels(rng, fields[2])
        cases.append({"symbol": list(fields), "levels": levels, "outcomes": outcomes(fields, levels)})
    verlinde = json.dumps({"levels": VERLINDE_LEVELS, "outcomes": verlinde_outcomes()})
    body = ",\n".join(json.dumps(case) for case in cases)
    GOLDEN.write_text(f'{{"verlinde_dimension": {verlinde},\n"cases": [\n{body}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()
