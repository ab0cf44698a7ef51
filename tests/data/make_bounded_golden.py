"""Write bounded_golden.json: what the bounded-symbol path returns or raises on a fixed list of symbols.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/data/make_bounded_golden.py

The symbols are a few fixed cases (mirrored pairs, unit fibers, an empty
congruence solution set B) and 150 seeded draws: 1-3 fibers with
multiplicity a <= 25 and b drawn from all of 1..a-1, either base, genus 1-3,
and a mirrored pair in about one draw in five.  Half the draws take odd
multiplicities only, since r = kA is odd only when every a_j is.  A draw
whose A = lcm(a_j) exceeds 1000 is drawn again, so that the comparison in
test_growth.py stays under a second: at 2A + 1 every fiber takes a Gauss
table and every gamma is summed.  For each symbol the file holds the repr of
the result, or the error type and message, of tv_bounded, lower_bound,
verify_lemma and z_double_simplified at the levels A, 3A and 2A + 1, and of
ltv_scan over those three levels.  pytest does not collect this script;
test_growth.py reads only the JSON.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "bounded_golden.json"
SEED = "bounded-golden"
DRAWS = 150
MAX_A = 1000
LEVEL_CALLS = ("tv_bounded", "lower_bound", "verify_lemma", "z_double_simplified")
FIXED = [
    ("o", 1, [[3, 1], [3, 2]]),  # a mirrored pair
    ("n", 2, [[5, 2], [7, 3], [5, 3]]),  # a mirrored pair after another fiber
    ("o", 1, [[5, 1], [5, 4], [5, 1]]),  # a pair and a third fiber of its multiplicity
    ("o", 1, [[3, 1], [1, 2]]),  # a unit fiber
    ("n", 3, [[1, 1]]),  # a unit fiber alone
    ("o", 1, [[5, 1], [5, 3]]),  # B is empty
    ("o", 1, [[3, 1], [5, 1]]),  # the anchor
]


def _draw(rng: random.Random) -> tuple[str, int, list[list[int]]]:
    while True:
        multiplicities = range(3, 26, 2) if rng.random() < 0.5 else range(2, 26)
        fibers = []
        for _ in range(rng.randint(1, 3)):
            a = rng.choice(multiplicities)
            fibers.append([a, rng.choice([b for b in range(1, a) if math.gcd(a, b) == 1])])
        if len(fibers) > 1 and rng.random() < 0.2:
            a, b = fibers[0]
            fibers[rng.randrange(1, len(fibers))] = [a, a - b]
        if math.lcm(*(a for a, _ in fibers)) <= MAX_A:
            return rng.choice("on"), rng.randint(1, 3), fibers


def outcome(call, *args) -> str:
    """The repr of call(*args), or its error's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def outcomes(symbol_fields) -> tuple[list[int], dict]:
    import seifertq

    epsilon, genus, fibers = symbol_fields
    symbol = seifertq.SeifertSymbol(epsilon, genus, tuple(map(tuple, fibers)), boundary=True)
    A = math.lcm(*(a for a, _ in fibers))
    levels = [A, 3 * A, 2 * A + 1]
    results = {name: [outcome(getattr(seifertq, name), symbol, r) for r in levels] for name in LEVEL_CALLS}
    results["ltv_scan"] = outcome(seifertq.ltv_scan, symbol, levels)
    return levels, results


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    for fields in FIXED + [_draw(rng) for _ in range(DRAWS)]:
        levels, results = outcomes(fields)
        cases.append({"symbol": list(fields), "levels": levels, "outcomes": results})
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
