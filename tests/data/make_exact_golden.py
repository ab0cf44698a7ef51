"""Write exact_golden.json: what the exact path returns or raises on fixed and seeded inputs.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/data/make_exact_golden.py

The exact path is symbol parsing, the normal form, the double, the Euler
numbers, the congruence system and Dedekind sums; none of it uses a float.

The fiber lists are a few fixed cases (no fiber, unit fibers only, a mirrored
pair, systems with no solution) and 300 seeded draws: 0-6 fibers with
multiplicity a <= 60, unit and even a included, b coprime to a and drawn from
-2a..2a, a mirrored pair (a, -b) in about one draw in five, and in another
one in five a second fiber of the same multiplicity >= 5 with any b, which
often leaves the system without a solution.  Each list is written as the JSON
text of a symbol of either base, genus 1-3, closed or bounded; about one text
in four is then made malformed in one field (a missing field, a genus or a
fiber entry of the wrong type or value, a bad epsilon or boundary).  For each
text the file holds the repr of the result, or the error type and message, of
symbol_from_json, and, when it parses, of normalize, double, euler_number and
orbifold_euler_characteristic of the symbol; and for each fiber list, of
classify_system, enumerate_solutions and system_modulus.  A fixed list of
texts that are not symbols at all follows.  Last come dedekind_sum(b, a) for
every coprime pair with a <= 60 and b in -2a..2a, and for a few a near 10^4.
pytest does not collect this script; test_congruence.py reads only the JSON.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "exact_golden.json"
SEED = "exact-golden"
DRAWS = 300
MAX_A = 60
SYMBOL_CALLS = ("normalize", "double", "euler_number", "orbifold_euler_characteristic")
SYSTEM_CALLS = ("classify_system", "enumerate_solutions", "system_modulus")
FIXED = [
    [],  # no fiber: a degenerate system
    [[1, 3], [1, -2]],  # unit fibers only
    [[3, 1], [3, -1]],  # a mirrored pair
    [[5, 1], [5, 2]],  # +-1 and +-3 differ mod 5: no solution
    [[4, 1], [6, 1], [9, 2]],  # shared factors, solvable
    [[7, 1], [14, 3], [1, 5], [7, -1]],  # a unit fiber among shared moduli
]
LARGE_A = [9_973, 10_000, 10_007]
MALFORMED = [
    "",
    "{",
    "[1, 2]",
    "null",
    '"o"',
    "{}",
    '{"epsilon": "o", "genus": 1, "fibers": []}',
    '{"epsilon": "o", "genus": 1, "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": {"3": 1}, "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": "[[3, 1]]", "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": 3, "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": null, "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[3, 1]], "boundary": false, "extra": 0}',
    '{"epsilon": "o", "genus": 1e3, "fibers": [], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[3, 1.0]], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[true, 1]], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[0, 1]], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[-3, 1]], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[3, 1], [3]], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [[3, 1], null], "boundary": false}',
    '{"epsilon": ["o"], "genus": 1, "fibers": [], "boundary": false}',
    '{"epsilon": "o", "genus": 1, "fibers": [], "boundary": null}',
    '{"epsilon": "o", "genus": 1, "fibers": [[4, 2]], "boundary": "true"}',
]


def _fiber(rng: random.Random, a: int) -> list[int]:
    return [a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1])]


def _draw(rng: random.Random) -> list[list[int]]:
    fibers = [_fiber(rng, rng.choice([1, rng.randint(2, MAX_A)])) for _ in range(rng.randint(0, 6))]
    if len(fibers) > 1:
        roll, j = rng.random(), rng.randrange(1, len(fibers))
        a, b = fibers[0]
        if roll < 0.2:
            fibers[j] = [a, -b]
        elif roll < 0.4:
            a = rng.randint(5, MAX_A)
            fibers[0], fibers[j] = _fiber(rng, a), _fiber(rng, a)
    return fibers


def _malform(rng: random.Random, data: dict) -> None:
    """Make one field of a symbol's JSON object malformed."""
    kind = rng.randrange(8)
    if kind == 0:
        del data[rng.choice(sorted(data))]
    elif kind == 1:
        data["genus"] = rng.choice([0, -1, 1.5, "1", True, None])
    elif kind == 2:
        data["epsilon"] = rng.choice(["x", "", "O", 0, None])
    elif kind == 3:
        data["boundary"] = rng.choice([0, 1, "false", None])
    elif kind == 4:
        data["fibers"].append(rng.choice([[3, 1, 1], [3], "31", [3, "1"], [2.0, 1], [3, None]]))
    elif kind == 5:
        data["fibers"].append(rng.choice([[4, 2], [6, -3], [0, 1], [-5, 2], [1, 0]]))
    elif kind == 6:
        data["fibers"] = rng.choice(["", 7, None, {"3": 1}])
    else:
        data["fibers"].append([False, 1])


def outcome(call, *args) -> str:
    """The repr of call(*args), or its error's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def symbol_case(text: str, fibers) -> dict:
    import seifertq

    case = {"text": text, "symbol_from_json": outcome(seifertq.symbol_from_json, text)}
    try:
        symbol = seifertq.symbol_from_json(text)
    except Exception:
        pass
    else:
        case.update((name, outcome(getattr(seifertq, name), symbol)) for name in SYMBOL_CALLS)
    if fibers is not None:
        case["fibers"] = fibers
        case.update((name, outcome(getattr(seifertq, name), fibers)) for name in SYSTEM_CALLS)
    return case


def dedekind_cases() -> list[list]:
    import seifertq

    pairs = [(b, a) for a in range(1, MAX_A + 1) for b in range(-2 * a, 2 * a + 1) if math.gcd(a, b) == 1]
    rng = random.Random(f"{SEED}:dedekind")
    pairs += [(rng.choice([b for b in range(1, 50) if math.gcd(a, b) == 1]), a) for a in LARGE_A]
    pairs += [(a - 1, a) for a in LARGE_A]
    return [[b, a, outcome(seifertq.dedekind_sum, b, a)] for b, a in pairs]


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    for fibers in FIXED + [_draw(rng) for _ in range(DRAWS)]:
        data = {"epsilon": rng.choice("on"), "genus": rng.randint(1, 3), "fibers": [list(f) for f in fibers],
                "boundary": rng.random() < 0.5}
        if rng.random() < 0.25:
            _malform(rng, data)
        cases.append(symbol_case(json.dumps(data), fibers))
    cases += [symbol_case(text, None) for text in MALFORMED]
    body = ",\n".join(json.dumps(case) for case in cases)
    dedekind = ",\n".join(json.dumps(entry) for entry in dedekind_cases())
    GOLDEN.write_text(f'{{"cases": [\n{body}\n],\n"dedekind_sum": [\n{dedekind}\n]}}\n', encoding="utf-8")


if __name__ == "__main__":
    main()
