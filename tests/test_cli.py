"""End-to-end command line behavior: payloads, formats, and exit codes."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import seifertq.growth
from seifertq import RootContext, six_j
from seifertq.cli import main

TORUS = '{"epsilon": "o", "genus": 1, "fibers": [], "boundary": false}'
ANCHOR = '{"epsilon": "o", "genus": 1, "fibers": [[3, 1], [5, 1]], "boundary": true}'


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_child(*argv, **kwargs):
    """The CLI run in a fresh interpreter that imports the package this process imports, for limits of its own."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    command = [sys.executable, "-m", "seifertq.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, **kwargs)


def test_rt_torus_bundle(capsys):
    code, out, _ = run(capsys, "rt", "--symbol", TORUS, "--r", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "rt"
    assert payload["value"]["re"] == pytest.approx(6.0, rel=1e-9)
    assert payload["value"]["im"] == pytest.approx(0.0, abs=1e-9)
    assert payload["term_count"] == 6
    assert "threads" not in payload
    assert "timing_ms" not in payload


def test_tv_closed_symbol(capsys):
    symbol = '{"epsilon": "o", "genus": 2, "fibers": [], "boundary": false}'
    code, out, _ = run(capsys, "tv", "--symbol", symbol, "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(16.0, rel=1e-9)
    assert payload["method"] == "tv-closed"


def test_tv_bounded_symbol(capsys):
    code, out, _ = run(capsys, "tv", "--symbol", ANCHOR, "--r", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "tv-bounded"
    assert payload["value"] > 0
    # at r = 9A only 2 * 9 gamma survive the Gauss sums, yet term_count is the literal 134 * 2^4 * (3 * 5)^2
    _, out, _ = run(capsys, "tv", "--symbol", ANCHOR, "--r", "135")
    assert json.loads(out)["term_count"] == 482400


def test_tv_of_a_pair_sharing_a_factor_with_r_builds_no_gauss_table():
    # gcd(300009, 120027) = 3: the double's pair takes the integer a D = 120027 * 3 and builds no Gauss table;
    # with a table for the pair the call runs past the timeout
    symbol = '{"epsilon": "o", "genus": 1, "fibers": [[120027, 1]], "boundary": true}'
    value = json.loads(run_child("tv", "--symbol", symbol, "--r", "300009", timeout=60, check=True).stdout)["value"]
    assert isinstance(value, float) and 0 < value < math.inf


def test_tv_triangulation(capsys):
    path = str(files("seifertq").joinpath("data/s3_two_tet.tri"))
    code, out, _ = run(capsys, "tv", "--tri", path, "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "state-sum"
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)
    assert payload["tetrahedra"] == 2
    assert payload["euler_characteristic"] == 0


def test_tv_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "tv", "--r", "5")
    assert code == 3
    assert "exactly one" in err
    code, _, _ = run(capsys, "tv", "--symbol", TORUS, "--tri", "x.tri", "--r", "5")
    assert code == 3
    # main reads --symbol before the handler sees --tri, so a bad symbol reports its own error
    code, _, err = run(capsys, "tv", "--symbol", "{bad", "--tri", "x.tri", "--r", "5")
    assert code == 3
    assert "invalid JSON for symbol" in err


def test_double_and_normalize(capsys):
    code, out, _ = run(capsys, "double", "--symbol", ANCHOR)
    assert code == 0
    payload = json.loads(out)
    assert payload["double"]["fibers"] == [[3, 1], [5, 1], [3, -1], [5, -1]]
    assert payload["euler_number"] == "0"

    raw = '{"epsilon": "o", "genus": 1, "fibers": [[3, 7], [5, -4], [1, -3]], "boundary": false}'
    code, out, _ = run(capsys, "normalize", "--symbol", raw)
    assert code == 0
    payload = json.loads(out)
    assert payload["normalized"]["fibers"] == [[3, 1], [5, -9]]


def test_certify(capsys):
    code, out, _ = run(capsys, "certify", "--symbol", ANCHOR)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "pairwise-coprime"
    cert = payload["certificate"]
    assert cert["modulus"] == 15
    assert cert["cardinality"] == 4
    assert [entry[0] for entry in cert["set_B"]] == [1, 4, 11, 14]


SYMBOL_COMMANDS = [
    ["rt", "--r", "7"],
    ["tv", "--r", "15"],
    ["double"],
    ["normalize"],
    ["certify"],
    ["scan", "--k", "1,3"],
    ["bound", "--k", "1"],
]


@pytest.mark.parametrize("argv", SYMBOL_COMMANDS, ids=lambda argv: argv[0])
def test_symbol_is_echoed_after_schema_and_command(capsys, tmp_path, argv):
    symbol = TORUS if argv[0] == "rt" else ANCHOR
    path = tmp_path / "symbol.json"
    path.write_text(symbol)
    code, out, _ = run(capsys, argv[0], "--symbol", f"@{path}", *argv[1:])
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[:3] == ["schema", "command", "symbol"]
    assert payload["symbol"] == json.loads(symbol)


@pytest.mark.parametrize("argv", SYMBOL_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("b", [1, -1])
def test_zero_multiplicity_exits_4(capsys, argv, b):
    symbol = f'{{"epsilon": "o", "genus": 1, "fibers": [[0, {b}], [3, 1]], "boundary": true}}'
    code, out, _ = run(capsys, argv[0], "--symbol", symbol, *argv[1:])
    assert code == 4
    assert out == ""


def test_certify_no_solution(capsys):
    symbol = '{"epsilon": "o", "genus": 1, "fibers": [[5, 1], [5, 3]], "boundary": true}'
    code, out, _ = run(capsys, "certify", "--symbol", symbol)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "no-solution"
    assert payload["certificate"] is None


def test_dedekind(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "1/18"
    assert payload["float"] == pytest.approx(1 / 18)
    # 693 == -1 (mod 694); a negative b follows "--"
    exact = [json.loads(run(capsys, "dedekind", *args, "694")[1])["exact"] for args in (["693"], ["--", "-1"])]
    assert exact[0] == exact[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux only")
def test_dedekind_check_fits_a_256_mb_address_space():
    # the exact check against the sawtooth sum runs in constant memory, so a = 10^7 + 19 needs no list of a terms
    import resource

    cap = 256 * 2**20
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))  # noqa: E731
    assert run_child("dedekind", "1", "10000019", preexec_fn=limit).returncode == 0


def test_sixj(capsys):
    code, out, _ = run(capsys, "sixj", "--r", "5", "2", "2", "2", "2", "2", "2")
    assert code == 0
    payload = json.loads(out)
    expected = six_j(RootContext(5), 2, 2, 2, 2, 2, 2)
    assert payload["value"]["re"] == pytest.approx(expected.real, rel=1e-9)
    assert payload["value"]["im"] == pytest.approx(expected.imag, abs=1e-9)


def test_scan_with_k_and_csv(capsys):
    code, out, _ = run(capsys, "scan", "--symbol", ANCHOR, "--k", "1,3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,tv,ltv"
    assert len(lines) == 3
    assert lines[1].startswith("15,")
    assert lines[2].startswith("45,")


def test_scan_json_has_growth_exponent(capsys):
    code, out, _ = run(capsys, "scan", "--symbol", ANCHOR, "--r", "15,45")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 2
    assert payload["growth_exponent"] > 0


def test_scan_needs_levels(capsys):
    code, _, err = run(capsys, "scan", "--symbol", ANCHOR)
    assert code == 3
    assert "exactly one" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["scan", "--k", "1,x"], "bad level list", id="not-an-integer"),
        pytest.param(["scan", "--r", " , "], "no levels", id="no-levels"),
        pytest.param(["bound", "--k", "1,3"], "bound takes a single level", id="bound-two-levels"),
    ],
)
def test_bad_levels_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--symbol", ANCHOR)
    assert code == 3
    assert out == ""
    assert message in err


def test_bound_with_verification(capsys):
    code, out, _ = run(capsys, "bound", "--symbol", ANCHOR, "--k", "1", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(56.25)
    assert payload["r"] == 15
    assert payload["verify"]["satisfied"] is True


def test_bound_with_verification_computes_the_bound_once(capsys, monkeypatch):
    original, calls = seifertq.growth.lower_bound, []
    monkeypatch.setattr(seifertq.growth, "lower_bound", lambda *args: calls.append(args) or original(*args))
    code, _, _ = run(capsys, "bound", "--symbol", ANCHOR, "--k", "1", "--verify")
    assert code == 0
    assert len(calls) == 1  # verify_lemma's bound is the one printed


def test_symbol_from_file(capsys, tmp_path):
    path = tmp_path / "symbol.json"
    path.write_text(TORUS)
    code, out, _ = run(capsys, "rt", "--symbol", f"@{path}", "--r", "5")
    assert code == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(4.0, rel=1e-9)
    # the CLI reads every --symbol in one place: @file prints the bytes of the inline symbol
    for symbol, argv in ((TORUS, ["rt", "--r", "5"]), (ANCHOR, ["tv", "--r", "15"])):
        path.write_text(symbol)
        inline, from_file = (run(capsys, argv[0], "--symbol", given, *argv[1:])[1] for given in (symbol, f"@{path}"))
        assert from_file == inline


def test_missing_symbol_file(capsys, tmp_path):
    code, out, err = run(capsys, "rt", "--symbol", f"@{tmp_path}/nope.json", "--r", "5")
    assert code == 3
    assert out == ""
    assert "cannot read" in err


def test_missing_triangulation_file(capsys, tmp_path):
    code, _, err = run(capsys, "tv", "--tri", f"{tmp_path}/nope.tri", "--r", "5")
    assert code == 3
    assert "cannot read triangulation file" in err


@pytest.mark.parametrize("fibers", ["[3]", "[[3, true]]"])
def test_non_pair_fiber_entry_exits_3(capsys, fibers):
    symbol = f'{{"epsilon": "o", "genus": 1, "fibers": {fibers}, "boundary": true}}'
    code, _, err = run(capsys, "certify", "--symbol", symbol)
    assert code == 3
    assert "bad fiber entry" in err


def test_exit_codes(capsys):
    # malformed JSON -> 3
    code, _, _ = run(capsys, "rt", "--symbol", "{broken", "--r", "5")
    assert code == 3
    # wrongly typed epsilon -> 3, like a wrongly typed genus
    code, _, err = run(capsys, "rt", "--symbol", '{"epsilon": 1, "genus": 1, "fibers": [], "boundary": false}', "--r", "5")
    assert code == 3
    assert "epsilon must be a string" in err
    # semantically invalid symbol -> 4
    bad = '{"epsilon": "q", "genus": 1, "fibers": [], "boundary": false}'
    code, _, _ = run(capsys, "rt", "--symbol", bad, "--r", "5")
    assert code == 4
    # level not a multiple of the modulus -> 4
    code, _, _ = run(capsys, "bound", "--symbol", ANCHOR, "--r", "25")
    assert code == 4
    # even level -> 4
    code, _, _ = run(capsys, "rt", "--symbol", TORUS, "--r", "6")
    assert code == 4


@pytest.mark.parametrize(
    "genus",
    [
        pytest.param(700, id="power-overflows"),  # sin^-(2g-2) raised OverflowError
        pytest.param(300, id="product-overflows"),  # printed "re": Infinity and exited 0
    ],
)
def test_value_beyond_float_range_exits_4(capsys, genus):
    symbol = f'{{"epsilon": "o", "genus": {genus}, "fibers": [], "boundary": false}}'
    code, out, err = run(capsys, "rt", "--symbol", symbol, "--r", "7")
    assert code == 4
    assert out == ""
    assert "exceeds the float range" in err


def test_sixj_at_large_level_is_finite_or_exits_4(capsys):
    # the Racah sum of this tuple overflows; sixj printed "re": Infinity and exited 0
    code, out, err = run(capsys, "sixj", "--r", "2001", "1388", "888", "986", "518", "1050", "1158")
    if code == 4:
        assert out == ""
        assert "exceeds the float range" in err
    else:
        assert code == 0
        json.loads(out, parse_constant=pytest.fail)


def test_sixj_past_the_factorial_table_range_exits_4(capsys):
    # {n}! leaves the float range from n = 3553 at r = 9001; this exited 1 with a ZeroDivisionError traceback
    code, out, err = run(capsys, "sixj", "--r", "20001", *["10000"] * 6)
    assert code == 4
    assert out == ""
    assert "exceeds the float range" in err


def test_prefactor_beyond_float_range_exits_4_not_zero(capsys):
    # P2's denominator 2^1023 sqrt(4) overflows to inf; RT printed "re": -0.0 and exited 0
    fibers = json.dumps([[1, 0]] * 522 + [[4, 1]])
    symbol = f'{{"epsilon": "o", "genus": 501, "fibers": {fibers}, "boundary": false}}'
    code, out, err = run(capsys, "rt", "--symbol", symbol, "--r", "3")
    assert code == 4
    assert out == ""
    assert "exceeds the float range" in err


def test_rt_of_a_double_prints_an_imaginary_part_of_zero(capsys):
    # a double, and one mirrored pair, where P2's sign -1 meets a real, negative Z
    for fibers in ("[[3, 1], [5, 1], [3, -1], [5, -1]]", "[[3, 1], [3, -1]]"):
        double = f'{{"epsilon": "o", "genus": 2, "fibers": {fibers}, "boundary": false}}'
        code, out, _ = run(capsys, "rt", "--symbol", double, "--r", "15")
        assert code == 0
        # compared as text: -0.0 == 0.0 would pass a comparison of floats
        assert json.dumps(json.loads(out)["value"]["im"]) == "0.0", fibers


def test_rt_where_no_gamma_survives_prints_exact_zeros(capsys):
    # (2, 1) has a nonzero Gauss sum at even gamma only and (4, 1) at odd gamma only: no gamma is summed
    symbol = '{"epsilon": "o", "genus": 1, "fibers": [[2, 1], [4, 1]], "boundary": false}'
    code, out, _ = run(capsys, "rt", "--symbol", symbol, "--r", "10001")
    assert code == 0
    payload = json.loads(out)
    assert (json.dumps(payload["value"]), payload["term_count"]) == ('{"re": 0.0, "im": 0.0}', 320000)


def test_malformed_triangulation_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("tet 0: - - -\n")
    code, _, err = run(capsys, "tv", "--tri", str(path), "--r", "5")
    assert code == 3
    assert "expected 4" in err


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("tet \u00b2: - - - -\n", "expected 'tet <id>", id="id"),
        pytest.param("tet 0: 1:\u00b2:0123 - - -\n", "malformed gluing", id="gluing"),
    ],
)
def test_non_ascii_digit_in_triangulation_exits_3(capsys, tmp_path, text, message):
    # str.isdigit accepts the superscript two, int() does not
    path = tmp_path / "bad.tri"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "tv", "--tri", str(path), "--r", "5")
    assert code == 3
    assert message in err


LONG_INTEGER = "1" * 5001  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize(
    "command, symbol",
    [
        pytest.param("normalize", f'{{"epsilon":"o","genus":{LONG_INTEGER},"fibers":[],"boundary":false}}', id="genus"),
        pytest.param("certify", f'{{"epsilon":"o","genus":1,"fibers":[[3,{LONG_INTEGER}]],"boundary":true}}',
                     id="fiber"),
    ],
)
def test_symbol_integer_past_the_digit_limit_exits_3(capsys, command, symbol):
    # this printed a ValueError traceback and exited 1
    code, out, err = run(capsys, command, "--symbol", symbol)
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid JSON for symbol: ")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(f"tet {LONG_INTEGER}: - - - -\n", id="tet-id"),
        pytest.param(f"tet 0: {LONG_INTEGER}:0:0123 - - -\n", id="gluing"),
    ],
)
def test_triangulation_index_past_the_digit_limit_exits_3(capsys, tmp_path, text):
    path = tmp_path / "long.tri"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "tv", "--tri", str(path), "--r", "5")
    assert (code, out) == (3, "")
    assert err == "error: line 1: an index of 5001 digits is too long\n"


def test_deeply_nested_symbol_json_exits_3(capsys):
    # json.loads meets 100 000 nested arrays as a RecursionError, which printed a traceback and exited 1
    code, out, err = run(capsys, "normalize", "--symbol", "[" * 100_000)
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid JSON for symbol: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rt", "--symbol", TORUS])  # missing required --r
    assert excinfo.value.code == 2


def test_deterministic_output_is_stable(capsys):
    _, first, _ = run(capsys, "rt", "--symbol", TORUS, "--r", "9")
    _, second, _ = run(capsys, "rt", "--symbol", TORUS, "--r", "9")
    assert first == second


def test_no_deterministic_adds_timing(capsys):
    code, out, _ = run(capsys, "rt", "--symbol", TORUS, "--r", "9", "--no-deterministic")
    assert code == 0
    payload = json.loads(out)
    assert "timing_ms" in payload
    assert payload["timing_ms"] >= 0


def test_csv_key_value_format(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("exact,") for line in lines)


def test_csv_writes_nested_values_as_json(capsys):
    symbol = '{"epsilon": "o", "genus": 1, "fibers": [[3, 1], [5, 2]], "boundary": false}'
    _, out, _ = run(capsys, "rt", "--symbol", symbol, "--r", "7")
    payload = json.loads(out)
    code, out, _ = run(capsys, "rt", "--symbol", symbol, "--r", "7", "--format", "csv")
    assert code == 0
    rows = dict(csv.reader(io.StringIO(out)))
    assert json.loads(rows["symbol"]) == payload["symbol"]
    assert json.loads(rows["value"]) == payload["value"]


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def test_output_bytes_match_the_golden_file(capsys, monkeypatch, tmp_path):
    # data/make_cli_golden.py wrote each argv's exit code and stdout; its --tri paths are relative to the checkout,
    # so they are laid out under a scratch directory from the packaged triangulations
    monkeypatch.chdir(tmp_path)
    for case in GOLDEN:
        argv = case["argv"]
        if "--tri" in argv:
            path = Path(argv[argv.index("--tri") + 1])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes((files("seifertq") / "data" / path.name).read_bytes())
    mismatched = []
    for case in GOLDEN:
        try:
            code = main(case["argv"])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        if (code, capsys.readouterr().out) != (case["exit_code"], case["stdout"]):
            mismatched.append(case["argv"])
    assert len(GOLDEN) == 16
    assert mismatched == []
