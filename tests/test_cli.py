import argparse
import json
import random
import time
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction as F

import pytest

from regencode.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAIL,
    MAX_SAMPLES,
    RecipeError,
    asymptotic_csv,
    curve_csv,
    decimal_str,
    main,
    parse_recipe,
)
from regencode.constructions import Shape
from regencode.dss import ResourceError, rs_base
from regencode.tradeoff import SystemParams


def test_decimal_str_frozen_cases():
    assert decimal_str(F(8, 3)) == "2.66666666667"
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(2)) == "2"
    assert decimal_str(F(0)) == "0"
    assert decimal_str(F(-5, 4)) == "-1.25"
    assert decimal_str(F(1, 2)) == "0.5"
    assert decimal_str(F(10**15)) == "1e+15"
    assert decimal_str(F(1, 10**7)) == "1e-7"


def test_decimal_str_matches_decimal_module():
    ctx = Context(prec=12, rounding=ROUND_HALF_EVEN)
    rnd = random.Random(9)
    for _ in range(500):
        x = F(rnd.randint(-(10**9), 10**9), rnd.randint(1, 10**6))
        if x == 0:
            continue
        expected = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
        assert Decimal(decimal_str(x)) == expected, x


def test_decimal_str_ties_carries_and_notation_boundaries():
    assert decimal_str(F(1234567890125, 10**12)) == "1.23456789012"  # tie, even kept
    assert decimal_str(F(1234567890135, 10**12)) == "1.23456789014"  # tie, odd rounds up
    assert decimal_str(F(-1234567890125, 10**12)) == "-1.23456789012"
    assert decimal_str(F(9999999999995, 10**12)) == "10"  # carry into a new digit
    assert decimal_str(F(10**15 - 1)) == "1e+15"  # carry across the notation boundary
    assert decimal_str(F(10**14)) == "100000000000000"
    assert decimal_str(F(1, 10**4)) == "0.0001"
    assert decimal_str(F(1, 10**5)) == "1e-5"
    assert decimal_str(F(99999999999951, 10**19)) == "1e-5"


def test_curve_433():
    csv = curve_csv(SystemParams(4, 3, 3), F(1), 3)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("gamma,gamma_dec,capacity")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # realizable points gamma = 1, 2, 3 give p1 = 2, 8/3, 3
    header = lines[0].split(",")
    p1 = header.index("p1")
    flag = header.index("p1_realizable")
    cap = header.index("capacity")
    assert rows["1"][p1] == "2" and rows["1"][flag] == "1"
    assert rows["2"][p1] == "8/3" and rows["2"][flag] == "1"
    assert rows["3"][p1] == "3" and rows["3"][flag] == "1"
    # capacity at gamma = alpha is the saturated MBR-end sum
    assert rows["1"][cap] == "2"
    # P3 point for l=1 appears as an extra row at gamma = 3/2
    p3 = header.index("p3")
    assert rows["3/2"][p3] == "2"


def test_curve_sorted_and_deterministic():
    a = curve_csv(SystemParams(10, 7, 8), F(1), 13)
    b = curve_csv(SystemParams(10, 7, 8), F(1), 13)
    assert a == b
    gammas = [F(line.split(",")[0]) for line in a.strip().split("\n")[1:]]
    assert gammas == sorted(gammas)
    assert gammas[0] == 1 and gammas[-1] == F(8, 2)


def test_asymptotic_csv_values():
    csv = asymptotic_csv(SystemParams(2, 1, 1), [F(1, 2)], [100])
    lines = csv.strip().split("\n")
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("s")] == "1/2"
    assert row[header.index("M")] == "100"
    assert row[header.index("i")] == "51"
    # h2/M = s + (n-k+1)/M = 1/2 + 2/100
    assert row[header.index("h2_over_M")] == "13/25"


def test_parse_recipe_nested():
    dss = parse_recipe("blowup_simple(base(3,2))")
    assert dss.params == SystemParams(4, 3, 3)
    dss = parse_recipe("concat(base(3,2),base(3,2),base(3,2))")
    assert dss.params == SystemParams(9, 8, 8)
    dss = parse_recipe("iterate(base(2,1),2)")
    assert dss.params == SystemParams(4, 3, 3)
    dss = parse_recipe("copy_blowup(base(3,2),1)")
    assert dss.params == SystemParams(4, 3, 3)
    with pytest.raises(RecipeError):
        parse_recipe("blowup_simple(base(3,2)) junk")
    with pytest.raises(RecipeError):
        parse_recipe("frobnicate(base(3,2))")
    with pytest.raises(RecipeError):
        parse_recipe("base(3)")
    for bad in [
        "base(3,2)+1",
        "base(True,2)",
        "base(3,2,k=1)",
        "concat()",
        "base(3,2,)",  # Python syntax outside the grammar
        "(base(3,2))",
        "base(0x3,2)",
        "base(3,2)" + "+1" * 3000,  # the expression parser's recursion limit
        "-" * 10000 + "1",  # the expression parser's stack limit
    ]:
        with pytest.raises(RecipeError):
            parse_recipe(bad)


def test_cli_construct_blowup_simple(tmp_path):
    out = tmp_path / "report.json"
    code = main(["construct", "blowup_simple(base(3,2))", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["measured"] == {"alpha": "3", "file_size": "8", "gamma": "6"}
    assert report["match"] is True
    assert report["checks_run"] == {"reconstruction": 4, "repair": 4, "total": 8}


def test_cli_construct_parse_error(capsys):
    assert main(["construct", "nonsense(3)"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_one_part_concat_predicts_the_part(tmp_path):
    base = rs_base(3, 2)
    predicted = Shape.predict("concat", [base])
    assert predicted == (base.params, base.alpha_symbols, base.file_len, base.gamma_symbols)
    assert main(["construct", "concat(base(3,2))", "--out", str(tmp_path / "r.json")]) == EXIT_OK


def test_cli_construct_budget_flag(tmp_path):
    code = main(
        ["construct", "blowup_full(base(3,2))", "--budget", "10", "--out", str(tmp_path / "r.json")]
    )
    assert code == EXIT_RESOURCE


def test_cli_construct_budget_refuses_a_bare_base(capsys):
    assert main(["construct", "base(3,2)", "--budget", "1"]) == EXIT_RESOURCE
    assert "6 generator entries" in capsys.readouterr().err
    assert main(["construct", "base(3,5)", "--budget", "1"]) == EXIT_INPUT  # argument errors first


def test_cli_construct_negative_budget_is_an_input_error(capsys):
    assert main(["construct", "base(3,2)", "--budget", "-5"]) == EXIT_INPUT
    assert "budget must be >= 0, got -5" in capsys.readouterr().err
    assert main(["construct", "base(3,2)", "--budget", "0"]) == EXIT_RESOURCE  # a valid budget
    assert "over the budget 0" in capsys.readouterr().err


def test_cli_construct_budget_refuses_before_building(monkeypatch, capsys):
    import regencode.constructions as constructions

    def never(*args, **kwargs):
        raise AssertionError("a refused recipe reached _compose or permutations")

    monkeypatch.setattr(constructions, "_compose", never)
    monkeypatch.setattr(constructions.itertools, "permutations", never)
    assert main(["construct", "iterate(base(3,2),3)"]) == EXIT_RESOURCE
    assert "25798901760000 generator entries" in capsys.readouterr().err
    for recipe in [
        "concat(iterate(base(3,2),2),iterate(base(3,2),2))",  # each part fits alone
        "filenode_blowup(base(9,3))",
        "copy_blowup(base(9,8),1)",
    ]:
        assert main(["construct", recipe]) == EXIT_RESOURCE, recipe
        assert "generator entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "base(4,2)", "--frobnicate"],
        ["construct"],
        ["curve", "--n", "4", "--k", "3", "--d", "3", "--samples", "many"],
        ["curve", "--n", "4", "--k", "3", "--d", "3", "--samples", "1"],
        ["construct", "base(4,2)", "--strict-basis"],  # removed flag
        ["construct", "blowup_simple(" * 1200 + "base(3,2)" + ")" * 1200],  # over-nested
        # zero denominators
        ["curve", "--n", "4", "--k", "3", "--d", "3", "--alpha", "1/0"],
        ["compare", "--n", "4", "--k", "3", "--d", "3", "--gamma", "1/0"],
        ["compare", "--n", "4", "--k", "3", "--d", "3", "--gamma", "1", "--alpha", "0/0"],
        ["asymptotic", "--n", "2", "--k", "1", "--d", "1", "--s", "1/0", "--M", "100"],
        ["asymptotic", "--n", "2", "--k", "1", "--d", "1", "--s", "1", "--M", "0"],
    ],
)
def test_cli_usage_errors_exit_input(argv, capsys):
    assert main(argv) == EXIT_INPUT  # not 2, which means a failed verification
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_ok(capsys):
    assert main(["construct", "--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_cli_construct_verify_failure_exit_code(tmp_path, monkeypatch):
    import regencode.cli as cli
    from regencode.verifier import VerificationReport

    def fake_verify(dss, predicted, seed=0):
        return VerificationReport(
            label=dss.label, mode={"kind": "exhaustive"}, reconstruction_ok=False
        )

    monkeypatch.setattr(cli, "measure_and_compare", fake_verify)
    code = main(["construct", "base(3,2)", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_VERIFY_FAIL


def test_cli_curve_roundtrip(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--n", "4", "--k", "3", "--d", "3", "--samples", "5",
                 "--out", str(out)]) == EXIT_OK
    text1 = out.read_text()
    assert main(["curve", "--n", "4", "--k", "3", "--d", "3", "--samples", "5",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == text1  # byte-stable


def test_cli_curve_refuses_samples_over_the_ceiling(capsys):
    start = time.perf_counter()
    argv = ["curve", "--n", "4", "--k", "3", "--d", "3", "--samples", "100000000"]
    assert main(argv) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1
    assert "over the ceiling of 100000" in capsys.readouterr().err
    with pytest.raises(ResourceError):
        curve_csv(SystemParams(4, 3, 3), F(1), MAX_SAMPLES + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--n", "4", "--k", "3", "--d", "3"],
        ["asymptotic", "--n", "2", "--k", "1", "--d", "1"],
        ["construct", "base(3,2)"],
    ],
    ids=["curve", "asymptotic", "construct"],
)
def test_cli_unwritable_out_exits_input(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"  # its directory does not exist
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_curve_bad_params(capsys):
    assert main(["curve", "--n", "4", "--k", "3", "--d", "2"]) == EXIT_INPUT
    capsys.readouterr()


def test_cli_compare_output(capsys):
    assert main(["compare", "--n", "4", "--k", "3", "--d", "3",
                 "--alpha", "1", "--gamma", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "capacity   8/3  (2.66666666667)" in out
    assert "p1         8/3  (2.66666666667)  x=2" in out
    assert "timeshare  5/2  (2.5)" in out


@pytest.mark.parametrize("gamma", ["1/2", "4"], ids=["below_alpha", "above_msr"])
def test_cli_compare_outside_the_curve_prints_dashes(gamma, capsys):
    # (4,3,3) at alpha 1 has gamma_MSR = 3: timeshare and p1 hold only on [1, 3]
    assert main(["compare", "--n", "4", "--k", "3", "--d", "3",
                 "--alpha", "1", "--gamma", gamma]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "timeshare  -" in lines and "p1         -" in lines
    assert lines[0].startswith("capacity   ")


def test_cli_compare_rational_alpha(capsys):
    assert main(["compare", "--n", "4", "--k", "3", "--d", "3",
                 "--alpha", "3/8", "--gamma", "3/4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "p1         1  (1)  x=2" in out


def test_cli_asymptotic(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["asymptotic", "--n", "2", "--k", "1", "--d", "1",
                 "--s", "1/2,1", "--M", "100,1000", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5


def _captured(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_cli_main_reuses_one_parser(monkeypatch, capsys):
    import regencode.cli as cli

    runs = [
        ["curve", "--n", "4", "--k", "3", "--d", "3", "--samples", "3"],
        ["construct", "base(3,2)"],
        ["asymptotic", "--n", "2", "--k", "1", "--d", "1", "--s", "1/2", "--M", "100"],
        ["compare", "--n", "4", "--k", "3", "--d", "3", "--alpha", "3/8", "--gamma", "3/4"],
        ["construct"],  # a usage error
        ["construct", "--help"],
        ["construct", "base(3,2)"],
        ["compare", "--help"],
    ]
    _captured(runs[0], capsys)  # the warm call
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    shared = [_captured(argv, capsys) for argv in runs]
    assert built == []
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = [_captured(argv, capsys) for argv in runs]
    assert built.count("regencode") == len(runs)  # build_parser: a new parser each call
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [EXIT_OK] * 4 + [EXIT_INPUT] + [EXIT_OK] * 3
