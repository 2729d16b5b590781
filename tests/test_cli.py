"""Command line wiring: parsing, JSON shape, statuses, exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cypairs.bundles import Bundle, overall_status, tensor, wedge_q
from cypairs.cli import CLAIMS, _exit_code, _parse_expression, main


DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_overall_status_rollup():
    with pytest.raises(ValueError):
        overall_status([])
    assert overall_status(["pass", "pass"]) == "pass"
    assert overall_status(["pass", "assumption"]) == "assumption"
    assert overall_status(["deviation", "indeterminate"]) == "deviation"
    assert overall_status(["pass", "fail", "deviation"]) == "fail"


def test_exit_code_scans_nested_statuses():
    assert _exit_code({"status": "pass"}) == 0
    assert _exit_code({"status": "deviation"}) == 0
    assert _exit_code({"status": "fail"}) == 1
    assert _exit_code({"cases": [{"status": "pass"}, {"status": "fail"}]}) == 1
    assert _exit_code({"cases": [{"status": "indeterminate"}]}) == 0


def test_expression_parser():
    assert _parse_expression("Q", 2) == {Bundle((), (1,), 0): 1}
    assert _parse_expression("O(-1) + O(-1)", 2) == {Bundle((), (), -1): 2}
    assert _parse_expression("wedgeQ(2,-4)", 2) == {wedge_q(2, 2, -4): 1}
    assert _parse_expression("Udual * Q", 2) == tensor(
        Bundle((1,), (), 0), Bundle((), (1,), 0), 2
    )
    grouped = _parse_expression("(Q + O(0)) * O(1)", 2)
    assert grouped == {Bundle((), (1,), 1): 1, Bundle((), (), 1): 1}
    for bad in ("Q +", "foo", "wedgeQ(2", "Q Q"):
        try:
            _parse_expression(bad, 2)
        except ValueError:
            pass
        else:
            assert False, f"{bad!r} must be rejected"


def test_bwb_command(capsys):
    code, out = run_json(capsys, ["bwb", "--n", "2", "--twist", "-5"])
    assert code == 0
    assert out["schema"] == 1
    assert out["groups"] == [{"degree": 6, "weight": [2, 2, 2, 2, 2], "dim": 1}]
    assert out["euler"] == 1
    code, out = run_json(capsys, ["bwb", "--n", "2", "--q", "1"])
    assert code == 0
    assert out["groups"] == [{"degree": 0, "weight": [1, 0, 0, 0, 0], "dim": 5}]


def test_decompose_command(capsys):
    code, out = run_json(capsys, ["decompose", "Q * Q", "--n", "2"])
    assert code == 0
    assert sorted(t["q"] for t in out["terms"]) == [[1, 1], [2]]
    assert all(t["multiplicity"] == 1 for t in out["terms"])
    assert out["cohomology"] == [{"degree": 0, "dim": 25}]


def test_koszul_restrict_statuses(capsys):
    code, out = run_json(capsys, ["koszul", "restrict", "O(0)", "--n", "2"])
    assert code == 0 and out["status"] == "pass"
    assert out["restricted"] == [
        {"degree": 0, "dim": 1},
        {"degree": 3, "dim": 1},
    ]
    code, out = run_json(capsys, ["koszul", "restrict", "O(-3)", "--n", "2"])
    assert code == 0
    assert out["status"] == "indeterminate"
    assert "differential" in out["reason"]


def test_koszul_family_dim(capsys):
    code, out = run_json(capsys, ["koszul", "family-dim", "--n", "2"])
    assert code == 0
    # the count carries the no-automorphisms hypothesis, so not "pass"
    assert out["status"] == "assumption"
    assert out["dimension"] == 51


def test_motivic_and_hodge_commands(capsys):
    code, out = run_json(capsys, ["motivic", "--n", "3"])
    assert code == 0 and out["status"] == "pass" and out["ok"]
    code, out = run_json(capsys, ["hodge", "--n", "2"])
    assert code == 0
    assert out["status"] == "deviation"
    assert out["all_vanish"] and out["parity_discrepancy"]


def test_plethysm_command(capsys):
    code, out = run_json(capsys, ["plethysm", "--lam", "1,1", "--wedge", "2"])
    assert code == 0 and out["status"] == "pass"
    assert out["expansion"]["terms"] == [{"mu": [2, 1, 1], "coeff": 1}]
    assert out["determinant"] == {"power": None, "multiplicity": 0}
    code, out = run_json(capsys, ["plethysm", "--lam", "5,5,5", "--wedge", "3"])
    assert code == 0
    assert out["status"] == "indeterminate"
    # wedge^3(wedge^2 C^3) = det^2: the power is read in the --nvars variables
    code, out = run_json(
        capsys, ["plethysm", "--lam", "1,1,1", "--wedge", "2", "--nvars", "3"]
    )
    assert code == 0
    assert out["expansion"]["terms"] == [{"mu": [2, 2, 2], "coeff": 1}]
    assert out["determinant"] == {"power": 2, "multiplicity": 1}


def test_pluecker_command_is_deterministic(capsys):
    args = ["pluecker", "--n", "2", "--trials", "5", "--seed", "1"]
    code, first = run_json(capsys, args)
    assert code == 0 and first["status"] == "assumption"
    assert first["hits"] == 0
    _, second = run_json(capsys, args)
    assert first == second


def test_pluecker_probe_at_n_four(capsys):
    # the 126 x 126 compounds of GL(9): every trial a certified non-hit
    code, out = run_json(capsys, ["pluecker", "--n", "4", "--trials", "2"])
    assert code == 0 and out["status"] == "assumption"
    assert out["ambient_size"] == 126
    assert out["hits"] == 0 and out["identity_control_hits"] == 2
    assert out["obstructed"] is True


def test_verify_suite(capsys):
    code, out = run_json(capsys, ["verify", "--n", "2", "--trials", "3"])
    assert code == 0
    assert out["status"] == "deviation"
    claims = {case["claim"] for case in out["cases"]}
    assert claims == {
        "twisted_schur_vanishing",
        "double_wedge_vanishing",
        "normal_page_vanishing",
        "deformation_page_vanishing",
        "restricted_sections",
        "l_equivalence",
        "middle_hodge_parity",
        "family_dimension",
        "symmetry_obstruction",
    }
    assert all(case["status"] != "fail" for case in out["cases"])
    by_claim = {case["claim"]: case["status"] for case in out["cases"]}
    assert by_claim["family_dimension"] == "assumption"
    assert by_claim["symmetry_obstruction"] == "assumption"
    assert by_claim["l_equivalence"] == "pass"


# claim -> the subcommand that prints it on its own
CLAIM_ARGV = {
    "l_equivalence": ["motivic"],
    "middle_hodge_parity": ["hodge"],
    "family_dimension": ["koszul", "family-dim"],
    "symmetry_obstruction": ["pluecker", "--trials", "2", "--seed", "1"],
}


def test_claim_subcommands_print_the_verify_detail(capsys):
    argv = ["verify", "--n", "2,3", "--trials", "2", "--seed", "1"]
    code, suite = run_json(capsys, argv)
    assert code == 0
    assert list(CLAIMS) == list(CLAIM_ARGV)
    vanishing = [
        "twisted_schur_vanishing",
        "double_wedge_vanishing",
        "normal_page_vanishing",
        "deformation_page_vanishing",
        "restricted_sections",
    ]
    assert [case["claim"] for case in suite["cases"]] == 2 * (vanishing + list(CLAIMS))
    cases = {(case["n"], case["claim"]): case for case in suite["cases"]}
    for n in (2, 3):
        for claim, argv in CLAIM_ARGV.items():
            code, out = run_json(capsys, argv + ["--n", str(n)])
            assert code == 0
            assert out.pop("schema") == 1 and out.pop("command") == argv[0]
            out.pop("action", None)
            case = cases[(n, claim)]
            assert out.pop("status") == case["status"], (n, claim)
            assert out == case["detail"], (n, claim)


@pytest.mark.parametrize("flags, golden", [
    (["--json"], "verify_n2_3.json"),
    ([], "verify_n2_3.txt"),
])
def test_verify_stdout_is_byte_identical_to_golden(capsys, flags, golden):
    # regenerate on purpose only, with
    #   cypairs verify --n 2,3 --trials 2 --seed 1 [--json] > tests/data/<golden>
    argv = ["verify", "--n", "2,3", "--trials", "2", "--seed", "1"] + flags
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def _readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("cypairs ")
    ]


def test_readme_command_examples_run(capsys):
    commands = _readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_parse_error_exits_two(capsys):
    assert main(["decompose", "Q +", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err


@pytest.mark.parametrize("argv", [
    ["bwb", "--n", "0"],
    ["pluecker", "--trials", "0"],
    ["pluecker", "--trials", "-1"],
    ["decompose", "Q", "--n", "0"],
    ["decompose", "Q", "--n", "-1"],
    ["verify", "--n", ","],
    ["verify", "--n", ""],
    ["pluecker", "--n", "1", "--trials", "1"],
    ["motivic", "--n", "1"],
    ["hodge", "--n", "1"],
    ["koszul", "family-dim", "--n", "1"],
    ["decompose", "(" * 400 + "Q" + ")" * 400, "--n", "2"],
])
def test_bad_input_exits_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_arithmetic_error_exits_two_with_one_line(capsys, monkeypatch):
    # an ArithmeticError outside the claims table is a stray error, not a status
    def stray(b, n):
        raise ArithmeticError("stray arithmetic error")

    monkeypatch.setattr("cypairs.cli.cohomology", stray)
    assert main(["bwb", "--n", "2", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stray arithmetic error\n"


@pytest.mark.parametrize("argv", [
    ["koszul", "family-dim", "--n", "3"],
    ["verify", "--n", "3", "--trials", "1"],
])
def test_family_dimension_arithmetic_error_is_indeterminate(capsys, monkeypatch, argv):
    reason = "restriction indeterminate; no dimension count"

    def indeterminate(n, detail=False):
        raise ArithmeticError(reason)

    monkeypatch.setattr("cypairs.cli.family_dimension", indeterminate)
    code, out = run_json(capsys, argv)
    assert code == 0
    if argv[0] == "verify":
        (out,) = [case for case in out["cases"] if case["claim"] == "family_dimension"]
        out = {"status": out["status"], **out["detail"]}
    assert out["status"] == "indeterminate"
    assert out["reason"] == reason
    assert "dimension" not in out


def test_text_rendering(capsys):
    assert main(["hodge", "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert "all_vanish: true" in captured.out
    assert "elapsed" in captured.err
