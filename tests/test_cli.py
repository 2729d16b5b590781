"""Command line wiring: parsing, JSON shape, statuses, exit codes."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cypairs.bundles import Bundle, overall_status, tensor, wedge_q
from cypairs.cli import _MAX_BUDGET, _MAX_SIZE, CLAIMS, _exit_code, _parse_expression, main
from cypairs.pluecker import symmetry_obstruction_probe


DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
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


# The hand-written tokenizer and recursive-descent parser that
# `_parse_expression` replaced, kept verbatim as the differential reference.
_TOKEN = re.compile(r"wedgeQ|Udual|Q|O|[(),*+]|-?\d+|\S")


def _reference_parse(text: str, n: int) -> dict:
    """Sums of tensor products of the atoms Q, Udual, O(t), wedgeQ(k[,t])."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(
                f"expected {expected or 'a term'} at position {pos} of {tokens}"
            )
        pos += 1
        return tok

    def int_arg():
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"expected an integer, got {tok!r}") from None

    def atom():
        tok = take()
        if tok == "Q":
            return {Bundle((), (1,), 0): 1}
        if tok == "Udual":
            return {Bundle((1,), (), 0): 1}
        if tok == "O":
            take("(")
            t = int_arg()
            take(")")
            return {Bundle((), (), t): 1}
        if tok == "wedgeQ":
            take("(")
            k = int_arg()
            t = 0
            if peek() == ",":
                take(",")
                t = int_arg()
            take(")")
            return {wedge_q(k, n, t): 1}
        if tok == "(":
            inner = expr()
            take(")")
            return inner
        raise ValueError(f"unknown atom {tok!r}")

    def term():
        acc = atom()
        while peek() == "*":
            take("*")
            acc = tensor(acc, atom(), n)
        return acc

    def expr():
        acc = dict(term())
        while peek() == "+":
            take("+")
            for b, m in term().items():
                acc[b] = acc.get(b, 0) + m
        return acc

    try:
        out = expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if pos != len(tokens):
        raise ValueError(f"trailing input {tokens[pos:]!r}")
    return out


def _random_tokens(rng, n, kinds, depth=0):
    """Tokens of a random expression: a sum of up to 3 products of up to 3
    factors, each an atom or, above depth 2, a parenthesised expression.
    Adds the kind of each factor drawn to `kinds`."""
    tokens = []
    for i in range(rng.randint(1, 3)):
        if i:
            tokens.append("+")
        for j in range(rng.randint(1, 3)):
            if j:
                tokens.append("*")
            kind = rng.choice(["Q", "Udual", "O", "wedgeQ1", "wedgeQ2", "group"])
            if kind == "group" and depth >= 2:
                kind = "Q"
            kinds.add(kind)
            if kind == "group":
                tokens += ["(", *_random_tokens(rng, n, kinds, depth + 1), ")"]
            elif kind == "O":
                tokens += ["O", "(", str(rng.randint(-6, 6)), ")"]
            elif kind.startswith("wedgeQ"):
                # k = n + 2 is out of range: both parsers must raise
                args = [str(rng.randint(0, n + 2))]
                if kind == "wedgeQ2":
                    args += [",", str(rng.randint(-6, 6))]
                tokens += ["wedgeQ", "(", *args, ")"]
            else:
                tokens.append(kind)
    return tokens


def _break(rng, tokens):
    """A copy of the tokens made invalid in both grammars."""
    tokens = list(tokens)
    ints = [i for i, tok in enumerate(tokens) if tok.lstrip("-").isdigit()]
    ops = [i for i, tok in enumerate(tokens) if tok in "+*"]
    how = rng.choice(["bool", "minus", "power", "drop", "juxtapose", "name", "close"])
    if how == "bool" and ints:
        tokens[rng.choice(ints)] = rng.choice(["True", "False"])
    elif how in ("minus", "power") and ops:
        tokens[rng.choice(ops)] = "-" if how == "minus" else "**"
    elif how == "juxtapose":
        tokens.insert(rng.randrange(len(tokens) + 1), "Q")
        tokens.insert(rng.randrange(len(tokens) + 1), "Udual")
    elif how == "name":
        tokens.append("+")
        tokens.append(rng.choice(["U", "wedge", "Qdual", "x"]))
    elif how == "close":
        tokens.append(")")
    else:
        tokens.pop()
    return tokens


def _join(rng, tokens):
    seps = ["", " ", " ", "\t", "\n", " \n\t "]
    text = rng.choice(seps)
    for tok in tokens:
        text += tok + rng.choice(seps)
    return text


def test_parser_matches_the_reference_parser():
    rng = random.Random(20261018)
    seen, outcomes = set(), {"equal": 0, "both raise": 0}
    for trial in range(480):
        n = 1 + trial % 3
        tokens = _random_tokens(rng, n, seen)
        if trial % 4 == 3:
            tokens = _break(rng, tokens)
        text = _join(rng, tokens)
        seen.update(sep for sep in ("\t", "\n") if sep in text)
        try:
            expected = _reference_parse(text, n)
        except ValueError:
            with pytest.raises(ValueError):
                _parse_expression(text, n)
            outcomes["both raise"] += 1
        else:
            got = _parse_expression(text, n)
            assert list(got.items()) == list(expected.items()), (n, text)
            outcomes["equal"] += 1
    assert seen == {"Q", "Udual", "O", "wedgeQ1", "wedgeQ2", "group", "\t", "\n"}
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("text, value", [
    ("O(- 1)", {Bundle((), (), -1): 1}),
    ("O(1_0)", {Bundle((), (), 10): 1}),
    ("O(0x1)", {Bundle((), (), 1): 1}),
    ("O(1,)", {Bundle((), (), 1): 1}),
    ("O(-(1))", {Bundle((), (), -1): 1}),
    ("\uff31", {Bundle((), (1,), 0): 1}),
    ("O(007)", None),
    ("O(\uff11)", None),
    pytest.param("+".join(["O(0)"] * 3100), None, id="3100-term-sum"),
])
def test_known_differences_from_the_reference_parser(text, value):
    # Python's grammar reads these integer spellings, the trailing call comma,
    # redundant parentheses and a fullwidth Q (identifiers are NFKC-normalised);
    # it refuses leading zeros and non-ASCII digits, and stops near 2,990 terms
    if value is None:
        _reference_parse(text, 2)
        with pytest.raises(ValueError):
            _parse_expression(text, 2)
    else:
        with pytest.raises(ValueError):
            _reference_parse(text, 2)
        assert _parse_expression(text, 2) == value


def _run_cli(*argv, **env):
    """`python -m cypairs.cli <argv>` in a fresh process, stdout and stderr
    piped, with `env` on top of this one's (a None value unsets a name)."""
    env = {k: v for k, v in {**os.environ, **env}.items() if v is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "cypairs.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize("op, multiplicity", [("+", 2900), ("*", 1)])
def test_long_chains_parse(op, multiplicity):
    # through the command line, in a fresh process
    proc = _run_cli("decompose", op.join(["O(0)"] * 2900), "--n", "2", "--json")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    (term,) = json.loads(out)["terms"]
    assert (term["twist"], term["multiplicity"]) == (0, multiplicity)


def _at_depth(depth, call):
    """call() from `depth` extra frames down the stack."""
    return call() if depth == 0 else _at_depth(depth - 1, call)


@pytest.mark.parametrize("depth", [0, 200, 800])
def test_chain_length_does_not_depend_on_the_callers_stack(depth):
    chain = "+".join(["O(0)"] * 2900)
    nested = "O(0) + (" * 190 + "O(0)" + ")" * 190
    got = _at_depth(
        depth, lambda: (_parse_expression(chain, 2), _parse_expression(nested, 2))
    )
    assert got == ({Bundle((), (), 0): 2900}, {Bundle((), (), 0): 191})


def test_bwb_command(capsys):
    code, out = run_json(capsys, ["bwb", "--n", "2", "--twist", "-5"])
    assert code == 0
    assert out["schema"] == 2
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
    # with no expression, restrict reads O(0)
    _, default = run_json(capsys, ["koszul", "restrict", "--n", "2"])
    assert default["expression"] == "O(0)" and default["restricted"] == out["restricted"]
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
    # the echoed lam is the partition expanded, trailing zeros dropped
    _, out = run_json(capsys, ["plethysm", "--lam", "2,1,0", "--wedge", "2"])
    assert out["lam"] == [2, 1]
    _, out = run_json(capsys, ["plethysm", "--lam", "0", "--wedge", "2"])
    assert out["lam"] == [] and out["expansion"]["terms"] == [{"mu": [], "coeff": 1}]


def test_plethysm_nvars_past_the_degree_costs_nothing(capsys):
    # budget: 1 second for all three; no shape of n|lam| boxes has more rows,
    # det^0 = s_() is read without building a shape of N rows, and the empty
    # lam is not compared with C(N, n), a 600,000-digit number at n = 10^6
    argv = ["plethysm", "--wedge", "2", "--nvars"]
    t0 = time.perf_counter()
    _, out = run_json(capsys, [*argv, "1000000", "--lam", "2,1"])
    _, empty = run_json(capsys, [*argv, "1000000", "--lam", ""])
    _, wide = run_json(capsys, ["plethysm", "--lam", "", "--wedge", "1000000"])
    assert time.perf_counter() - t0 < 1.0
    _, small = run_json(capsys, [*argv, "6", "--lam", "2,1"])
    assert out["expansion"]["terms"] == small["expansion"]["terms"]
    assert empty["determinant"] == {"power": 0, "multiplicity": 1}
    assert wide["expansion"]["terms"] == [{"mu": [], "coeff": 1}]
    assert wide["determinant"] == {"power": 0, "multiplicity": 1}


def test_size_table_commands_answer_quickly(capsys):
    # budget: 0.5 seconds each at the bound, in-process, and 3 seconds for
    # the 8-fold product; every Weyl dimension here has rank 401, and the
    # single superfactorial quotient took about 1 s each, about 20 s for
    # the product
    for argv, top in ((["bwb", "--q", "1"], 0.5), (["decompose", "Q"], 0.5),
                      (["koszul", "family-dim"], 0.5),
                      (["decompose", "*".join(["Q"] * 8)], 3.0)):
        n = _MAX_SIZE[argv[0]]
        t0 = time.perf_counter()
        code, out = run_json(capsys, [*argv, "--n", str(n)])
        assert time.perf_counter() - t0 < top, argv
        assert code == 0
        if argv[0] == "bwb":
            assert out["groups"][0]["dim"] == 2 * n + 1
        elif argv[0] == "decompose":
            # H^0(Q) is V, so H^0 of the k-fold product is V^(x k)
            k = len(argv[1].split("*"))
            assert out["cohomology"] == [{"degree": 0, "dim": (2 * n + 1) ** k}]
        else:
            assert out["status"] == "assumption"


def test_pluecker_command_is_deterministic(capsys):
    args = ["pluecker", "--n", "2", "--trials", "5", "--seed", "1"]
    code, first = run_json(capsys, args)
    assert code == 0 and first["status"] == "assumption"
    assert first["hits"] == 0
    _, second = run_json(capsys, args)
    assert first == second


def test_probe_default_is_the_command_default(capsys):
    # the library and the command share one default trial count
    code, out = run_json(capsys, ["pluecker", "--n", "2"])
    assert code == 0
    assert out.pop("schema") == 2 and out.pop("command") == "pluecker"
    assert out.pop("status") == "assumption"
    assert symmetry_obstruction_probe(2, seed=0) == out


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
    "symmetry_obstruction": ["pluecker"],
}


def test_claim_subcommands_print_the_verify_detail(capsys):
    assert list(CLAIMS) == list(CLAIM_ARGV)
    vanishing = [
        "twisted_schur_vanishing",
        "double_wedge_vanishing",
        "normal_page_vanishing",
        "deformation_page_vanishing",
        "restricted_sections",
    ]
    # with no flags both sides use the one default trial count and seed
    for probe_flags, trials in (([], 5), (["--trials", "2", "--seed", "1"], 2)):
        code, suite = run_json(capsys, ["verify", "--n", "2,3"] + probe_flags)
        assert code == 0
        assert [case["claim"] for case in suite["cases"]] == 2 * (vanishing + list(CLAIMS))
        cases = {(case["n"], case["claim"]): case for case in suite["cases"]}
        for n in (2, 3):
            for claim, argv in CLAIM_ARGV.items():
                flags = probe_flags if claim == "symmetry_obstruction" else []
                code, out = run_json(capsys, argv + flags + ["--n", str(n)])
                assert code == 0
                assert out.pop("schema") == 2 and out.pop("command") == argv[0]
                out.pop("action", None)
                case = cases[(n, claim)]
                assert out.pop("status") == case["status"], (n, claim, flags)
                assert out == case["detail"], (n, claim, flags)
        assert cases[(2, "symmetry_obstruction")]["detail"]["trials"] == trials


@pytest.mark.parametrize("flags, golden", [
    (["--n", "2,3", "--trials", "2", "--seed", "1", "--json"], "verify_n2_3.json"),
    (["--n", "2,3", "--trials", "2", "--seed", "1"], "verify_n2_3.txt"),
    # the n = 4 probe runs on 126 x 126 compounds
    (["--n", "4", "--json", "--seed", "0"], "verify_n4.json"),
])
def test_verify_stdout_is_byte_identical_to_golden(capsys, flags, golden):
    # regenerate on purpose only, with
    #   cypairs verify <flags> > tests/data/<golden>
    assert main(["verify"] + flags) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["decompose", "wedgeQ(2,-4) * Q", "--n", "2"], "decompose_n2.json"),
    (["decompose", "wedgeQ(2,-4) * Q", "--n", "2"], "decompose_n2.txt"),
    (["koszul", "restrict", "Udual * Q", "--n", "2"], "koszul_restrict_n2.json"),
    (["koszul", "restrict", "Udual * Q", "--n", "2"], "koszul_restrict_n2.txt"),
])
def test_expression_stdout_is_byte_identical_to_golden(capsys, argv, golden):
    # recorded from the hand-written parser; regenerate on purpose only, with
    #   cypairs <argv> [--json] > tests/data/<golden>
    assert main(argv + (["--json"] if golden.endswith(".json") else [])) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # the reader is gone before the report is written, as with `| head -1`;
    # buffered, the write fails at the flush, unbuffered, inside print
    proc = _run_cli("verify", "--n", "2", "--trials", "1", PYTHONUNBUFFERED=unbuffered)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err


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
    ["koszul", "family-dim", "Q", "--n", "3"],
    ["plethysm", "--lam", "2,1", "--wedge", "2", "--budget-degree", "-1"],
    ["decompose", "(" * 400 + "Q" + ")" * 400, "--n", "2"],
    ["decompose", "O(True)", "--n", "2"],
    ["decompose", "Q - Q", "--n", "2"],
    ["decompose", "2 * Q", "--n", "2"],
    ["decompose", "Q ** 2", "--n", "2"],
    ["decompose", "__import__('os')", "--n", "2"],
    ["decompose", "O(k=1)", "--n", "2"],
    ["decompose", "wedgeQ(1, 2, 3)", "--n", "2"],
    ["decompose", "+".join(["O(0)"] * 3100), "--n", "2"],
    ["decompose", "O(1)\n# twisted\n+ Q", "--n", "2"],
    ["verify", "--n", "2,,3"],
    ["plethysm", "--lam", "2,,1", "--wedge", "2"],
    ["plethysm", "--lam", "1", "--wedge", "2000", "--nvars", "4000", "--budget-degree", "2000"],
])
def test_bad_input_exits_two_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["pluecker", "--n", "8", "--trials", "1"],
    ["verify", "--n", "2,8"],
])
def test_probe_refuses_sizes_past_its_range(argv):
    # one n = 8 trial would run for more than ten minutes: the refusal must
    # come before the probe draws anything
    proc = _run_cli(*argv)
    try:
        out, err = proc.communicate(timeout=5)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert out == b""
    (line,) = err.decode().splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["bwb", "--q", "1"],
    ["decompose", "Q"],
    ["koszul", "restrict", "Q"],
    ["koszul", "family-dim"],
    ["motivic"],
    ["hodge"],
], ids=["bwb", "decompose", "restrict", "family-dim", "motivic", "hodge"])
def test_commands_refuse_sizes_past_their_range(capsys, argv):
    # budget: 5 seconds per refusal, in a fresh process; bwb at n = 10^6
    # used to run for minutes.  The range is stated in --help
    top = _MAX_SIZE[argv[0]]
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    assert f"..{top}" in capsys.readouterr().out
    for n in (top + 1, 10**6):
        proc = _run_cli(*argv, "--n", str(n))
        try:
            out, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert out == b""
        (line,) = err.decode().splitlines()
        assert line == f"error: {argv[0]} takes n up to {top}, not {n}"


def test_plethysm_refuses_budgets_past_its_range(capsys):
    # budget: 5 seconds per refusal, in a fresh process; --budget-degree 2000
    # used to read all p(2000) shapes of 2000 boxes.  The range is stated in
    # --help, takes its top value, and holds the bench's --budget-degree 15
    with pytest.raises(SystemExit):
        main(["plethysm", "--help"])
    assert f"0..{_MAX_BUDGET}" in capsys.readouterr().out
    assert 15 <= _MAX_BUDGET
    code, out = run_json(capsys, ["plethysm", "--lam", "2,1", "--wedge", "2",
                                  "--budget-degree", str(_MAX_BUDGET)])
    assert code == 0 and out["status"] == "pass"
    # the single row is among the costliest shapes that fill the budget
    top = _MAX_BUDGET
    proc = _run_cli("plethysm", "--lam", str(top // 2), "--wedge", "2",
                    "--nvars", str(top), "--budget-degree", str(top), "--json")
    try:
        out, err = proc.communicate(timeout=5)
    finally:
        proc.kill()
    assert proc.returncode == 0, err
    assert json.loads(out)["status"] == "pass"
    for budget in (_MAX_BUDGET + 1, 2000):
        proc = _run_cli("plethysm", "--lam", "1", "--wedge", str(budget),
                        "--nvars", str(2 * budget), "--budget-degree", str(budget))
        try:
            out, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
        assert proc.returncode == 2
        assert out == b""
        (line,) = err.decode().splitlines()
        assert line == f"error: plethysm takes --budget-degree up to {_MAX_BUDGET}, not {budget}"


@pytest.mark.parametrize("sizes", ["2,3,4,5,8", "2,1", "1,3"])
def test_verify_checks_every_size_before_any_claim(capsys, monkeypatch, sizes):
    # a bad size late in the list is refused before the first case runs
    ran = []

    def record(name):
        def claim(*args):
            ran.append(name)
            raise AssertionError(f"{name} ran")
        return claim

    monkeypatch.setattr("cypairs.cli.verify_vanishing_claims", record("vanishing"))
    for name in CLAIMS:
        monkeypatch.setitem(CLAIMS, name, record(name))
    assert main(["verify", "--n", sizes]) == 2
    captured = capsys.readouterr()
    assert ran == []
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
