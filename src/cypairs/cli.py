"""Command line front end.

Subcommands expose the individual engines (cohomology, decomposition,
restriction, motivic classes, Hodge middle, plethysm, section symmetry) and
a `verify` driver that runs the whole claims suite per n.  Output is either
a plain text rendering or, with --json, a byte-deterministic JSON document
(schema 2); wall time goes to stderr so stdout stays reproducible.  Bundle
expressions use Python syntax limited to +, *, parentheses and the atoms Q,
Udual, O(t), wedgeQ(k[,t]) with integer arguments, and are never evaluated.

Statuses used throughout: pass, deviation (expected, recorded disagreement
with a claim as stated), indeterminate (the method cannot decide),
assumption (sampled evidence, not a proof), fail.  The exit code is nonzero
exactly when some status is fail.

Each claim is graded by one rule in `CLAIMS`: the subcommand of a claim
(motivic, hodge, koszul family-dim, pluecker) prints exactly the status and
detail that `verify` reports for it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
import time
from functools import cache

from .bundles import (
    Bundle,
    cohomology_table,
    overall_status,
    rank,
    tensor,
    verify_vanishing_claims,
    wedge_q,
)
from .bwb import canonicalize, cohomology
from .hodge import middle_decomposition
from .koszul import family_dimension, restricted_cohomology
from .motivic import l_equivalence_certificate
from .partitions import check_partition
from .pluecker import _DEFAULT_TRIALS, _MAX_N, symmetry_obstruction_probe
from .symfunc import BudgetExceeded, plethysm_wedge, schur_expansion_json

_ATOMS = {"Q": Bundle((), (1,), 0), "Udual": Bundle((1,), (), 0)}


def _exit_code(result) -> int:
    if isinstance(result, dict):
        return int(any(
            k == "status" and v == "fail" or _exit_code(v)
            for k, v in result.items()
        ))
    if isinstance(result, list):
        return int(any(_exit_code(v) for v in result))
    return 0


def _ints(text: str) -> tuple:
    """A comma list of integers, blank text being the empty list.  It raises
    ArgumentTypeError, whose message argparse keeps (a ValueError's it drops)."""
    try:
        return tuple(int(x) for x in text.split(",")) if text.strip() else ()
    except ValueError:  # a blank field or junk
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from None


def _sizes(text: str) -> tuple:
    """The sizes of `verify --n`: at least one, each given once."""
    sizes = _ints(text)
    if not sizes or len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"not a comma list of distinct sizes: {text!r}")
    return sizes


def _bundle_json(b: Bundle, mult: int, n: int) -> dict:
    return {
        "u": list(b.u),
        "q": list(b.q),
        "twist": b.t,
        "multiplicity": mult,
        "rank": rank(b, n),
    }


def _table_json(table: dict) -> list:
    return [{"degree": p, "dim": d} for p, d in sorted(table.items())]


def _int(node) -> int:
    neg = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    value = node.operand if neg else node
    if isinstance(value, ast.Constant) and type(value.value) is int:
        return -value.value if neg else value.value
    raise ValueError(f"expected an integer, got {ast.unparse(node)!r}")


def _walk(node, n: int) -> dict:
    steps = []  # the left spine of a +/* chain, folded in a loop: no recursion
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
        steps.append((node.op, node.right))
        node = node.left
    match node:
        case ast.Name(name) if name in _ATOMS:
            acc = {_ATOMS[name]: 1}
        case ast.Call(ast.Name("O"), [t], []):
            acc = {Bundle((), (), _int(t)): 1}
        case ast.Call(ast.Name("wedgeQ"), [k, *t], []) if len(t) < 2:
            acc = {wedge_q(_int(k), n, *map(_int, t)): 1}
        case _:
            raise ValueError(f"unknown term {ast.unparse(node)!r}")
    for op, right in reversed(steps):
        term = _walk(right, n)
        if isinstance(op, ast.Mult):
            acc = tensor(acc, term, n)
        else:
            acc.update({b: acc.get(b, 0) + m for b, m in term.items()})
    return acc


def _on_fresh_stack(call):
    """call() on a thread of its own, which starts with no frames.  Python's
    parser and `_walk` count the frames already in use against the recursion
    limit, so how long or deep an expression may be would otherwise depend
    on how deep the caller is."""
    out = {}

    def run():
        try:
            out["value"] = call()
        except BaseException as exc:  # raised again on the caller's thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def _parse_expression(text: str, n: int) -> dict:
    """{Bundle: multiplicity} of a bundle expression, parsed but never evaluated."""
    if "#" in text:  # read as one line, a comment would hide the rest of it
        raise ValueError("bad expression: '#' is not allowed")
    # one line, so newlines and leading blanks read as plain spaces
    source = " ".join(text.split())
    try:
        return _on_fresh_stack(lambda: _walk(ast.parse(source, mode="eval").body, n))
    except SyntaxError as exc:
        raise ValueError(f"bad expression: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def cmd_bwb(args) -> dict:
    b = canonicalize(Bundle(args.u, args.q, args.twist), args.n)
    group = cohomology(b, args.n)
    groups = [] if group is None else [
        {"degree": group.degree, "weight": list(group.weight), "dim": group.dim}
    ]
    return {
        "n": args.n,
        "bundle": _bundle_json(b, 1, args.n),
        "groups": groups,
        "euler": sum((-1) ** g["degree"] * g["dim"] for g in groups),
    }


def cmd_decompose(args) -> dict:
    terms = _parse_expression(args.expression, args.n)
    order = sorted(terms, key=lambda b: (b.t, b.u, b.q))
    return {
        "n": args.n,
        "expression": args.expression,
        "terms": [_bundle_json(b, terms[b], args.n) for b in order],
        "cohomology": _table_json(cohomology_table(terms, args.n)),
    }


def _l_equivalence(n, seed, trials):
    cert = l_equivalence_certificate(n)
    return ("pass" if cert["ok"] else "fail"), cert


def _middle_hodge_parity(n, seed, trials):
    dec = middle_decomposition(n)
    return ("deviation" if dec["parity_matches_n"] else "fail"), dec


def _family_dimension(n, seed, trials):
    try:
        detail = family_dimension(n, detail=True)
    except ArithmeticError as exc:
        return "indeterminate", {"reason": str(exc)}
    note = "assumes the cut has no infinitesimal automorphisms of its own"
    return "assumption", {**detail, "note": note}


def _symmetry_obstruction(n, seed, trials):
    probe = symmetry_obstruction_probe(n, trials=trials, seed=seed)
    return ("assumption" if probe["obstructed"] else "fail"), probe


# claim -> grade(n, seed, trials) -> (status, detail), in `verify` order;
# seed and trials only reach the sampled probe
CLAIMS = {
    "l_equivalence": _l_equivalence,
    "middle_hodge_parity": _middle_hodge_parity,
    "family_dimension": _family_dimension,
    "symmetry_obstruction": _symmetry_obstruction,
}


def _claim(name: str, n: int, seed: int = 0, trials: int = _DEFAULT_TRIALS) -> dict:
    status, detail = CLAIMS[name](n, seed, trials)
    return {"status": status, **detail}


def cmd_koszul(args) -> dict:
    if args.action == "family-dim":
        if args.expression is not None:
            raise ValueError("family-dim takes no expression")
        return {"action": "family-dim", **_claim("family_dimension", args.n)}
    expression = "O(0)" if args.expression is None else args.expression
    terms = _parse_expression(expression, args.n)
    out = {"action": "restrict", "n": args.n, "expression": expression}
    restricted = restricted_cohomology(terms, args.n)
    if not restricted.determinate:
        out["status"] = "indeterminate"
        out["reason"] = restricted.reason
    else:
        out["status"] = "pass"
        out["restricted"] = _table_json(restricted.table)
    return out


def cmd_motivic(args) -> dict:
    return _claim("l_equivalence", args.n)


def cmd_hodge(args) -> dict:
    return _claim("middle_hodge_parity", args.n)


def cmd_plethysm(args) -> dict:
    lam = check_partition(args.lam)
    N = 2 * args.wedge + 1 if args.nvars is None else args.nvars
    out = {"lam": list(lam), "wedge": args.wedge}
    try:
        expansion = plethysm_wedge(lam, args.wedge, N=N, budget=args.budget_degree)
    except BudgetExceeded as exc:
        out["status"] = "indeterminate"
        out["reason"] = str(exc)
        return out
    # det^k = s_(k^N) sits in degree n*|lam| = kN
    degree = args.wedge * sum(lam)
    power = None if degree % N else degree // N
    mult = 0 if power is None else expansion.get((power,) * N if power else (), 0)
    out["status"] = "pass"
    out["expansion"] = schur_expansion_json(expansion, N)
    out["determinant"] = {"power": power, "multiplicity": mult}
    return out


def cmd_pluecker(args) -> dict:
    return _claim("symmetry_obstruction", args.n, args.seed, args.trials)


def run_suite(ns, seed: int = 0, trials: int = _DEFAULT_TRIALS) -> dict:
    """One case per (claim, n): the vanishing claims table, then `CLAIMS`."""
    cases = []
    for n in ns:
        for check in verify_vanishing_claims(n)["checks"]:
            cases.append({"n": n, "claim": check["name"], "status": check["status"],
                          "detail": {k: v for k, v in check.items() if k != "name"}})
        for claim, grade in CLAIMS.items():
            status, detail = grade(n, seed, trials)
            cases.append({"n": n, "claim": claim, "status": status, "detail": detail})
    return {
        "n": list(ns),
        "status": overall_status(case["status"] for case in cases),
        "cases": cases,
    }


def cmd_verify(args) -> dict:
    return run_suite(args.n, seed=args.seed, trials=args.trials)


def _render(obj, indent=0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
    else:
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    return lines


# command -> (help, {argument: add_argument keywords}).  The handler is cmd_<command>,
# looked up when called, so a wrapper set on this module runs in its place.  An optional
# range (low, high), high being None for no cap or {n: cap} for one cap per size, is
# stated in --help and checked before any handler runs.  The tops are measured (see the
# README): each --n top answers within 2 s in a fresh process, as does --budget-degree's
# on its costliest shapes, and `verify --n n` at its --trials cap ends in about a minute
_SIZE = dict(type=int, default=2, help="size")
_TRIALS = dict(type=int, default=_DEFAULT_TRIALS, help="sampled matrices",
               range=(1, {2: 500_000, 3: 75_000, 4: 6_000, 5: 350, 6: 25}))
_SEED = dict(type=int, default=0)
COMMANDS = {
    "bwb": ("cohomology of one bundle", {
        "--n": dict(**_SIZE, range=(1, 200)),
        "--u": dict(type=_ints, default="", help="comma partition on the dual subbundle"),
        "--q": dict(type=_ints, default="", help="comma partition on the quotient"),
        "--twist": dict(type=int, default=0),
    }),
    "decompose": ("tensor decomposition", {
        "expression": dict(help="e.g. 'wedgeQ(2,-4) * Q + O(-1)'"),
        "--n": dict(**_SIZE, range=(1, 200)),
    }),
    "koszul": ("restriction to the zero locus", {
        "action": dict(choices=["restrict", "family-dim"], help="family-dim takes n from 2"),
        "expression": dict(nargs="?", help="restrict only; default O(0)"),
        "--n": dict(**_SIZE, range=(1, 150)),
    }),
    "motivic": ("L-equivalence certificate", {"--n": dict(**_SIZE, range=(2, 150))}),
    "hodge": ("middle Hodge decomposition", {"--n": dict(**_SIZE, range=(2, 250))}),
    "plethysm": ("Schur expansion of s_lam[e_k]", {
        "--lam": dict(type=_ints, required=True, help="comma partition"),
        "--wedge": dict(type=int, required=True, help="wedge order k", range=(1, None)),
        "--nvars": dict(type=int),
        "--budget-degree": dict(type=int, help="cap on k*|lam|", range=(0, 34)),
    }),
    "pluecker": ("section symmetry probe", {"--n": dict(**_SIZE, range=(2, _MAX_N)),
                                            "--trials": _TRIALS, "--seed": _SEED}),
    "verify": ("run the claims suite", {
        "--n": dict(type=_sizes, default="2,3", help="comma list of distinct sizes",
                    range=(2, _MAX_N)),
        "--trials": _TRIALS, "--seed": _SEED,
    }),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` prints it as its one error line, no usage
        raise ValueError(message)


def _spans(low, high, sizes) -> list:
    """[(cap, span)] of a range as --help states it, one per size if capped per size."""
    if not isinstance(high, dict):
        return [(high, f"from {low}" if high is None else f"{low}..{high}")]
    return [(high[n], f"{low}..{high[n]} at n = {n}") for n in sizes]


@cache  # parse_args keeps no state between calls, so one parser serves them all
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cypairs")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--json", action="store_true", help="machine output")
        for name, keywords in arguments.items():
            keywords = dict(keywords)
            if "range" in keywords:
                low, high = keywords.pop("range")
                keywords["help"] += ", " + ", ".join(s for _, s in _spans(low, high, high))
            p.add_argument(name, **keywords)
    return parser


def _check_ranges(args) -> None:
    """Refuse each value outside the range its --help states, in one line naming
    that range; --n comes first, so caps per size are read only for valid sizes."""
    n = getattr(args, "n", None)
    sizes = n if isinstance(n, tuple) else [n]
    for name, keywords in COMMANDS[args.command][1].items():
        value = getattr(args, name.lstrip("-").replace("-", "_"))
        if "range" not in keywords or value is None:
            continue
        low, high = keywords["range"]
        for v in value if isinstance(value, tuple) else [value]:
            for top, span in _spans(low, high, sizes):
                if v < low or top is not None and v > top:
                    raise ValueError(f"{args.command} takes {name} {span}, not {v}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_ranges(args)  # every refusal comes before any work
        start = time.perf_counter()
        result = {"schema": 2, "command": args.command,
                  **globals()[f"cmd_{args.command}"](args)}
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(result, sort_keys=True, indent=2) if args.json
              else "\n".join(_render(result)), flush=True)
    except BrokenPipeError:
        # the reader is gone: aim the exit-time flush at devnull, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return _exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
