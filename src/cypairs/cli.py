"""Command line front end.

Subcommands expose the individual engines (cohomology, decomposition,
restriction, motivic classes, Hodge middle, plethysm, section symmetry) and
a `verify` driver that runs the whole claims suite per n.  Output is either
a plain text rendering or, with --json, a byte-deterministic JSON document
(schema 1); wall time goes to stderr so stdout stays reproducible.

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
import json
import re
import sys
import time

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
from .partitions import trim
from .pluecker import symmetry_obstruction_probe
from .symfunc import BudgetExceeded, plethysm_wedge, schur_expansion_json

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
    return tuple(int(x) for x in text.split(",") if x.strip())


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


_TOKEN = re.compile(r"wedgeQ|Udual|Q|O|[(),*+]|-?\d+|\S")


def _parse_expression(text: str, n: int) -> dict:
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

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input {tokens[pos:]!r}")
    return out


def cmd_bwb(args) -> dict:
    b = canonicalize(Bundle(_ints(args.u), _ints(args.q), args.twist), args.n)
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


def _claim(name: str, n: int, seed: int = 0, trials: int = 5) -> dict:
    if n < 2:
        raise ValueError("the claims are stated for n >= 2")
    status, detail = CLAIMS[name](n, seed, trials)
    return {"status": status, **detail}


def cmd_koszul(args) -> dict:
    if args.action == "family-dim":
        return {"action": "family-dim", **_claim("family_dimension", args.n)}
    terms = _parse_expression(args.expression, args.n)
    out = {"action": "restrict", "n": args.n, "expression": args.expression}
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
    lam = _ints(args.lam)
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
    mult = 0 if power is None else expansion.get(trim((power,) * N), 0)
    out["status"] = "pass"
    out["expansion"] = schur_expansion_json(expansion, N)
    out["determinant"] = {"power": power, "multiplicity": mult}
    return out


def cmd_pluecker(args) -> dict:
    return _claim("symmetry_obstruction", args.n, args.seed, args.trials)


def run_suite(ns, seed: int = 0, trials: int = 5) -> dict:
    """One case per (claim, n): the vanishing claims table, then `CLAIMS`."""
    if not ns:
        raise ValueError("no sizes given; --n takes a comma list such as 2,3")
    cases = []
    for n in ns:
        for check in verify_vanishing_claims(n)["checks"]:
            detail = {k: v for k, v in check.items() if k != "name"}
            cases.append({
                "n": n,
                "claim": check["name"],
                "status": check["status"],
                "detail": detail,
            })
        for claim, grade in CLAIMS.items():
            status, detail = grade(n, seed, trials)
            cases.append({"n": n, "claim": claim, "status": status, "detail": detail})
    return {
        "n": list(ns),
        "status": overall_status(case["status"] for case in cases),
        "cases": cases,
    }


def cmd_verify(args) -> dict:
    return run_suite(_ints(args.n), seed=args.seed, trials=args.trials)


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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")

    parser = argparse.ArgumentParser(prog="cypairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bwb", parents=[common], help="cohomology of one bundle")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--u", default="", help="comma partition on the dual subbundle")
    p.add_argument("--q", default="", help="comma partition on the quotient")
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(handler=cmd_bwb)

    p = sub.add_parser("decompose", parents=[common], help="tensor decomposition")
    p.add_argument("expression", help="e.g. 'wedgeQ(2,-4) * Q + O(-1)'")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("koszul", parents=[common], help="restriction to the zero locus")
    p.add_argument("action", choices=["restrict", "family-dim"])
    p.add_argument("expression", nargs="?", default="O(0)")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(handler=cmd_koszul)

    p = sub.add_parser("motivic", parents=[common], help="L-equivalence certificate")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(handler=cmd_motivic)

    p = sub.add_parser("hodge", parents=[common], help="middle Hodge decomposition")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(handler=cmd_hodge)

    p = sub.add_parser("plethysm", parents=[common], help="Schur expansion of s_lam[e_k]")
    p.add_argument("--lam", required=True, help="comma partition")
    p.add_argument("--wedge", type=int, required=True, help="wedge order k")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--budget-degree", type=int, default=None)
    p.set_defaults(handler=cmd_plethysm)

    p = sub.add_parser("pluecker", parents=[common], help="section symmetry probe")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_pluecker)

    p = sub.add_parser("verify", parents=[common], help="run the claims suite")
    p.add_argument("--n", default="2,3", help="comma list of sizes")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        result = {"schema": 1, "command": args.command, **args.handler(args)}
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        print("\n".join(_render(result)))
    print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return _exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
