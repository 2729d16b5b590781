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

# the largest n each command takes, within 2 s in a fresh process (see the README)
_MAX_SIZE = {"bwb": 200, "decompose": 200, "koszul": 150, "motivic": 150, "hodge": 250}
# the largest --budget-degree D plethysm takes, timed on its costliest shapes
# at --nvars D: 1.4-2.0 s at D = 34 and 2.5-3.3 s at 36 (see the README)
_MAX_BUDGET = 34
# the most --trials pluecker and verify take at each n: `verify --n n` at its
# bound ends in about a minute in a fresh process (see the README)
_MAX_TRIALS = {2: 500_000, 3: 75_000, 4: 6_000, 5: 350, 6: 25}


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
    """A comma list of integers; blank text is the empty list, and a blank
    field is an error."""
    fields = text.split(",") if text.strip() else []
    if not all(x.strip() for x in fields):
        raise ValueError(f"empty field in the comma list {text!r}")
    return tuple(int(x) for x in fields)


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
    if n < 1:
        raise ValueError("n must be >= 1")
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


def _check_trials(ns, trials: int) -> None:
    """Refuse, before any work, a trial count past the bound of some n."""
    for n in ns:  # an n out of range is refused by the range checks
        if n in _MAX_TRIALS and trials > _MAX_TRIALS[n]:
            raise ValueError(f"n = {n} takes --trials up to {_MAX_TRIALS[n]}, not {trials}")


def _claim(name: str, n: int, seed: int = 0, trials: int = _DEFAULT_TRIALS) -> dict:
    if n < 2:
        raise ValueError("the claims are stated for n >= 2")
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
    budget = args.budget_degree
    if (budget or 0) > _MAX_BUDGET:  # refused before any work
        raise ValueError(f"plethysm takes --budget-degree up to {_MAX_BUDGET}, not {budget}")
    lam = check_partition(_ints(args.lam))
    N = 2 * args.wedge + 1 if args.nvars is None else args.nvars
    out = {"lam": list(lam), "wedge": args.wedge}
    try:
        expansion = plethysm_wedge(lam, args.wedge, N=N, budget=budget)
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
    _check_trials([args.n], args.trials)
    return _claim("symmetry_obstruction", args.n, args.seed, args.trials)


def run_suite(ns, seed: int = 0, trials: int = _DEFAULT_TRIALS) -> dict:
    """One case per (claim, n): the vanishing claims table, then `CLAIMS`."""
    if not ns:
        raise ValueError("no sizes given; --n takes a comma list such as 2,3")
    # a bad size late in the list must not cost the work before it
    if not all(2 <= n <= _MAX_N for n in ns):
        raise ValueError(f"verify takes n in 2..{_MAX_N}, not {list(ns)}")
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
    ns = _ints(args.n)
    _check_trials(ns, args.trials)
    return run_suite(ns, seed=args.seed, trials=args.trials)


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


@cache  # parse_args keeps no state between calls, so one parser serves them all
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine output")

    parser = argparse.ArgumentParser(prog="cypairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bwb", parents=[common], help="cohomology of one bundle")
    p.add_argument("--n", type=int, default=2, help=f"size, 1..{_MAX_SIZE['bwb']}")
    p.add_argument("--u", default="", help="comma partition on the dual subbundle")
    p.add_argument("--q", default="", help="comma partition on the quotient")
    p.add_argument("--twist", type=int, default=0)
    p.set_defaults(handler=cmd_bwb)

    p = sub.add_parser("decompose", parents=[common], help="tensor decomposition")
    p.add_argument("expression", help="e.g. 'wedgeQ(2,-4) * Q + O(-1)'")
    p.add_argument("--n", type=int, default=2, help=f"size, 1..{_MAX_SIZE['decompose']}")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("koszul", parents=[common], help="restriction to the zero locus")
    p.add_argument("action", choices=["restrict", "family-dim"])
    p.add_argument("expression", nargs="?", default=None, help="restrict only; default O(0)")
    p.add_argument("--n", type=int, default=2,
                   help=f"size, 1..{_MAX_SIZE['koszul']} (family-dim from 2)")
    p.set_defaults(handler=cmd_koszul)

    p = sub.add_parser("motivic", parents=[common], help="L-equivalence certificate")
    p.add_argument("--n", type=int, default=2, help=f"size, 2..{_MAX_SIZE['motivic']}")
    p.set_defaults(handler=cmd_motivic)

    p = sub.add_parser("hodge", parents=[common], help="middle Hodge decomposition")
    p.add_argument("--n", type=int, default=2, help=f"size, 2..{_MAX_SIZE['hodge']}")
    p.set_defaults(handler=cmd_hodge)

    p = sub.add_parser("plethysm", parents=[common], help="Schur expansion of s_lam[e_k]")
    p.add_argument("--lam", required=True, help="comma partition")
    p.add_argument("--wedge", type=int, required=True, help="wedge order k")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--budget-degree", type=int, help=f"cap on k*|lam|, 0..{_MAX_BUDGET}")
    p.set_defaults(handler=cmd_plethysm)

    trials_help = "sampled matrices, 1 up to " + ", ".join(
        f"{top} at n = {n}" for n, top in _MAX_TRIALS.items()
    )
    p = sub.add_parser("pluecker", parents=[common], help="section symmetry probe")
    p.add_argument("--n", type=int, default=2, help=f"size, 2..{_MAX_N}")
    p.add_argument("--trials", type=int, default=_DEFAULT_TRIALS, help=trials_help)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_pluecker)

    p = sub.add_parser("verify", parents=[common], help="run the claims suite")
    p.add_argument("--n", default="2,3", help=f"comma list of sizes in 2..{_MAX_N}")
    p.add_argument("--trials", type=int, default=_DEFAULT_TRIALS, help=trials_help)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        top = _MAX_SIZE.get(args.command)
        if top is not None and args.n > top:  # refused before any work
            raise ValueError(f"{args.command} takes n up to {top}, not {args.n}")
        result = {"schema": 2, "command": args.command, **args.handler(args)}
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
