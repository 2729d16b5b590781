"""Tests of the benchmark's own tracer and oracles.

    python3 -m pytest -q perfbench/test_trace.py

The tracer must not change what cypairs computes, and removing it must
restore every module attribute it patched.  The operations here are small
stand-ins that reach every kind of wrapped function (plain, generator,
cached, the CLI); the full workloads repeat the result comparison in every
traced benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cypairs  # noqa: E402
import cypairs.cli  # noqa: E402
import pytest  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    _cli,
    family_dimension_closed_form,
    gl_dimension,
    witness_ops,
)

SMALL_OPS = [
    _cli(["verify", "--n", "2", "--json", "--trials", "1"]),
    _cli(["plethysm", "--lam", "2,1", "--wedge", "2", "--json"]),
    lambda c: c.verify_vanishing_claims(4),
    lambda c: c.family_dimension(4, detail=True),
    lambda c: c.find_witness(2, 5, budget=30),
    lambda c: c.l_equivalence_certificate(4),
]


def _module_attributes():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "cypairs" or name.startswith("cypairs."))
        for attr, value in vars(mod).items()
    }


def test_traced_results_equal_untraced_and_uninstall_restores():
    before = _module_attributes()
    plain = [op(cypairs) for op in SMALL_OPS]
    tracer = Tracer()
    tracer.install()
    try:
        assert cypairs.cli.main is not before[("cypairs.cli", "main")]
        traced = [tracer.span(f"op{i}", lambda op=op: op(cypairs))
                  for i, op in enumerate(SMALL_OPS)]
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    summary = tracer.summary()
    assert summary["missing"] == []
    functions = summary["functions"]
    assert functions["cli.main"]["calls"] == 2
    assert functions["bundles.verify_vanishing_claims"]["calls"] == 2
    assert functions["partitions.partitions_of"]["calls"] > 0
    assert all(row["self_s"] >= 0 for row in functions.values())
    # spans nest: each parent opened before and closed after its child
    n = summary["spans"]
    assert n == len(tracer.span_end)
    for i in range(n):
        p = tracer.span_parent[i]
        if p >= 0:
            assert tracer.span_start[p] <= tracer.span_start[i] <= tracer.span_end[i]
            assert tracer.span_end[i] <= tracer.span_end[p]


def test_wrapped_names_exist():
    for mod, names in WRAPPED.items():
        module = sys.modules[f"cypairs.{mod}"]
        assert all(callable(getattr(module, name, None)) for name in names), mod


def test_oracles():
    assert [family_dimension_closed_form(n) for n in (3, 4, 8)] == [735, 8739, 212751107]
    assert gl_dimension((4, 3, 2, 1), 10) == 1812096
    assert gl_dimension((2, 1, 1, 1), 35) == 1507968
    assert gl_dimension((), 7) == 1
    assert [gl_dimension((k,), 3) for k in range(4)] == [1, 3, 6, 10]


def test_witness_check_rejects_a_wrong_answer():
    (op,) = witness_ops(0)
    assert op.check(((7, 4, 2, 1, 1), 6, 2)) is None
    assert op.check(None) is not None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
