"""Betti numbers and the middle-cohomology parity argument."""

import json
import time
from math import comb

import pytest

from cypairs.cli import main
from cypairs.hodge import middle_decomposition, poincare_grassmannian


def test_poincare_g25():
    betti = poincare_grassmannian(2, 5)
    assert betti == {0: 1, 2: 1, 4: 2, 6: 2, 8: 2, 10: 1, 12: 1}
    assert sum(betti.values()) == comb(5, 2)


def test_poincare_projective_space():
    assert poincare_grassmannian(1, 4) == {0: 1, 2: 1, 4: 1, 6: 1}
    with pytest.raises(ValueError):
        poincare_grassmannian(3, 2)


def test_middle_decomposition_even_n():
    rep = middle_decomposition(2)
    assert rep["ambient_dimension"] == 6
    assert rep["middle_degree"] == 3
    assert [s["degree"] for s in rep["summands"]] == [5, 7]
    assert rep["all_vanish"] and rep["isometry_forced"]


def test_middle_decomposition_odd_n():
    rep = middle_decomposition(3)
    assert [s["degree"] for s in rep["summands"]] == [10, 12, 14]
    assert [s["rank"] for s in rep["summands"]] == [
        poincare_grassmannian(3, 7).get(d, 0) for d in (10, 12, 14)
    ]
    assert not rep["all_vanish"]


def test_parity_sweep():
    for n in range(2, 8):
        rep = middle_decomposition(n)
        assert rep["all_vanish"] == (n % 2 == 0), n
        assert len(rep["summands"]) == n
        assert rep["parity_discrepancy"] is True
        assert rep["parity_matches_n"]


def test_hodge_n_250_answers(capsys):
    """hodge at n = 250 answers; [501 250] has 62,751 coefficients."""
    start = time.perf_counter()
    assert main(["hodge", "--n", "250", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["summands"]) == 250
    assert all(s["rank"] == 0 for s in rep["summands"])
    assert rep["isometry_forced"] is True
    assert sum(poincare_grassmannian(250, 501).values()) == comb(501, 250)
    assert time.perf_counter() - start < 5.0
