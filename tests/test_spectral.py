"""The Perron solve: small spectral gaps, a LAPACK cross-check, the exact route."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftgeom.gibbs as gibbs
from sftgeom.errors import NonConvergentEigensolve
from sftgeom.gibbs import (
    GibbsMeasure,
    bernoulli_potential,
    markov_potential,
    perron,
    uniform_potential,
)
from sftgeom.realize import RatioTable, pressure_of
from sftgeom.sft import build_sft, cyl

FULL2 = build_sft(2, [[1, 1], [1, 1]])
# Closed-form stationary law of the chain below.
LAW = (0.75, 0.25)


def small_gap_chain(eps: float) -> GibbsMeasure:
    """The chain [[1-eps, eps], [3eps, 1-3eps]]; its gap ratio is 1 - 4 eps."""
    rows = [[1.0 - eps, eps], [3.0 * eps, 1.0 - 3.0 * eps]]
    return GibbsMeasure(FULL2, markov_potential(FULL2, rows))


def law_error(g: GibbsMeasure) -> float:
    return max(abs(g.measure((a,)) - p) for a, p in enumerate(LAW))


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 3e-4, 1e-4])
def test_small_gap_chain_meets_the_law(eps):
    assert law_error(small_gap_chain(eps)) <= 1e-12


def test_gap_too_small_to_certify_raises():
    with pytest.raises(NonConvergentEigensolve, match="error bound"):
        small_gap_chain(1e-6)


def test_borderline_gap_is_exact_or_loud():
    try:
        g = small_gap_chain(1e-5)
    except NonConvergentEigensolve:
        return
    assert law_error(g) <= 1e-12


@st.composite
def primitive_matrices(draw):
    """Nonnegative n x n matrices with a positive diagonal and a positive
    cycle through every state, hence primitive."""
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    W = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    for i in range(n):
        W[i, i] = max(W[i, i], draw(st.floats(0.1, 1.0)))
        W[i, (i + 1) % n] = max(W[i, (i + 1) % n], draw(st.floats(0.1, 1.0)))
    return W


def lapack_root(M: np.ndarray) -> float:
    return float(max(abs(np.linalg.eigvals(M))))


@settings(max_examples=60, deadline=None)
@given(primitive_matrices())
def test_perron_matches_lapack(W):
    lam, u = perron(W)
    assert abs(lam - lapack_root(W)) <= 1e-12 * lam
    assert (u > 0).all() and abs(u.sum() - 1.0) <= 1e-12
    assert float(np.max(np.abs(W @ u - lam * u))) <= 1e-12 * lam * float(u.max())
    lam_t, v = perron(W.T)
    assert abs(lam_t - lam) <= 1e-12 * lam


@settings(max_examples=30, deadline=None)
@given(primitive_matrices())
def test_pressure_matches_lapack(W):
    # A window-depth-2 table on the edge shift of W: the window matrix acts
    # on admissible pairs, and its spectral radius is that of W ** delta.
    n = W.shape[0]
    sys = build_sft(n, (W > 0).astype(int).tolist())
    ratios = {cyl((a, c)): float(W[a, c]) for a in range(n) for c in range(n) if W[a, c] > 0}
    table = RatioTable(sys, "u", 2, ratios)
    for delta in (0.0, 0.3, 1.0, 1.7):
        want = math.log(lapack_root(np.where(W > 0, W**delta, 0.0)))
        assert abs(pressure_of(table, delta) - want) <= 1e-12


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    real = gibbs._kernel_vector

    def counted(M):
        calls.append(len(M))
        return real(M)

    monkeypatch.setattr(gibbs, "_kernel_vector", counted)
    return calls


def test_irrational_root_skips_the_elimination(eliminations):
    # lambda = 2 + sqrt(6)
    g = GibbsMeasure(FULL2, markov_potential(FULL2, [[1, 2], [3, 1]]))
    assert not g.exact
    assert eliminations == []


@pytest.mark.parametrize(
    "potential",
    [
        uniform_potential(FULL2),
        markov_potential(FULL2, [[Fraction(7, 10), Fraction(3, 10)], [Fraction(2, 5), Fraction(3, 5)]]),
        bernoulli_potential(FULL2, [1, 2]),
        bernoulli_potential(FULL2, [Fraction(1, 3), Fraction(1, 6)]),
    ],
    ids=["uniform", "stochastic", "integer-rational-root", "fractional-rational-root"],
)
def test_rational_root_takes_the_exact_route(eliminations, potential):
    g = GibbsMeasure(FULL2, potential)
    assert g.exact
    assert eliminations
