"""The shared window constructions: one window-transition builder, one
cylinder product for the exact and the float route, and pressure_of as the
only pressure evaluator."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sftgeom.realize as realize
from sftgeom.builtins import builtin
from sftgeom.gibbs import GibbsMeasure, Potential
from sftgeom.sft import (
    SIDES,
    U_SIDE,
    build_sft,
    deep_window_of,
    drop_deep,
    enumerate_cylinders,
    window_transitions,
)


@st.composite
def primitive_systems(draw):
    """0/1 matrices with a full diagonal and a cycle through every symbol,
    hence primitive, plus random further transitions."""
    k = draw(st.integers(2, 4))
    A = [[int(draw(st.booleans())) for _ in range(k)] for _ in range(k)]
    for a in range(k):
        A[a][a] = 1
        A[a][(a + 1) % k] = 1
    return build_sft(k, A)


@st.composite
def stochastic_potentials(draw):
    """A primitive system and a span-2 or span-3 potential whose rational
    weights sum to one over the extensions of every (span-1)-word, so the
    leading eigenvalue is 1 and the exact route applies."""
    sys = draw(primitive_systems())
    span = draw(st.integers(2, 3))
    weights: dict[tuple[int, ...], Fraction] = {}
    for w in enumerate_cylinders(sys, span - 1, U_SIDE):
        nxt = sys.successors(w.symbols[-1])
        counts = draw(st.lists(st.integers(1, 9), min_size=len(nxt), max_size=len(nxt)))
        for c, n in zip(nxt, counts):
            weights[w.symbols + (c,)] = Fraction(n, sum(counts))
    return sys, span, weights


def _small_perron_entry():
    """A draw whose left Perron vector has an entry 5.7% of its largest: an
    error bound of 1e-12 of the largest entry left that entry's measures
    1.05e-12 off relative."""
    A = [[1, 1, 1, 1], [0, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 1]]
    sys = build_sft(4, A)
    skewed = {(0, 0): (4, 1, 1, 1), (2, 2): (7, 1, 1), (3, 0): (1, 4, 3, 1)}
    weights = {}
    for w in enumerate_cylinders(sys, 2, U_SIDE):
        nxt = sys.successors(w.symbols[-1])
        counts = skewed.get(w.symbols, (1,) * len(nxt))
        for c, n in zip(nxt, counts):
            weights[w.symbols + (c,)] = Fraction(n, sum(counts))
    return sys, 3, weights


@settings(max_examples=25, deadline=None)
@given(stochastic_potentials())
@example(_small_perron_entry())
def test_exact_and_float_routes_agree(case):
    sys, span, weights = case
    phi = {w: math.log(x) for w, x in weights.items()}
    exact = GibbsMeasure(sys, Potential(span, phi, weights))
    flt = GibbsMeasure(sys, Potential(span, phi))
    assert exact.exact and not flt.exact
    for n in range(1, exact.block_len + 4):
        words = enumerate_cylinders(sys, n, U_SIDE)
        assert sum(exact.measure_exact(w) for w in words) == 1
        for side in SIDES:
            for w in enumerate_cylinders(sys, n, side):
                want = float(exact.measure_exact(w))
                assert exact.measure(w) == want
                assert abs(flt.measure(w) - want) <= 1e-12 * want


@settings(max_examples=25, deadline=None)
@given(primitive_systems(), st.integers(1, 3), st.sampled_from(SIDES))
def test_window_transitions(sys, length, side):
    windows, moves = window_transitions(sys, length, side)
    assert windows == [w.symbols for w in enumerate_cylinders(sys, length, side)]
    A = np.array(sys.A, dtype=np.int64)
    assert len(moves) == int(np.linalg.matrix_power(A, length).sum())
    for i, j, word in moves:
        assert sys.is_admissible(word) and len(word) == length + 1
        assert drop_deep(word, side) == windows[i]
        assert windows[j] == deep_window_of(word, length, side)


# Bisection steps whose sign the Collatz-Wielandt test certified; the other
# steps each take one full solve through pressure_of.
CERTIFIED_STEPS = {("horseshoe", "u"): 28, ("da-attractor-toy", "s"): 28}


@pytest.mark.parametrize(
    "name, side, calls",
    [("horseshoe", "u", 47), ("da-attractor-toy", "s", 47), ("golden-anosov", "u", 1)],
)
def test_dimension_report_evaluates_through_pressure_of(monkeypatch, name, side, calls):
    # Full solves and certified steps make the 44 bisection steps; with the
    # two bracket ends and the residual they are the 47 solves of a plain
    # bisection.  A side that fills its interval needs only the value at
    # delta = 1, read once.
    seen, certified = [], []
    real, sign = realize.pressure_of, realize._certified_sign

    def counted(x, delta):
        seen.append(delta)
        return real(x, delta)

    def counted_sign(T, v):
        above = sign(T, v)
        if above is not None:
            certified.append(above)
        return above

    monkeypatch.setattr(realize, "pressure_of", counted)
    monkeypatch.setattr(realize, "_certified_sign", counted_sign)
    rep = realize.dimension_report(builtin(name).side(side).realization)
    assert len(certified) == CERTIFIED_STEPS.get((name, side), 0)
    assert len(seen) + len(certified) == calls
    assert rep.iterations == max(calls - 3, 0)
