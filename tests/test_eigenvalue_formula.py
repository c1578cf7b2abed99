"""The Livsic-Sinai eigenvalue formula of realize.eigenvalue_via_measure:
one cylinder quotient per orbit, checked against the product of
measure-scaling ratios around the orbit on generated exact and float
potentials, and against the eigenvalue read off synthesized lengths."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cocycle import constant_pair, synthesize_ratio
from sftgeom.gibbs import GibbsMeasure, Potential, measure_scaling
from sftgeom.realize import (
    _cyclic_window,
    eigenvalue,
    eigenvalue_via_measure,
    lengths_from_ratio,
)
from sftgeom.sft import SIDES, U_SIDE, enumerate_cylinders, periodic_orbits
from test_merged_paths import stochastic_potentials
from test_window_table import _draw_gapped_system

P_MAX = 5
DELTA = 0.7


def scaling_loop(g, delta, pressure, orbit, side, periods=1):
    """The eigenvalue as a product of p * periods measure-scaling ratios,
    one per window of max(span, 2) + p symbols around the orbit: the
    reference the telescoped formula is checked against."""
    rep, p = orbit.representative, orbit.period
    L = max(g.span, 2) + p
    prod = 1.0
    for i in range(p * periods):
        w = _cyclic_window(rep, i, L, side)
        prod *= measure_scaling(g, g.sys.word(w, side))
    return prod ** (-1.0 / delta) * math.exp(-(p * periods) * pressure / delta)


def assert_formula_matches_loop(g, pressure):
    for orbit in periodic_orbits(g.sys, P_MAX):
        for side in SIDES:
            for periods in (1, 2):
                want = scaling_loop(g, DELTA, pressure, orbit, side, periods)
                got = eigenvalue_via_measure(g, DELTA, pressure, orbit, side, periods)
                assert abs(got / want - 1.0) <= 1e-13, (orbit, side, periods)


@settings(max_examples=25, deadline=None)
@given(stochastic_potentials(), st.floats(-1.0, 1.0))
def test_exact_route_matches_the_scaling_loop(case, pressure):
    sys, span, weights = case
    phi = {w: math.log(x) for w, x in weights.items()}
    g = GibbsMeasure(sys, Potential(span, phi, weights))
    assert g.exact
    assert_formula_matches_loop(g, pressure)


@st.composite
def gapped_float_measures(draw):
    """A primitive system with a gap between every two children on one side,
    that side, and a float potential of span 1 to 3 on it."""
    sys, side = _draw_gapped_system(draw, lambda key: True)
    span = draw(st.integers(1, 3))
    phi = {
        w.symbols: draw(st.floats(-1.0, 1.0)) for w in enumerate_cylinders(sys, span, U_SIDE)
    }
    return GibbsMeasure(sys, Potential(span, phi)), side


@settings(max_examples=25, deadline=None)
@given(gapped_float_measures())
def test_float_route_matches_the_scaling_loop_and_the_lengths(case):
    g, side = case
    assert not g.exact
    assert_formula_matches_loop(g, 0.0)
    # the eigenvalue read off lengths synthesized from the same measure
    synth = synthesize_ratio(g, constant_pair(side), DELTA, 0.0, g.block_len + 3)
    tt = lengths_from_ratio(synth)
    for orbit in periodic_orbits(g.sys, P_MAX):
        lam = eigenvalue_via_measure(g, DELTA, 0.0, orbit, side)
        assert abs(eigenvalue(tt, orbit) / lam - 1.0) <= 1e-12, orbit


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_two_cylinder_measures_per_eigenvalue(monkeypatch, name):
    calls = []
    real = GibbsMeasure.measure

    def counted(self, w):
        calls.append(w)
        return real(self, w)

    monkeypatch.setattr(GibbsMeasure, "measure", counted)
    b = builtin(name)
    for orbit in periodic_orbits(b.sys, 6):
        for side in SIDES:
            for periods in (1, 2, 3):
                before = len(calls)
                eigenvalue_via_measure(b.measure, 0.5, 0.1, orbit, side, periods)
                assert len(calls) - before == 2


def test_bad_side_raises():
    b = builtin("horseshoe")
    orbit = periodic_orbits(b.sys, 1)[0]
    with pytest.raises(ValueError, match="side must be one of"):
        eigenvalue_via_measure(b.measure, 0.5, 0.0, orbit, "x")
