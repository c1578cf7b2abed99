"""The Collatz-Wielandt sign test of the dimension bisection: a step whose
sign a positive vector certifies takes the branch that perron's lambda
would take, so dimension_report equals the plain bisection, with a full
Perron solve at every step, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cocycle import constant_pair, synthesize_ratio
from sftgeom.errors import InadmissiblePair, NonConvergentEigensolve, NoRoot, SftGeomError
from sftgeom.gibbs import EPS, PERRON_REL_TOL, perron
from sftgeom.realize import (
    CW_MARGIN,
    DIM_DELTA_FLOOR,
    DIM_DELTA_TOL,
    DIM_MAX_STEPS,
    DimensionReport,
    RatioTable,
    _certified_sign,
    dimension_report,
    pressure_of,
)
from sftgeom.sft import SIDES
from test_eigenvalue_formula import gapped_float_measures
from test_window_table import _draw_gapped_system, _draw_window_ratios


def bisection_oracle(x) -> DimensionReport:
    """The dimension equation solved with a full Perron solve at every
    bisection step: the reference dimension_report must equal."""
    hi = 1.0
    full = pressure_of(x, hi)
    if full >= 0.0:
        return DimensionReport(1.0, abs(full), 0)
    lo = DIM_DELTA_FLOOR
    if pressure_of(x, lo) <= 0.0:
        raise NoRoot(f"pressure is negative down to delta = {lo}")
    steps = 0
    for _ in range(DIM_MAX_STEPS):
        steps += 1
        mid = 0.5 * (lo + hi)
        if pressure_of(x, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < DIM_DELTA_TOL:
            break
    delta = 0.5 * (lo + hi)
    return DimensionReport(delta, abs(pressure_of(x, delta)), steps)


def outcome(solve, x):
    """A report, or the type and message of the package error raised."""
    try:
        return solve(x)
    except SftGeomError as e:
        return type(e), str(e)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dimension_report_equals_the_oracle_on_the_builtins(name, side):
    x = builtin(name).side(side).realization
    assert outcome(dimension_report, x) == outcome(bisection_oracle, x)


@st.composite
def gapped_sources(draw):
    """A table synthesized on the gapped side of a float measure at an
    exponent in [0.2, 0.95], or random positive ratios at window depth 1
    to 3 on a layout with some gaps."""
    if draw(st.booleans()):
        g, side = draw(gapped_float_measures())
        delta = draw(st.floats(0.2, 0.95))
        try:
            return synthesize_ratio(g, constant_pair(side), delta, 0.0, g.block_len + 1)
        except InadmissiblePair:
            assume(False)
    sys, side = _draw_gapped_system(draw, lambda key: draw(st.booleans()))
    wd = draw(st.integers(1, 3))
    return RatioTable(sys, side, wd, _draw_window_ratios(draw, sys, side, wd))


@settings(max_examples=60, deadline=None)
@given(gapped_sources())
def test_dimension_report_equals_the_oracle_on_gapped_draws(table):
    want = outcome(bisection_oracle, table)
    # a step whose sign is certified needs no Perron solve that could raise
    assume(not (isinstance(want, tuple) and want[0] is NonConvergentEigensolve))
    assert outcome(dimension_report, table) == want


@st.composite
def near_unit_matrices(draw):
    """A primitive matrix of order 2 to 45 with entries e^-10 to e^10,
    scaled so that perron's lambda is 1 + g, 1e-12 <= |g| <= 1e-2, and a
    positive vector: uniform, the Perron vector, or that vector perturbed
    by a relative 1e-13 to 1e-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 45))
    mask = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    i = np.arange(n)
    mask[i, i] = mask[i, (i + 1) % n] = True
    T = np.where(mask, np.exp(rng.uniform(-10.0, 10.0, (n, n))), 0.0)
    try:
        lam, u = perron(T)
    except NonConvergentEigensolve:
        assume(False)
    T *= (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0))) / lam
    kind = draw(st.sampled_from(["uniform", "perron", "perturbed"]))
    if kind == "uniform":
        return T, np.full(n, 1.0 / n)
    if kind == "perron":
        return T, u.copy()
    return T, u * np.exp(rng.normal(0.0, 10.0 ** draw(st.floats(-13.0, -3.0)), n))


@settings(max_examples=300, deadline=None)
@given(near_unit_matrices())
def test_a_certified_sign_is_the_sign_of_perrons_lambda(case):
    T, v = case
    # the margin exceeds the rounding of the quotients and lambda's error
    assert CW_MARGIN > (len(T) + 2) * EPS + PERRON_REL_TOL
    above = _certified_sign(T, v)
    try:
        lam, _ = perron(T)
    except NonConvergentEigensolve:
        assume(False)
    if above is not None:
        assert above == (math.log(lam) > 0.0)
        # the quotients bracket rho, and lambda is within 1e-12 of it
        assert abs(lam - 1.0) > 0.5 * CW_MARGIN


def test_a_vector_with_a_zero_or_negative_entry_is_refused():
    T = np.full((3, 3), 2.0)  # rho = 6
    assert _certified_sign(T, np.full(3, 1.0 / 3.0)) is True
    assert _certified_sign(T / 12.0, np.full(3, 1.0 / 3.0)) is False
    for v in ([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.6, 0.6, -0.2]):
        assert _certified_sign(T, np.array(v)) is None, v
    # a zero row gives a zero quotient
    T[2] = 0.0
    assert _certified_sign(T / 12.0, np.full(3, 1.0 / 3.0)) is None
