"""The shared window constructions: one window-graph builder, one cylinder
product for the exact and the float route, and pressure_of as the only
pressure evaluator."""

from __future__ import annotations

import gc
import math
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sftgeom.cocycle as cocycle
import sftgeom.gibbs as gibbs
import sftgeom.realize as realize
import sftgeom.solenoid as solenoid
from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cocycle import constant_pair, synthesize_ratio
from sftgeom.errors import SftGeomError
from sftgeom.gibbs import GibbsMeasure, Potential, uniform_potential
from sftgeom.realize import RatioTable, WindowWalk, dimension_report, lengths_from_ratio
from sftgeom.sft import (
    SIDES,
    U_SIDE,
    build_sft,
    cyl,
    deep_extend,
    deep_window_of,
    drop_deep,
    enumerate_cylinders,
    window_graph,
)
from sftgeom.solenoid import bounded_equivalence, bounded_solenoid_class_check, from_realization
from test_window_table import _gapped_full_shift, gapped_tables


def window_transitions(sys, length, side):
    """The window-transition builder that sft.window_graph replaced, kept as
    the reference: the admissible `length`-windows on `side` in
    enumerate_cylinders order, and per one-symbol deep extension (i, j,
    word), `word` the extended window i and j the index of its deep-end
    window."""
    windows = [w.symbols for w in enumerate_cylinders(sys, length, side)]
    index = {w: i for i, w in enumerate(windows)}
    moves = []
    for i, w in enumerate(windows):
        for c in sys.deep_extensions(w, side):
            word = deep_extend(w, c, side)
            moves.append((i, index[deep_window_of(word, length, side)], word))
    return windows, moves


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
    # the top layer of the window graph one deeper is the same graph
    graph = window_graph(sys, side, length + 1)
    assert list(graph.windows[graph.top :]) == windows
    assert graph.top_moves() == moves
    # below it, every window of fewer symbols by length, each child in its own state
    assert list(graph.windows[: graph.top]) == [()] + [
        w.symbols for n in range(1, length) for w in enumerate_cylinders(sys, n, side)
    ]
    for m, kids in zip(graph.windows[: graph.top], graph.children):
        assert [(s.word, graph.windows[j]) for s, j in kids] == [
            (deep_extend(m, c, side),) * 2 for c in sys.deep_extensions(m, side)
        ]


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


# ----------------------------------------------------------------------
# the pressure solve on the top layer of the walk graph


def parent_transitions(table):
    """RatioTable._transitions before the move to the window graph: states
    the admissible window_depth-windows, one edge per one-symbol move, its
    weight the ratio of the move's word."""
    windows, moves = window_transitions(table.sys, table.window_depth, table.side)
    rows, cols, words = zip(*moves)
    return rows, cols, [table.ratio_of(cyl(w)) for w in words], len(windows)


def _value_or_error(fn):
    """fn's value, or the type of its error: a missing ratio, a negative one
    (a complex power), no root."""
    try:
        return fn()
    except (SftGeomError, TypeError) as e:
        return type(e)


PRESSURE_DELTAS = (0.3, 0.5, 0.8)


def assert_pressure_matches_the_parent_matrix(table):
    """pressure_of equals the log spectral radius of the window_depth-state
    matrix T[i][j] = ratio_of(cyl(word)) ** delta within 1e-13, on a matrix
    with one row per admissible (max(window_depth, 2) - 1)-word; and the
    dimension solve takes the same steps on both."""
    rows = len(enumerate_cylinders(table.sys, max(table.window_depth, 2) - 1, table.side))
    for delta in PRESSURE_DELTAS:

        def parent():
            _, _, ratios, n = parent_transitions(table)
            T = np.zeros((n, n))
            for i, j, word in window_transitions(table.sys, table.window_depth, table.side)[1]:
                T[i, j] = table.ratio_of(cyl(word)) ** delta
            return math.log(max(abs(np.linalg.eigvals(T))))

        want = _value_or_error(parent)
        got = _value_or_error(lambda: realize.pressure_of(table, delta))
        if isinstance(want, type):
            assert got is want
            return
        assert abs(got - want) <= 1e-13, (delta, got, want)
        assert realize._transfer(table, delta).shape == (rows, rows)
    with mock.patch.object(RatioTable, "_transitions", property(parent_transitions)):
        want = _value_or_error(lambda: dimension_report(table))
    got = _value_or_error(lambda: dimension_report(table))
    if isinstance(want, type):
        assert got is want
    else:
        assert (got.delta, got.iterations) == (want.delta, want.iterations)
        # |pressure| at the root, or at delta = 1 on a side that fills its interval
        assert abs(got.pressure_residual - want.pressure_residual) <= 1e-13


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("side", SIDES)
def test_pressure_matches_the_parent_matrix_on_builtins(name, side):
    assert_pressure_matches_the_parent_matrix(builtin(name).side(side).realization.ratio)


@settings(max_examples=30, deadline=None)
@given(gapped_tables())
def test_pressure_matches_the_parent_matrix_on_generated_tables(table):
    assert_pressure_matches_the_parent_matrix(table)


def test_no_window_graph_outlives_its_consumer(monkeypatch):
    """A measure, a synthesized table, its walk, lengths and dimension solve,
    and the bounded checks each build the window graphs they read and drop
    them with themselves: the system gains no attribute, window_graph
    caches nothing, and no graph is left once the consumers are gone."""
    sys = _gapped_full_shift(4)
    before = dict(vars(sys))
    made = []

    def recorded(*args):
        graph = window_graph(*args)
        made.append(weakref.ref(graph))
        return graph

    for module in (gibbs, realize, cocycle, solenoid):
        monkeypatch.setattr(module, "window_graph", recorded)
    g = GibbsMeasure(sys, uniform_potential(sys))
    synth = synthesize_ratio(g, constant_pair("u"), 0.5, 0.0, 6)
    walk = WindowWalk(sys, "u", synth.window_depth, synth.ratio_of)
    walk.census(6)
    tt = lengths_from_ratio(synth)
    dimension_report(synth)
    spec = from_realization(tt)
    bounded_equivalence(spec, spec, sys, 4)
    bounded_solenoid_class_check(spec, g, 0.5, 0.0, 4)
    assert len(made) >= 6
    assert vars(sys).keys() == before.keys()
    assert all(vars(sys)[key] is value for key, value in before.items())
    assert recorded(sys, "u", 3) is not recorded(sys, "u", 3)
    del g, synth, walk, tt, spec
    gc.collect()
    assert [ref for ref in made if ref() is not None] == []
