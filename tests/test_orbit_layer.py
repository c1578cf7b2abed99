"""The periodic-orbit layer: orbits generated as Lyndon words, eigenvalues
read one window ratio per factor, and the admissibility check under both.

Each is checked against the implementation it replaced, kept here as the
reference: orbits by least rotation over every admissible word, eigenvalue
factors through `ratio_of` of the full cyclic word, and admissibility by
indexing the transition matrix pair by pair.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftgeom import realize, sft
from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.errors import NotPrimitive, SftGeomError
from sftgeom.gibbs import GibbsMeasure, Potential, markov_potential, uniform_potential
from sftgeom.realize import RatioTable, TrainTrackRealization, _cyclic_window, eigenvalue
from sftgeom.sft import (
    U_SIDE,
    PeriodicOrbit,
    SftSystem,
    build_sft,
    cyl,
    enumerate_cylinders,
    periodic_orbits,
)
from test_window_table import gapped_tables

GOLDEN = build_sft(2, [[1, 1], [1, 0]])


def _least_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def _least_period(w):
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return d
    return n


def reference_orbits(sys, p_max):
    """Every admissible word of length p <= p_max that closes up and has
    least period p, kept once by its least rotation."""
    seen, out = set(), []
    for p in range(1, p_max + 1):
        for word in enumerate_cylinders(sys, p, U_SIDE):
            w = word.symbols
            if sys.A[w[-1]][w[0]] != 1 or _least_period(w) != p:
                continue
            canon = _least_rotation(w)
            if canon not in seen:
                seen.add(canon)
                out.append(PeriodicOrbit(canon, p))
    out.sort(key=lambda o: (o.period, o.representative))
    return out


def reference_eigenvalue(tt, orbit):
    """One ratio_of per factor, on the length-m word of rep^Z itself."""
    rep, p = orbit.representative, orbit.period
    anchor = 0 if tt.side == U_SIDE else -1
    base = tt.window_depth + p + 2
    prod = 1.0
    for m in range(base + 1, base + p + 1):
        prod *= tt.ratio.ratio_of(cyl(_cyclic_window(rep, anchor, m, tt.side)))
    return 1.0 / prod


def reference_is_admissible(sys, symbols):
    for s in symbols:
        if not 0 <= s < sys.k:
            return False
    return all(sys.A[symbols[i]][symbols[i + 1]] == 1 for i in range(len(symbols) - 1))


def _outcome(fn):
    try:
        return fn()
    except (SftGeomError, ValueError) as e:
        return type(e), str(e)


@st.composite
def primitive_systems(draw, k_max=5):
    """A 0/1 matrix on 1 to k_max symbols; one that is not primitive gets
    the cycle 0 -> 1 -> ... -> 0 and the loop 0 -> 0, which make it so."""
    k = draw(st.integers(1, k_max))
    A = [[int(draw(st.booleans())) for _ in range(k)] for _ in range(k)]
    try:
        return build_sft(k, A)
    except NotPrimitive:
        for a in range(k):
            A[a][(a + 1) % k] = 1
        A[0][0] = 1
        return build_sft(k, A)


# -- orbits -------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_orbits_equal_the_reference_on_builtins(name):
    sys = builtin(name).sys
    for p_max in range(13):
        assert periodic_orbits(sys, p_max) == reference_orbits(sys, p_max)


@settings(max_examples=60, deadline=None)
@given(primitive_systems(), st.integers(0, 7))
def test_orbits_equal_the_reference_on_generated_systems(sys, p_max):
    assert periodic_orbits(sys, p_max) == reference_orbits(sys, p_max)


def test_orbits_of_the_one_symbol_shift():
    sys = build_sft(1, [[1]])
    assert periodic_orbits(sys, 0) == []
    assert periodic_orbits(sys, 5) == [PeriodicOrbit((0,), 1)]


# -- eigenvalues --------------------------------------------------------


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("side", ["u", "s"])
def test_eigenvalue_equals_the_per_segment_product_on_builtins(name, side):
    b = builtin(name)
    tt = b.side(side).realization
    for orbit in periodic_orbits(b.sys, 10):
        assert eigenvalue(tt, orbit) == reference_eigenvalue(tt, orbit), orbit


@settings(max_examples=60, deadline=None)
@given(gapped_tables())
def test_eigenvalue_equals_the_per_segment_product_on_generated_tables(table):
    # a spoiled table may lack an entry: both raise the same MissingPairValue
    tt = TrainTrackRealization(
        table.sys, table.side, 0.5, 0.0, table.window_depth, table.window_depth, {}, {}, table
    )
    for orbit in periodic_orbits(table.sys, 5):
        want = _outcome(lambda: reference_eigenvalue(tt, orbit))
        assert _outcome(lambda: eigenvalue(tt, orbit)) == want, orbit


def test_eigenvalue_of_an_inadmissible_orbit_raises():
    tt = builtin("golden-anosov").u.realization
    with pytest.raises(SftGeomError, match="not admissible"):
        eigenvalue(tt, PeriodicOrbit((1,), 1))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_the_orbit_layer_reads_tables_not_words(monkeypatch, name):
    """No ratio_of or stabilized call per eigenvalue factor, and no word
    enumeration behind the orbits."""
    b = builtin(name)
    calls = []

    def counted(fname, fn):
        def wrapper(*args, **kwargs):
            calls.append(fname)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(RatioTable, "ratio_of", counted("ratio_of", RatioTable.ratio_of))
    for module in (realize, sft):
        monkeypatch.setattr(module, "stabilized", counted("stabilized", sft.stabilized))
    monkeypatch.setattr(sft, "enumerate_cylinders", counted("enumerate", sft.enumerate_cylinders))
    orbits = periodic_orbits(b.sys, 10)
    for bs in (b.u, b.s):
        for orbit in orbits:
            eigenvalue(bs.realization, orbit)
    assert len(orbits) > 30 and calls == []


# -- admissibility ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(primitive_systems(), st.data())
def test_is_admissible_matches_the_matrix_walk(sys, data):
    symbols = st.integers(-2, sys.k + 1)
    for _ in range(20):
        w = data.draw(st.lists(symbols, max_size=8))
        want = reference_is_admissible(sys, w)
        assert sys.is_admissible(w) is want
        assert sys.is_admissible(tuple(w)) is want


def test_is_admissible_on_short_and_foreign_words():
    for w in [(), (0,), (1,), (2,), (-1,), (1, 1), (0, 2), (-1, 0), (0, 1, 0)]:
        assert GOLDEN.is_admissible(w) is reference_is_admissible(GOLDEN, w), w


@pytest.mark.parametrize(
    "potential, exact",
    [
        (markov_potential(GOLDEN, [[Fraction(2, 3), Fraction(1, 3)], [1, 0]]), True),
        (uniform_potential(GOLDEN), False),
        (Potential(2, {(0, 0): 0.3, (0, 1): -0.2, (1, 0): 0.1}), False),
    ],
    ids=["markov", "uniform", "float"],
)
def test_one_admissibility_check_per_measured_word(monkeypatch, potential, exact):
    g = GibbsMeasure(GOLDEN, potential)
    assert g.exact is exact
    calls = []
    real = SftSystem.is_admissible

    def counted(self, symbols):
        calls.append(tuple(symbols))
        return real(self, symbols)

    monkeypatch.setattr(SftSystem, "is_admissible", counted)
    words = [w.symbols for n in range(1, 9) for w in enumerate_cylinders(GOLDEN, n, U_SIDE)]
    first = [g.measure(w) for w in words]
    assert [g.measure(w) for w in words] == first
    assert g.measure((1, 1)) == 0.0 and g.measure((0, 1, 1)) == 0.0
    if exact:
        assert [float(g.measure_exact(w)) for w in words] == first
        assert g.measure_exact((0, 1, 1)) == 0
    # the chain has no factor for an inadmissible move: no check at all
    assert calls == []


def test_one_admissibility_check_per_orbit(monkeypatch):
    """eigenvalue_via_measure checks rep + rep once; the measure checks
    nothing, so a fresh measure costs no more checks than a warm one."""
    b = builtin("horseshoe")
    g = GibbsMeasure(b.sys, b.potential)
    orbits = periodic_orbits(b.sys, 10)
    calls = []
    real = SftSystem.is_admissible

    def counted(self, symbols):
        calls.append(tuple(symbols))
        return real(self, symbols)

    monkeypatch.setattr(SftSystem, "is_admissible", counted)
    fresh = [realize.eigenvalue_via_measure(g, 0.5, 0.0, o, "u") for o in orbits]
    assert len(orbits) == 226 and calls == [o.representative * 2 for o in orbits]
    calls.clear()
    warm = [realize.eigenvalue_via_measure(g, 0.5, 0.0, o, "s") for o in orbits]
    assert warm == fresh and calls == [o.representative * 2 for o in orbits]
