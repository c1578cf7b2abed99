"""The word-end convention read through `sft`: an operation at the pivot
end of a word on one side is the same operation at the deep end on the
opposite side.  The routines that join or extend words at their pivot
(extended_scaling, dual_measure_ratio, the cocycle-gap transport, the
class check and sft.mother) are checked value for value (==) against the
per-side branches they replaced, kept below as references, on every
builtin and on generated systems."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cocycle import cocycle_gap_rows, constant_pair, synthesize_ratio
from sftgeom.errors import NoCommonLeaf
from sftgeom.gibbs import (
    AdmissiblePair,
    GibbsMeasure,
    Potential,
    dual_measure_ratio,
    extended_scaling,
    uniform_potential,
)
from sftgeom.sft import (
    SIDES,
    U_SIDE,
    BoundaryData,
    CocycleGapOrbit,
    Seg,
    Word,
    build_sft,
    cyl,
    drop_deep,
    enumerate_cylinders,
    mother,
    opposite,
)
from sftgeom.solenoid import (
    ConditionRow,
    _size_levels,
    _size_source,
    _Source,
    bounded_solenoid_class_check,
    from_gibbs,
)
from test_window_table import _draw_gapped_system

DELTA = 0.7
WORD_DEPTH = 4  # cylinder words of length 1..WORD_DEPTH
LEAF_DEPTH = 3  # leaf words of length 1..LEAF_DEPTH
M_DUAL_MAX = 3


# -- references: the per-side branches the sft helpers replaced ---------------


def ref_append_conditional(g, prefix, sym):
    window = prefix[-g.block_len :] if len(prefix) > g.block_len else prefix
    return g.measure(window + (sym,)) / g.measure(window)


def ref_prepend_conditional(g, sym, suffix):
    window = suffix[: g.block_len] if len(suffix) > g.block_len else suffix
    return g.measure((sym,) + window) / g.measure(window)


def ref_extended_scaling(g, pair):
    c = pair.c.symbols
    if len(c) == 1:
        return 1.0
    out = 1.0
    if pair.c.side == U_SIDE:
        prefix = pair.xi.symbols
        for sym in c[1:]:
            out *= ref_append_conditional(g, prefix, sym)
            prefix = prefix + (sym,)
    else:
        suffix = pair.xi.symbols
        for sym in reversed(c[:-1]):
            out *= ref_prepend_conditional(g, sym, suffix)
            suffix = (sym,) + suffix
    return out


def ref_dual_measure_ratio(g, i, k, side, m_dual):
    sys = g.sys
    if m_dual == 0:
        ws = [()]
    elif side == "s":
        starts = sorted(set(sys.successors(i.pivot)) & set(sys.successors(k.pivot)))
        ws = [(a,) for a in starts]
        for _ in range(m_dual - 1):
            ws = [w + (c,) for w in ws for c in sys.successors(w[-1])]
    else:
        ends = sorted(set(sys.predecessors(i.pivot)) & set(sys.predecessors(k.pivot)))
        ws = [(a,) for a in ends]
        for _ in range(m_dual - 1):
            ws = [(c,) + w for w in ws for c in sys.predecessors(w[0])]
    if not ws:
        raise NoCommonLeaf("the pivots admit no common continuation")
    if side == "s":
        num = sum(g.measure(i.symbols + w) for w in ws)
        den = sum(g.measure(k.symbols + w) for w in ws)
    else:
        num = sum(g.measure(w + i.symbols) for w in ws)
        den = sum(g.measure(w + k.symbols) for w in ws)
    return num / den


def ref_pivot_symbol(syms, side):
    return syms[0] if side == U_SIDE else syms[-1]


def ref_with_pivot(syms, symbol, side):
    if side == U_SIDE:
        return (symbol,) + syms[1:]
    return syms[:-1] + (symbol,)


def ref_mother(w, i):
    if i == 0:
        return w
    if w.side == U_SIDE:
        return Word(w.symbols[:-i], w.side)
    return Word(w.symbols[i:], w.side)


def ref_class_check(spec, g, delta, pressure, n_max):
    side = spec.side
    cond = (
        (lambda m, c: ref_append_conditional(g, m, c.word[-1]))
        if side == U_SIDE
        else (lambda m, c: ref_prepend_conditional(g, c.word[0], m))
    )
    sources = [_size_source(spec, g.sys), _Source(g.sys, side, g.block_len + 1, cond)]
    worst = 0.0
    for n, level in enumerate(_size_levels(sources, n_max), start=2):
        for s, rho in level:
            val = delta * math.log(s) - math.log(rho) - (n - 1) * pressure
            worst = max(worst, abs(val))
    return worst


def ref_cocycle_gap_rows(g, pair, delta, pressure, depth, data):
    sys, side = g.sys, pair.side
    orbits = [o for o in data.cocyclegap_orbits if o.side == side]
    out = []
    if not orbits:
        return out
    synth = synthesize_ratio(g, pair, delta, pressure, depth)
    layout = sys.layout(side)
    inv = 1.0 / delta
    deflate = math.exp(-pressure / delta)
    word_str = lambda syms: ",".join(str(s) for s in syms)
    for inst in orbits:
        steps, gap_rows = [], []
        for n in range(1, depth + 1):
            for w in enumerate_cylinders(sys, n, side):
                syms = w.symbols
                if ref_pivot_symbol(syms, side) != inst.m2_pivot:
                    continue
                rel = ref_with_pivot(syms, inst.m1_pivot, side)
                if not sys.is_admissible(rel):
                    continue
                if n >= 2:
                    rho = g.measure(syms) / g.measure(drop_deep(syms, side))
                    induced = synth.ratio_of(cyl(rel)) * rho ** (-inv) * deflate
                    stored = pair.cocycle.factor(syms)
                    steps.append((f"step:({word_str(syms)})", stored, induced))
                if n == depth:
                    continue
                gaps = [s for s in layout.ordered_children(syms) if s.is_gap]
                if len(gaps) < 2 or layout.gap_count(rel) < len(gaps):
                    continue
                first = gaps[0]
                rel_first = synth.ratio_of(Seg("gap", rel, first.ordinal))
                for seg in gaps[1:]:
                    induced = synth.ratio_of(Seg("gap", rel, seg.ordinal)) / rel_first
                    stored = pair.gap_ratios.ratio(seg, first)
                    gap_rows.append((f"gap:({word_str(syms)})#{seg.ordinal}", stored, induced))
        for base in range(len(inst.orbit)):
            tag = f"{inst.ident}/x{base}"
            out.extend(
                ConditionRow(f"{tag}:{label}", stored, induced, abs(stored - induced))
                for label, stored, induced in steps + gap_rows
            )
    return out


# -- the comparison ------------------------------------------------------------


def _outcome(fn, *args):
    """fn(*args), or the type of the library error it raised."""
    try:
        return fn(*args)
    except NoCommonLeaf as e:
        return type(e)


def _words(sys, side, depth):
    return [w for n in range(1, depth + 1) for w in enumerate_cylinders(sys, n, side)]


def assert_word_ends_match(g, side):
    """extended_scaling, dual_measure_ratio and mother on one side."""
    sys = g.sys
    cylinders = _words(sys, side, WORD_DEPTH)
    leaves = _words(sys, opposite(side), LEAF_DEPTH)
    for c in cylinders:
        for i in range(len(c)):
            assert mother(c, i) == ref_mother(c, i), (c, i)
        for xi in leaves:
            if xi.pivot == c.pivot:
                pair = AdmissiblePair(xi, c)
                assert extended_scaling(g, pair) == ref_extended_scaling(g, pair), (xi, c)
    short = _words(sys, side, 2)
    for i, k in itertools.product(short, short):
        for m_dual in range(M_DUAL_MAX + 1):
            got = _outcome(dual_measure_ratio, g, i, k, side, m_dual)
            want = _outcome(ref_dual_measure_ratio, g, i, k, side, m_dual)
            assert got == want, (i, k, m_dual)


def _all_pivot_orbits(sys, side):
    """One periodic boundary leaf (the fixed point 0) per pivot pair."""
    return BoundaryData(
        cocyclegap_orbits=tuple(
            CocycleGapOrbit(f"o{a}{b}", side, (0,), a, b)
            for a in range(sys.k)
            for b in range(sys.k)
        )
    )


def assert_pivot_transport_matches(g, side, pair, delta, pressure, depth):
    """The cocycle-gap transport relabels each word's pivot: rows, labels
    and values as the per-side branches gave them."""
    data = _all_pivot_orbits(g.sys, side)
    got = cocycle_gap_rows(g, pair, delta, pressure, depth, data)
    assert got == ref_cocycle_gap_rows(g, pair, delta, pressure, depth, data)
    assert got, "every pivot pair was inadmissible"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("side", SIDES)
def test_word_ends_match_the_side_branches_on_builtins(name, side):
    b = builtin(name)
    g = b.measure
    assert_word_ends_match(g, side)
    spec = from_gibbs(g, side)
    for n_max in (3, 6):
        want = ref_class_check(spec, g, DELTA, 0.1, n_max)
        assert bounded_solenoid_class_check(spec, g, DELTA, 0.1, n_max) == want
    bs = b.side(side)
    if bs.pair is not None:
        assert_pivot_transport_matches(g, side, bs.pair, bs.delta, bs.pressure, 5)


@st.composite
def gapped_measures(draw):
    """A primitive system on 2 to 4 symbols with a gap between every two
    children on one side (the layout side), and a potential of span 1 to 3,
    exact (integer weights) or float."""
    sys, side = _draw_gapped_system(draw, lambda key: True)
    span = draw(st.integers(1, 3))
    words = [w.symbols for w in enumerate_cylinders(sys, span, U_SIDE)]
    if draw(st.booleans()):
        exact = {w: Fraction(draw(st.integers(1, 4))) for w in words}
        pot = Potential(span, {w: math.log(x) for w, x in exact.items()}, exact)
    else:
        pot = Potential(span, {w: draw(st.floats(-1.0, 1.0)) for w in words})
    return GibbsMeasure(sys, pot), side


@settings(max_examples=30, deadline=None)
@given(gapped_measures())
def test_word_ends_match_the_side_branches_on_generated_systems(case):
    g, layout_side = case
    for side in SIDES:
        assert_word_ends_match(g, side)
    spec = from_gibbs(g, layout_side)
    for n_max in (3, 5):
        want = ref_class_check(spec, g, DELTA, 0.1, n_max)
        assert bounded_solenoid_class_check(spec, g, DELTA, 0.1, n_max) == want
    pair = constant_pair(layout_side)
    assert_pivot_transport_matches(g, layout_side, pair, DELTA, 0.0, g.block_len + 2)


@pytest.mark.parametrize("side", SIDES)
def test_no_common_leaf_in_the_same_cases(side):
    # a 4-cycle with loops: 0 and 2 share no neighbour on either side
    A = [[int(b in (a, (a + 1) % 4)) for b in range(4)] for a in range(4)]
    sys = build_sft(4, A)
    g = GibbsMeasure(sys, uniform_potential(sys))
    assert_word_ends_match(g, side)
    with pytest.raises(NoCommonLeaf):
        dual_measure_ratio(g, Word((0,), side), Word((2,), side), side, 1)
