from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftgeom.errors import InadmissiblePair, NoCommonLeaf, WordTooShort
from sftgeom.gibbs import (
    AdmissiblePair,
    GibbsMeasure,
    Potential,
    bernoulli_potential,
    dual_measure_ratio,
    extended_scaling,
    markov_potential,
    measure_scaling,
    potential_from_json,
    potential_from_table,
    potential_to_json,
    uniform_potential,
)
from sftgeom.sft import Seg, Word, build_sft, enumerate_cylinders, opposite

FULL2 = build_sft(2, [[1, 1], [1, 1]])
GOLDEN = build_sft(2, [[1, 1], [1, 0]])

MARKOV_ROWS = [
    [Fraction(7, 10), Fraction(3, 10)],
    [Fraction(2, 5), Fraction(3, 5)],
]


@pytest.fixture(scope="module")
def markov():
    return GibbsMeasure(FULL2, markov_potential(FULL2, MARKOV_ROWS))


@pytest.fixture(scope="module")
def uniform():
    return GibbsMeasure(FULL2, uniform_potential(FULL2))


@pytest.fixture(scope="module")
def bernoulli():
    return GibbsMeasure(FULL2, bernoulli_potential(FULL2, [Fraction(2, 3), Fraction(1, 3)]))


@pytest.fixture(scope="module")
def golden():
    return GibbsMeasure(GOLDEN, uniform_potential(GOLDEN))


def test_uniform_is_exact_halving(uniform):
    assert uniform.exact
    assert uniform.measure_exact((0,)) == Fraction(1, 2)
    assert uniform.measure_exact((0, 1, 1)) == Fraction(1, 8)
    assert uniform.measure((1, 0)) == 0.25
    assert abs(uniform.pressure - math.log(2)) < 1e-14


def test_markov_stationary_values(markov):
    assert markov.exact
    assert abs(markov.pressure) < 1e-14
    assert markov.measure_exact((0,)) == Fraction(4, 7)
    assert markov.measure_exact((1,)) == Fraction(3, 7)
    assert markov.measure_exact((0, 0)) == Fraction(2, 5)
    assert markov.measure_exact((0, 1)) == Fraction(6, 35)
    assert markov.measure_exact((1, 0)) == Fraction(6, 35)
    assert markov.measure_exact((1, 1)) == Fraction(9, 35)


def test_bernoulli_product_measure(bernoulli):
    assert bernoulli.exact
    assert bernoulli.measure_exact((0, 1, 0)) == Fraction(4, 27)
    assert abs(bernoulli.pressure) < 1e-14


def test_golden_parry_measure(golden):
    assert not golden.exact
    phi = (1 + math.sqrt(5)) / 2
    assert abs(golden.pressure - math.log(phi)) < 1e-12
    pi0 = (phi + 1) / (phi + 2)
    assert abs(golden.measure((0,)) - pi0) < 1e-12
    assert abs(golden.measure((0, 1)) - pi0 / phi**2) < 1e-12
    # after a 1 the next symbol is forced, so deepening by 0 costs nothing
    assert abs(golden.measure((0, 1, 0)) - golden.measure((0, 1))) < 1e-14
    assert golden.measure((1, 1)) == 0.0


def test_span_three_table(uniform):
    table = {w.symbols: 0.0 for w in enumerate_cylinders(FULL2, 3, "u")}
    exact = {k: 1 for k in table}
    g = GibbsMeasure(FULL2, potential_from_table(FULL2, table, exact))
    assert g.exact
    assert g.measure_exact((0,)) == Fraction(1, 2)
    assert g.measure_exact((1, 0)) == Fraction(1, 4)
    assert g.measure_exact((0, 1, 0, 1)) == Fraction(1, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_level_sums(markov, uniform, bernoulli, golden, n):
    for g in (markov, uniform, bernoulli, golden):
        total = sum(g.measure(w) for w in enumerate_cylinders(g.sys, n, "u"))
        assert abs(total - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=7))
def test_extension_sums_are_marginals(symbols):
    g = GibbsMeasure(FULL2, markov_potential(FULL2, MARKOV_ROWS))
    w = tuple(symbols)
    right = sum(g.measure(w + (a,)) for a in range(2))
    left = sum(g.measure((a,) + w) for a in range(2))
    assert abs(right - g.measure(w)) < 1e-14
    assert abs(left - g.measure(w)) < 1e-14


def test_scaling_values(markov):
    assert abs(measure_scaling(markov, Word((0, 0), "u")) - 0.7) < 1e-15
    assert abs(measure_scaling(markov, Word((0, 1), "u")) - 0.4) < 1e-15
    assert abs(measure_scaling(markov, Word((0, 0), "s")) - 0.7) < 1e-15
    with pytest.raises(WordTooShort):
        measure_scaling(markov, Word((0,), "u"))


def test_scaling_preimage_sums(markov, golden):
    for g in (markov, golden):
        for base in enumerate_cylinders(g.sys, 3, "u"):
            exts = [
                Word((a,) + base.symbols, "u")
                for a in g.sys.predecessors(base.symbols[0])
            ]
            total = sum(measure_scaling(g, e) for e in exts)
            assert abs(total - 1.0) < 1e-13
        for base in enumerate_cylinders(g.sys, 3, "s"):
            exts = [
                Word(base.symbols + (a,), "s")
                for a in g.sys.successors(base.symbols[-1])
            ]
            total = sum(measure_scaling(g, e) for e in exts)
            assert abs(total - 1.0) < 1e-13


def test_admissible_pair_validation():
    with pytest.raises(InadmissiblePair):
        AdmissiblePair(Word((0,), "u"), Word((0, 1), "u"))
    with pytest.raises(InadmissiblePair):
        AdmissiblePair(Word((0, 1), "s"), Word((0, 1), "u"))
    pair = AdmissiblePair(Word((0, 1), "s"), Word((1, 0), "u"))
    assert pair.joined == (0, 1, 0)
    pair_s = AdmissiblePair(Word((1, 0), "u"), Word((0, 1), "s"))
    assert pair_s.joined == (0, 1, 0)


def test_extended_scaling_one_cylinders(markov):
    for a in range(2):
        for xi in enumerate_cylinders(FULL2, 3, "s"):
            if xi.symbols[-1] != a:
                continue
            pair = AdmissiblePair(xi, Word((a,), "u"))
            assert extended_scaling(markov, pair) == 1.0


def test_extended_scaling_matches_measure_quotient(markov, bernoulli, golden):
    for g in (markov, bernoulli, golden):
        for xi in enumerate_cylinders(g.sys, 2, "s"):
            for c in enumerate_cylinders(g.sys, 3, "u"):
                if xi.pivot != c.pivot:
                    continue
                pair = AdmissiblePair(xi, c)
                direct = g.measure(pair.joined) / g.measure(xi.symbols)
                assert abs(extended_scaling(g, pair) - direct) < 1e-14
        for xi in enumerate_cylinders(g.sys, 2, "u"):
            for c in enumerate_cylinders(g.sys, 3, "s"):
                if xi.pivot != c.pivot:
                    continue
                pair = AdmissiblePair(xi, c)
                direct = g.measure(pair.joined) / g.measure(xi.symbols)
                assert abs(extended_scaling(g, pair) - direct) < 1e-14


def test_extended_scaling_window_stabilises(markov):
    c = Word((0, 1, 1, 0), "u")
    xi_a = Word((0, 0), "s")
    xi_b = Word((1, 0), "s")
    assert extended_scaling(markov, AdmissiblePair(xi_a, c)) == extended_scaling(
        markov, AdmissiblePair(xi_b, c)
    )


def ratio_decomposition_residual(g: GibbsMeasure, c: Word, depth: int) -> float:
    """How far the leaf decomposition of a cylinder is from its measure: the
    oracle of extended_scaling.

    Sums extended_scaling against the measures of all depth-`depth`
    opposite-side leaves sharing the cylinder's pivot.
    """
    total = 0.0
    for xi in enumerate_cylinders(g.sys, depth, opposite(c.side)):
        if xi.pivot == c.pivot:
            total += extended_scaling(g, AdmissiblePair(xi, c)) * g.measure(xi.symbols)
    return abs(g.measure(c.symbols) - total)


@pytest.mark.parametrize("side", ["u", "s"])
@pytest.mark.parametrize("depth", [2, 4, 6])
def test_ratio_decomposition_residuals(markov, uniform, golden, side, depth):
    for g in (markov, uniform, golden):
        for n in (2, 3):
            for c in enumerate_cylinders(g.sys, n, side):
                assert ratio_decomposition_residual(g, c, depth) < 1e-12


def test_measure_ratio(markov):
    i = Word((0, 0), "u")
    j = Word((0, 1), "u")
    assert abs(markov.measure(i) / markov.measure(j) - 7 / 3) < 1e-14
    children = [Word((0, 0), "u"), Word((0, 1), "u")]
    total = sum(markov.measure(c) / markov.measure(Word((0,), "u")) for c in children)
    assert abs(total - 1.0) < 1e-14


def test_dual_ratio_markov_pinned(markov):
    i = Word((0,), "s")
    k = Word((1,), "s")
    for m_dual in (1, 2, 3):
        assert abs(dual_measure_ratio(markov, i, k, "s", m_dual) - 4 / 3) < 1e-13
    iu = Word((0,), "u")
    ku = Word((1,), "u")
    assert abs(dual_measure_ratio(markov, iu, ku, "u", 2) - 4 / 3) < 1e-13


def test_dual_ratio_reciprocal(markov):
    i = Word((0, 1), "s")
    k = Word((1, 1), "s")
    r = dual_measure_ratio(markov, i, k, "s", 2)
    assert abs(r * dual_measure_ratio(markov, k, i, "s", 2) - 1.0) < 1e-13


def test_dual_ratio_matches_direct_on_shared_pivot(markov, bernoulli, golden):
    for g in (markov, bernoulli, golden):
        for side in ("u", "s"):
            words = enumerate_cylinders(g.sys, 3, side)
            for i in words:
                for k in words:
                    if i.pivot != k.pivot:
                        continue
                    r_dual = dual_measure_ratio(g, i, k, side, 3)
                    r_direct = g.measure(i) / g.measure(k)
                    assert abs(r_dual - r_direct) < 1e-12


def test_dual_ratio_no_common_leaf():
    sys3 = build_sft(3, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    g = GibbsMeasure(sys3, uniform_potential(sys3))
    with pytest.raises(NoCommonLeaf):
        dual_measure_ratio(g, Word((0,), "s"), Word((1,), "s"), "s", 1)
    with pytest.raises(NoCommonLeaf):
        dual_measure_ratio(g, Word((0,), "u"), Word((0,), "s"), "s", 1)


def test_potential_validation():
    with pytest.raises(ValueError):
        bernoulli_potential(FULL2, [1, 2, 3])
    with pytest.raises(ValueError):
        markov_potential(FULL2, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        potential_from_table(GOLDEN, {(0, 0): 0.0, (0, 1): 0.0})


def golden_span3_potential(exact):
    """Stochastic span-3 weights on GOLDEN, whose blocks are (0, 0), (0, 1)
    and (1, 0): lambda = 1, so the exact route is taken when `exact`."""
    weights = {
        (0, 0, 0): Fraction(1, 2),
        (0, 0, 1): Fraction(1, 2),
        (0, 1, 0): Fraction(1),
        (1, 0, 0): Fraction(1, 3),
        (1, 0, 1): Fraction(2, 3),
    }
    phi = {w: math.log(x) for w, x in weights.items()}
    return Potential(3, phi, weights if exact else None)


def test_inadmissible_words_have_zero_measure():
    """On both routes, with blocks of one symbol and of two: a symbol
    outside the alphabet, an inadmissible first block and an inadmissible
    move after a measured prefix give 0, each on a fresh measure; the
    empty word gives 1."""
    potentials = [
        markov_potential(GOLDEN, [[Fraction(2, 3), Fraction(1, 3)], [1, 0]]),
        markov_potential(GOLDEN, [[0.6, 0.5], [1.0, 0.0]]),
        golden_span3_potential(exact=True),
        golden_span3_potential(exact=False),
    ]
    routes = [(g.exact, g.block_len) for g in (GibbsMeasure(GOLDEN, p) for p in potentials)]
    assert routes == [(True, 1), (False, 1), (True, 2), (False, 2)]
    prefix = (0, 1, 0, 0)
    cases = [
        # symbols outside the alphabet
        (2,), (-1,), (0, 2), (2, 0), (-1, 0, 1), (0, 0, 2), prefix + (7,),
        (1, 1), (1, 1, 0), (1, 1, 0, 0, 1),  # the first block (1, 1) is inadmissible
        prefix + (1, 1), prefix + (1, 1, 0),  # the move (.., 1, 1) after a measured prefix
    ]
    for p in potentials:
        for w in cases:
            g = GibbsMeasure(GOLDEN, p)
            assert g.measure(prefix) > 0
            if g.exact:
                got = g.measure_exact(w)
                assert type(got) is Fraction and got == 0, w
            assert g.measure(w) == 0.0, w
        assert g.measure(()) == 1.0
        if g.exact:
            assert g.measure_exact(()) == Fraction(1)
            assert g.measure_exact((0,)) + g.measure_exact((1,)) == 1


def test_potential_json_round_trip():
    pot = markov_potential(FULL2, MARKOV_ROWS)
    text = potential_to_json(pot)
    again = potential_from_json(text)
    assert again.span == 2
    assert again.exact_weights == pot.exact_weights
    assert potential_to_json(again) == text
    assert '"7/10"' in text


def test_gap_word_rejected_by_measure(markov):
    with pytest.raises(TypeError):
        markov.measure(Seg("gap", (0,), 0))
