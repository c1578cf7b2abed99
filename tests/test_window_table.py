"""The window-table core: synthesized tables hold only their window,
level walks match the enumeration order, and the per-level bounded
checks agree with the pointwise extension of the scaling function."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from sftgeom.builtins import builtin
from sftgeom.cli import load_table, main
from sftgeom.cocycle import (
    CocycleGapPair,
    MeasureLengthCocycle,
    constant_pair,
    synthesize_ratio,
)
from sftgeom.gibbs import (
    AdmissiblePair,
    GibbsMeasure,
    extended_scaling,
    markov_potential,
)
from sftgeom.realize import lengths_from_ratio
from sftgeom.sft import Word, cyl, drop_deep, enumerate_cylinders, walk_levels
from sftgeom.solenoid import (
    bounded_equivalence,
    bounded_solenoid_class_check,
    extend_scaling,
    from_gibbs,
    from_realization,
)

MARKOV_ROWS = [[0.7, 0.3], [0.4, 0.6]]
EXACT_MARKOV_ROWS = [[Fraction(7, 10), Fraction(3, 10)], [Fraction(2, 5), Fraction(3, 5)]]
KAPPA = {(): 1.0, (0,): 1.0, (1,): 1.2}


def _mother_depth(seg) -> int:
    return len(seg.word) if seg.is_gap else len(seg.word) - 1


@pytest.fixture(scope="module")
def toy():
    return builtin("da-attractor-toy")


@pytest.fixture(scope="module")
def horse():
    return builtin("horseshoe")


@pytest.mark.parametrize("name,side", [("horseshoe", "u"), ("da-attractor-toy", "s")])
def test_synthesized_table_holds_the_window_only(name, side):
    b = builtin(name)
    bs = b.side(side)
    synth = synthesize_ratio(b.measure, constant_pair(side), bs.delta, bs.pressure, 16)
    assert synth.depth == 16
    assert len(synth.ratios) == 9
    assert all(_mother_depth(seg) < synth.window_depth for seg in synth.ratios)
    # The depth sets the default depth of the realization.
    shallow = synthesize_ratio(b.measure, constant_pair(side), bs.delta, bs.pressure, 5)
    assert shallow.ratios == synth.ratios
    assert lengths_from_ratio(shallow).depth == 5


def test_varied_cocycle_table_holds_the_window_only(toy):
    pair = CocycleGapPair(MeasureLengthCocycle("s", KAPPA), constant_pair("s").gap_ratios)
    synth = synthesize_ratio(toy.measure, pair, 0.5, 0.0, 10)
    assert synth.ratios
    assert all(_mother_depth(seg) < synth.window_depth for seg in synth.ratios)


def _assert_per_word_formula(g, side, delta, pressure):
    pair = constant_pair(side)
    synth = synthesize_ratio(g, pair, delta, pressure, 10)
    inv, boost = 1.0 / delta, math.exp(pressure / delta)
    for n in range(1, 11):
        for w in enumerate_cylinders(g.sys, n, side):
            m = drop_deep(w.symbols, side)
            nu_m = g.measure(m) if m else 1.0
            want = pair.cocycle.factor(w.symbols) * (g.measure(w) / nu_m) ** inv * boost
            got = synth.ratio_of(cyl(w.symbols))
            assert abs(got - want) <= 1e-15 * want, (w.symbols, got, want)


def test_window_ratios_match_the_per_word_formula_toy(toy):
    _assert_per_word_formula(toy.measure, "s", toy.s.delta, toy.s.pressure)


@pytest.mark.parametrize("rows", [MARKOV_ROWS, EXACT_MARKOV_ROWS], ids=["float", "exact"])
def test_window_ratios_match_the_per_word_formula_markov(horse, rows):
    g = GibbsMeasure(horse.sys, markov_potential(horse.sys, rows))
    assert g.exact == (rows is EXACT_MARKOV_ROWS)
    _assert_per_word_formula(g, "u", horse.u.delta, horse.u.pressure)


def test_walk_levels_follow_enumeration_order(toy):
    for side in ("u", "s"):
        layout = toy.sys.layout(side)
        for n, level in enumerate(walk_levels(layout, 5)):
            mothers = [m for m, _ in level]
            want = [()] if n == 0 else [w.symbols for w in enumerate_cylinders(toy.sys, n, side)]
            assert mothers == want
            assert all(kids == layout.ordered_children(m) for m, kids in level)


def test_synthesize_report_matches_the_library(toy, tmp_path):
    argv = ["run", "da-attractor-toy", "synthesize", "--depth", "6", "--out", str(tmp_path)]
    assert main(argv) == 0
    table = load_table(tmp_path / "synthesize.csv")
    synth = synthesize_ratio(toy.measure, constant_pair("s"), 0.5, 0.0, 6)
    tt = lengths_from_ratio(synth)
    layout = toy.sys.layout("s")
    want = []
    for n in range(7):
        words = [()] if n == 0 else [w.symbols for w in enumerate_cylinders(toy.sys, n, "s")]
        for m in words:
            if n > 0:
                want.append((".".join(map(str, m)), synth.ratio_of(cyl(m)), tt.lengths[m], n))
            if n == 6:
                continue
            for c in layout.ordered_children(m):
                if c.is_gap:
                    label = f"{'.'.join(map(str, m))}#{c.ordinal}"
                    length = tt.gap_lengths[(m, c.ordinal)]
                    want.append((label, synth.ratio_of(c), length, n + 1))
    assert len(table.rows) == len(want)
    for row, (label, ratio, length, depth) in zip(table.rows, want):
        assert (row[0], row[3]) == (label, str(depth))
        assert float(row[1]) == ratio
        assert float(row[2]) == length


def _primary(word: Word):
    return cyl(word.symbols[:1] if word.side == "u" else word.symbols[-1:])


def _pointwise_equivalence(spec1, spec2, sys, n_max):
    per_depth = []
    for i in range(1, n_max + 1):
        worst = 0.0
        for word in enumerate_cylinders(sys, i + 1, spec1.side):
            s1 = extend_scaling(spec1, sys, word, _primary(word))
            s2 = extend_scaling(spec2, sys, word, _primary(word))
            worst = max(worst, abs(math.log(s1) - math.log(s2)))
        per_depth.append(worst)
    c_full = max(per_depth)
    return c_full - max(per_depth[: n_max - 2]) < 1e-6, c_full


def _pointwise_class_check(spec, g, delta, pressure, n_max):
    worst = 0.0
    leaf = "s" if spec.side == "u" else "u"
    for n in range(2, n_max + 1):
        for word in enumerate_cylinders(g.sys, n, spec.side):
            s = extend_scaling(spec, g.sys, word, _primary(word))
            rho = extended_scaling(g, AdmissiblePair(Word((word.pivot,), leaf), word))
            worst = max(worst, abs(delta * math.log(s) - math.log(rho) - (n - 1) * pressure))
    return worst


def _toy_specs(toy):
    varied = CocycleGapPair(MeasureLengthCocycle("s", KAPPA), constant_pair("s").gap_ratios)
    plain, kappa = (
        from_realization(lengths_from_ratio(synthesize_ratio(toy.measure, p, 0.5, 0.0, 8)))
        for p in (constant_pair("s"), varied)
    )
    markov = GibbsMeasure(toy.sys, markov_potential(toy.sys, MARKOV_ROWS))
    return plain, kappa, from_gibbs(toy.measure, "u"), from_gibbs(markov, "u"), markov


def test_bounded_equivalence_matches_pointwise_extension(toy):
    plain, kappa, bern, mark, _ = _toy_specs(toy)
    for a, b in ((plain, kappa), (bern, mark), (kappa, plain)):
        got = bounded_equivalence(a, b, toy.sys, 6)
        want = _pointwise_equivalence(a, b, toy.sys, 6)
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12


def test_bounded_class_check_matches_pointwise_extension(toy):
    plain, kappa, bern, mark, markov = _toy_specs(toy)
    cases = [
        (plain, toy.measure, 0.5, 0.0),
        (kappa, toy.measure, 0.5, 0.0),
        (bern, toy.measure, 1.0, 0.0),
        (mark, markov, 1.0, 0.0),
        (mark, toy.measure, 1.0, 0.1),
    ]
    for spec, g, delta, pressure in cases:
        got = bounded_solenoid_class_check(spec, g, delta, pressure, 6)
        want = _pointwise_class_check(spec, g, delta, pressure, 6)
        assert abs(got - want) <= 1e-12


def test_criterion_7_pairs_at_depth_twelve(toy):
    plain, kappa, bern, mark, _ = _toy_specs(toy)
    bounded, c_full = bounded_equivalence(plain, kappa, toy.sys, 12)
    assert bounded and abs(c_full - 0.18232155679395845) <= 1e-9
    bounded, c_full = bounded_equivalence(bern, mark, toy.sys, 12)
    assert not bounded and abs(c_full - 7.05343997882543) <= 1e-9
