"""The window-table core: synthesized tables hold only their window,
level walks match the enumeration order, the per-level bounded checks
agree with the pointwise extension of the scaling function, and the
one-pass Hoelder estimate and the sibling rule agree with their
references."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftgeom.builtins import BUILTIN_NAMES, TABLE_DEPTH, builtin
from sftgeom.cli import load_table, main
from sftgeom.cocycle import (
    CocycleGapPair,
    MeasureLengthCocycle,
    constant_pair,
    synthesize_ratio,
)
from sftgeom.errors import MissingPairValue, NegativeGap, NotInDomain, SftGeomError
from sftgeom.gibbs import (
    AdmissiblePair,
    GibbsMeasure,
    extended_scaling,
    markov_potential,
    potential_from_table,
    uniform_potential,
)
from sftgeom.realize import RatioTable, WindowWalk, lengths_from_ratio
from sftgeom.sft import (
    GapLayout,
    Seg,
    Word,
    build_sft,
    cyl,
    deep_extend,
    drop_deep,
    enumerate_cylinders,
    system_to_json,
)
from sftgeom.solenoid import (
    bounded_equivalence,
    bounded_solenoid_class_check,
    extend_scaling,
    from_gibbs,
    from_realization,
    holder_estimate,
    measure_solenoid,
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
        table = toy.side(side).realization.ratio
        walk = WindowWalk(toy.sys, side, table.window_depth, table.ratio_of)
        extend = lambda w, a: deep_extend(w, a, side)
        for n, level in enumerate(walk.levels(5, (), extend)):
            want = [()] if n == 0 else [w.symbols for w in enumerate_cylinders(toy.sys, n, side)]
            assert [label for label, _, _, _ in level] == want
            for label, _, state, _ in level:
                kids = [
                    Seg("gap", label, key) if is_gap else cyl(extend(label, key))
                    for is_gap, key, _, _ in map(walk.moves.__getitem__, walk.children(state))
                ]
                assert kids == layout.ordered_children(label)


def _gapped_full_shift(k: int):
    """The full shift on k symbols; every list of children runs in a
    scrambled symbol order with a gap after every third cylinder."""
    order = [(7 * i + 3) % k for i in range(k)]
    entries = []
    for i, a in enumerate(order):
        entries.append(("cyl", a))
        if i % 3 == 2 and i < k - 1:
            entries.append(("gap",))
    layout = {key: tuple(entries) for key in [None, *range(k)]}
    return build_sft(
        k,
        [[1] * k for _ in range(k)],
        layouts={side: GapLayout(side, layout) for side in ("u", "s")},
    )


# Every side that synthesizes: the gapped builtin sides, and an 11-symbol
# full shift, whose integer symbol order differs from the string order.
SYNTH_SIDES = [
    ("horseshoe", "u", 6),
    ("horseshoe", "s", 6),
    ("cantor-third", "u", 6),
    ("cantor-third", "s", 6),
    ("da-attractor-toy", "s", 6),
    ("full-11", "u", 3),
    ("full-11", "s", 3),
]


@pytest.mark.parametrize("source,side,depth", SYNTH_SIDES)
def test_synthesize_report_matches_the_library(source, side, depth, tmp_path):
    if source == "full-11":
        sys = _gapped_full_shift(11)
        (tmp_path / "sys.json").write_text(system_to_json(sys), encoding="utf-8")
        argv = ["run", "--system", str(tmp_path / "sys.json"), "synthesize", "--delta", "0.5"]
        g = GibbsMeasure(sys, uniform_potential(sys))
        pair, delta, pressure = constant_pair(side), 0.5, 0.0
    else:
        b = builtin(source)
        argv = ["run", source, "synthesize"]
        g, bs = b.measure, b.side(side)
        pair, delta, pressure = bs.pair, bs.delta, bs.pressure
    out = tmp_path / "out"
    assert main(argv + ["--side", side, "--depth", str(depth), "--out", str(out)]) == 0
    table = load_table(out / "synthesize.csv")
    synth = synthesize_ratio(g, pair, delta, pressure, depth)
    # A depth-one realization lengthens deeper words by telescoping on demand.
    tt = lengths_from_ratio(synth, depth=1)
    layout = g.sys.layout(side)
    want = []
    worst = 0.0
    for n in range(depth + 1):
        words = [()] if n == 0 else [w.symbols for w in enumerate_cylinders(g.sys, n, side)]
        for m in words:
            if n > 0:
                label = ".".join(map(str, m))
                want.append((label, synth.ratio_of(cyl(m)), tt.length_of(cyl(m)), n))
            if n == depth:
                continue
            kids = layout.ordered_children(m)
            worst = max(worst, abs(sum(synth.ratio_of(c) for c in kids) - 1.0))
            for c in kids:
                if c.is_gap:
                    label = f"{'.'.join(map(str, m))}#{c.ordinal}"
                    want.append((label, synth.ratio_of(c), tt.length_of(c), n + 1))
    assert len(table.rows) == len(want)
    for row, (label, ratio, length, d) in zip(table.rows, want):
        assert row == (label, f"{ratio:.17g}", f"{length:.17g}", str(d))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tasks"][0]["worst_residual"] == worst


def _walk_levels(layout, depth):
    """The word-by-word tree walk WindowWalk replaced: (mother, ordered
    children) pairs for the mothers of depth 0 to depth - 1, one level at a
    time, each level in enumerate_cylinders order."""
    row = [()]
    for _ in range(depth):
        level = [(m, layout.ordered_children(m)) for m in row]
        yield level
        row = sorted(c.word for _, kids in level for c in kids if not c.is_gap)


def _walk_levels_lengths(ratio, depth):
    """The level-by-level word walk that lengths_from_ratio replaced: one
    ratio_of per child of every mother."""
    lengths = {(): 1.0}
    gap_lengths = {}
    for level in _walk_levels(ratio.sys.layout(ratio.side), depth):
        for m, kids in level:
            base = lengths[m]
            for seg in kids:
                r = ratio.ratio_of(seg)
                if seg.is_gap:
                    if r < 0.0:
                        raise NegativeGap(f"gap ratio {r!r} under {m}")
                    gap_lengths[(seg.word, seg.ordinal)] = base * r
                else:
                    if r < 0.0 or not math.isfinite(r):
                        raise ValueError(f"bad cylinder ratio {r!r} at {seg.word}")
                    lengths[seg.word] = base * r
    return lengths, gap_lengths


def _outcome(fn):
    """The items() lists of both tables, or the error raised."""
    try:
        lengths, gap_lengths = fn()
    except (SftGeomError, ValueError) as e:
        return type(e), str(e)
    return list(lengths.items()), list(gap_lengths.items())


def _assert_same_lengths(ratio, delta, pressure, depth):
    def walked():
        tt = lengths_from_ratio(ratio, delta, pressure, depth)
        return tt.lengths, tt.gap_lengths

    # equal keys, equal values (==), the same order, or the same error
    assert _outcome(walked) == _outcome(lambda: _walk_levels_lengths(ratio, depth))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("side", ["u", "s"])
def test_lengths_match_the_word_walk_on_builtins(name, side):
    tt = builtin(name).side(side).realization
    assert tt.depth == TABLE_DEPTH
    _assert_same_lengths(tt.ratio, tt.delta, tt.pressure, TABLE_DEPTH)


def _draw_gapped_system(draw, gapped):
    """A primitive system on 2 to 4 symbols with a scrambled layout on one
    side; gapped(key) says whether a gap goes between two children of the
    layout row `key`.  Returns the system and the side."""
    k = draw(st.integers(2, 4))
    A = [[int(draw(st.booleans())) for _ in range(k)] for _ in range(k)]
    for a in range(k):
        A[a][a] = 1
        A[a][(a + 1) % k] = 1
    side = draw(st.sampled_from(["u", "s"]))
    entries = {}
    for key in [None, *range(k)]:
        if key is None:
            kids = list(range(k))
        else:
            kids = [b for b in range(k) if (A[key][b] if side == "u" else A[b][key])]
        kids = draw(st.permutations(kids))
        row = [("cyl", kids[0])]
        for b in kids[1:]:
            if gapped(key):
                row.append(("gap",))
            row.append(("cyl", b))
        entries[key] = tuple(row)
    return build_sft(k, A, layouts={side: GapLayout(side, entries)}), side


def _draw_window_ratios(draw, sys, side, wd):
    """Random positive ratios for the children of every mother shallower
    than wd."""
    layout = sys.layout(side)
    ratios = {}
    for n in range(wd):
        mothers = [()] if n == 0 else [w.symbols for w in enumerate_cylinders(sys, n, side)]
        for m in mothers:
            for seg in layout.ordered_children(m):
                ratios[seg] = draw(st.floats(0.01, 1.0))
    return ratios


@st.composite
def gapped_tables(draw):
    """A primitive system with a gapped, scrambled layout on one side and a
    ratio table of random positive ratios at window depth 1 to 3, one entry
    sometimes missing or negative."""
    sys, side = _draw_gapped_system(draw, lambda key: draw(st.booleans()))
    wd = draw(st.integers(1, 3))
    ratios = _draw_window_ratios(draw, sys, side, wd)
    spoil = draw(st.sampled_from(["none", "none", "missing", "negative"]))
    if spoil != "none":
        seg = draw(st.sampled_from(sorted(ratios)))
        if spoil == "missing":
            del ratios[seg]
        else:
            ratios[seg] = -0.5
    return RatioTable(sys, side, wd, ratios)


@settings(max_examples=60, deadline=None)
@given(gapped_tables())
def test_lengths_match_the_word_walk_on_generated_tables(table):
    # every depth, so a spoiled entry is both just out of reach and needed
    for depth in range(6):
        _assert_same_lengths(table, 0.5, 0.0, depth)


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


def test_bounded_equivalence_reads_each_window_state_once(toy, monkeypatch):
    """The mother chains are walked by window state: past the depth where
    every state is reached, a deeper check expands no more layout rows."""
    plain, kappa, bern, mark, _ = _toy_specs(toy)
    calls = []
    real = GapLayout.ordered_children
    monkeypatch.setattr(GapLayout, "ordered_children", lambda self, w: calls.append(w) or real(self, w))

    def count(n_max):
        calls.clear()
        for a, b in ((plain, kappa), (bern, mark)):
            bounded_equivalence(a, b, toy.sys, n_max)
        return len(calls)

    assert count(12) == count(6)


def _spec_outcome(fn):
    """The value of fn(), or MissingPairValue when a pair value is missing."""
    try:
        return fn()
    except MissingPairValue:
        return MissingPairValue


@st.composite
def gapped_specs(draw):
    """A primitive system with a gapped, scrambled layout on one side, the
    side's leaf-gap realization spec from random ratios, and leaf-leaf
    from_gibbs specs of two measures (potential spans 1 to 3).  The root
    row has a gap between every two primary cylinders, because the
    pointwise references read the root's pair values and the checks do not;
    a deeper row may leave two siblings adjacent, which a leaf-leaf spec
    does not price (MissingPairValue)."""
    dense = draw(st.booleans())
    sys, side = _draw_gapped_system(
        draw, lambda key: dense or key is None or draw(st.booleans())
    )
    wd = draw(st.integers(1, 3))
    ratios = _draw_window_ratios(draw, sys, side, wd)
    tt = lengths_from_ratio(RatioTable(sys, side, wd, ratios), 0.5, 0.0, wd + 1)
    measures = []
    for span in draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)):
        if span == 1:
            measures.append(GibbsMeasure(sys, uniform_potential(sys)))
            continue
        words = [w.symbols for w in enumerate_cylinders(sys, span, "u")]
        phi = {w: draw(st.floats(-1.0, 1.0)) for w in words}
        measures.append(GibbsMeasure(sys, potential_from_table(sys, phi)))
    specs = [from_realization(tt)] + [from_gibbs(g, side) for g in measures]
    return sys, specs, measures


@settings(max_examples=30, deadline=None)
@given(gapped_specs(), st.data())
def test_bounded_checks_match_pointwise_on_generated_systems(case, data):
    sys, specs, measures = case
    assert specs[0].domain_kind == "leaf-gap"
    assert all(spec.domain_kind == "leaf-leaf" for spec in specs[1:])
    n_max = data.draw(st.integers(3, 5))
    a, b = data.draw(st.permutations(specs))[:2]
    got = _spec_outcome(lambda: bounded_equivalence(a, b, sys, n_max))
    want = _spec_outcome(lambda: _pointwise_equivalence(a, b, sys, n_max))
    if want is MissingPairValue:
        assert got is MissingPairValue
    else:
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12
    spec = data.draw(st.sampled_from(specs))
    g = data.draw(st.sampled_from(measures))
    delta = data.draw(st.floats(0.3, 1.0))
    pressure = data.draw(st.floats(-0.5, 0.5))
    got = _spec_outcome(lambda: bounded_solenoid_class_check(spec, g, delta, pressure, n_max))
    want = _spec_outcome(lambda: _pointwise_class_check(spec, g, delta, pressure, n_max))
    if want is MissingPairValue:
        assert got is MissingPairValue
    else:
        assert abs(got - want) <= 1e-12


def _pairwise_holder(spec, alpha):
    """The all-pairs Hoelder estimate: |v1 - v2| * 2^(alpha q) over every two
    keys with, per coordinate, the same kind, ordinal and word length, q
    the least deep-end agreement of their coordinates."""

    def agreement(w1, w2):
        pairs = zip(reversed(w1), reversed(w2)) if spec.side == "u" else zip(w1, w2)
        q = 0
        for a, b in pairs:
            if a != b:
                break
            q += 1
        return q

    groups = {}
    for key, v in spec.values.items():
        shape = tuple((s.kind, s.ordinal, len(s.word)) for s in key)
        groups.setdefault(shape, []).append((key, v))
    worst = 0.0
    for items in groups.values():
        for (k1, v1), (k2, v2) in combinations(items, 2):
            q = min(agreement(s1.word, s2.word) for s1, s2 in zip(k1, k2))
            worst = max(worst, abs(v1 - v2) * 2.0 ** (alpha * q))
    return worst


def _assert_holder_is_pairwise(spec):
    assert spec.holder_constant == _pairwise_holder(spec, 1.0)
    for alpha in (0.5, 1.0, 2.0):
        assert holder_estimate(spec, alpha) == _pairwise_holder(spec, alpha)
        empty = replace(spec, values={})
        assert holder_estimate(empty, alpha) == _pairwise_holder(empty, alpha) == 0.0


def _assert_sibling_rule_is_tabulated(g, side):
    """measure_solenoid accepts a pair of siblings, in either order, exactly
    when from_gibbs tabulates it under their mother."""
    spec = from_gibbs(g, side)
    for d in range(g.span, spec.stabilization + 1):
        mothers = [()] if d == 1 else [w.symbols for w in enumerate_cylinders(g.sys, d - 1, side)]
        for m in mothers:
            kids = [deep_extend(m, a, side) for a in g.sys.deep_extensions(m, side)]
            for a, b in permutations(kids, 2):
                tabulated = (cyl(a), cyl(b)) in spec.values or (cyl(b), cyl(a)) in spec.values
                try:
                    measure_solenoid(g, Word(a, side), Word(b, side), side)
                    accepted = True
                except NotInDomain:
                    accepted = False
                assert accepted == tabulated, (a, b)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("side", ["u", "s"])
def test_solenoid_rules_match_their_references_on_builtins(name, side):
    b = builtin(name)
    _assert_holder_is_pairwise(from_gibbs(b.measure, side))
    if b.sys.has_layout(side):
        _assert_holder_is_pairwise(from_realization(b.side(side).realization))
    _assert_sibling_rule_is_tabulated(b.measure, side)


def test_holder_agreement_stops_at_the_shortest_coordinate():
    # the second coordinates agree in two deep symbols, the first in its only one: q = 1
    spec = replace(
        from_gibbs(builtin("horseshoe").measure, "s"),
        values={(cyl((0,)), cyl((1, 2, 3))): 1.0, (cyl((0,)), cyl((1, 2, 4))): 2.0},
    )
    assert holder_estimate(spec, 1.0) == _pairwise_holder(spec, 1.0) == 2.0
    with pytest.raises(ValueError, match="nonnegative"):
        holder_estimate(spec, -1.0)


def test_sibling_rule_refuses_adjacent_cylinders_in_a_gapped_row():
    row = (("cyl", 0), ("gap",), ("cyl", 1), ("cyl", 2))
    layout = GapLayout("u", dict.fromkeys([None, 0, 1, 2], row))
    sys3 = build_sft(3, [[1, 1, 1]] * 3, layouts={"u": layout})
    words = [w.symbols for w in enumerate_cylinders(sys3, 2, "u")]
    span_two = potential_from_table(sys3, {w: 0.1 * (1 + sum(w) + w[0]) for w in words})
    for pot in (uniform_potential(sys3), span_two):
        g = GibbsMeasure(sys3, pot)
        _assert_sibling_rule_is_tabulated(g, "u")
        with pytest.raises(NotInDomain, match="flank exactly one gap"):
            measure_solenoid(g, Word((0, 1), "u"), Word((0, 2), "u"), "u")


@settings(max_examples=30, deadline=None)
@given(gapped_specs())
def test_solenoid_rules_match_their_references_on_generated_systems(case):
    sys, specs, measures = case
    for spec in specs:
        _assert_holder_is_pairwise(spec)
    for g in measures:
        _assert_sibling_rule_is_tabulated(g, specs[0].side)
