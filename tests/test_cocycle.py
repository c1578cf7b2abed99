from __future__ import annotations

import math

import pytest

from sftgeom.builtins import builtin
from sftgeom.cocycle import (
    CocycleGapPair,
    GapRatios,
    MeasureLengthCocycle,
    cocycle_gap_rows,
    constant_cocycle,
    constant_gap_ratios,
    constant_pair,
    pair_from_json,
    pair_to_json,
    synthesize_ratio,
    validate_cocycle,
)
from sftgeom.errors import (
    DepthTooShallow,
    InadmissiblePair,
    MissingBoundaryData,
    MissingPairValue,
    NotInDomain,
)
from sftgeom.gibbs import GibbsMeasure, bernoulli_potential, uniform_potential
from sftgeom.sft import (
    BoundaryData,
    CocycleGapOrbit,
    GapLayout,
    build_sft,
    cyl,
    enumerate_cylinders,
    gap,
)

THIRDS = {
    None: (("cyl", 0), ("gap",), ("cyl", 1)),
    0: (("cyl", 0), ("gap",), ("cyl", 1)),
    1: (("cyl", 0), ("gap",), ("cyl", 1)),
}

FULL2 = build_sft(2, [[1, 1], [1, 1]])
FULL2_THIRDS = build_sft(2, [[1, 1], [1, 1]], layouts={"u": GapLayout("u", THIRDS)})

DIM_THIRD = math.log(2.0) / math.log(3.0)


def toy_attractor():
    """Full 2-shift with the vertical gap layout and its boundary orbit."""
    layout = GapLayout(
        "s",
        {
            None: (("cyl", 0), ("gap",), ("cyl", 1)),
            0: (("cyl", 0), ("gap",), ("cyl", 1)),
            1: (("cyl", 0), ("gap",), ("cyl", 1)),
        },
    )
    data = BoundaryData(
        cocyclegap_orbits=(CocycleGapOrbit("bf", "s", (0,), 0, 1),),
    )
    return build_sft(2, [[1, 1], [1, 1]], boundary=data, layouts={"s": layout})


@pytest.fixture(scope="module")
def uniform():
    return GibbsMeasure(FULL2_THIRDS, uniform_potential(FULL2_THIRDS))


@pytest.fixture(scope="module")
def toy():
    sys = toy_attractor()
    g = GibbsMeasure(sys, bernoulli_potential(sys, [2, 1]))
    return sys, g


def test_constant_cocycle_is_trivial():
    c = constant_cocycle("u")
    assert c.depth == 0
    assert c.level((0, 1, 0)) == 1.0
    assert c.factor((0,)) == 1.0
    assert c.factor((0, 1, 1)) == 1.0


def test_cocycle_windows_and_factors():
    c = MeasureLengthCocycle("s", {(): 1.0, (0,): 1.0, (1,): 1.1})
    assert c.depth == 1
    # s-words keep the deep end on the left.
    assert c.window((0, 1, 1)) == (0,)
    assert c.factor((1,)) == pytest.approx(1.1)
    assert c.factor((0, 1)) == pytest.approx(1.0 / 1.1)
    assert c.factor((1, 0)) == pytest.approx(1.1)


def test_cocycle_validation():
    with pytest.raises(ValueError):
        MeasureLengthCocycle("u", {(0,): 1.0})  # no root entry
    with pytest.raises(ValueError):
        MeasureLengthCocycle("u", {(): 0.0})
    with pytest.raises(ValueError):
        MeasureLengthCocycle("x", {(): 1.0})
    c = constant_cocycle("u")
    with pytest.raises(NotInDomain):
        c.factor(())
    with pytest.raises(NotInDomain):
        c.factor(FULL2.word((0, 1), "s"))


def test_cocycle_periodic_product_telescopes():
    c = MeasureLengthCocycle("u", {(): 1.0, (0,): 1.3, (1,): 0.8, (0, 1): 2.0, (1, 0): 0.7})
    w = (0, 1, 0, 1, 0, 1, 0, 1)
    prod = c.factor(w[:8]) * c.factor(w[:7])
    assert abs(prod - 1.0) < 1e-15


def test_missing_window_raises():
    c = MeasureLengthCocycle("u", {(): 1.0, (0,): 1.0})
    with pytest.raises(MissingPairValue):
        c.level((1,))


A_KEY = ((0,), 0)
B_KEY = ((1,), 0)
C_KEY = ((0,), 1)


def test_gap_ratios_lookup():
    r = GapRatios("u", 1, {(A_KEY, B_KEY): 2.0})
    assert r.ratio(gap((0,)), gap((1,))) == 2.0
    assert r.ratio(gap((1,)), gap((0,))) == 0.5
    assert r.ratio(gap((0,)), gap((0,))) == 1.0
    # Deep mothers truncate to their windows.
    assert r.ratio(gap((1, 1, 0)), gap((0, 1))) == 2.0
    with pytest.raises(MissingPairValue):
        r.ratio(gap((0,)), gap((0,), 1))
    with pytest.raises(NotInDomain):
        r.descriptor(cyl((0,)))


def test_gap_ratios_constant():
    r = constant_gap_ratios("s")
    assert r.ratio(gap((0,)), gap((1, 1), 3)) == 1.0
    assert r.validate()


def test_gap_ratios_validate():
    good = GapRatios("u", 1, {(A_KEY, B_KEY): 2.0, (B_KEY, C_KEY): 2.0, (A_KEY, C_KEY): 4.0})
    assert good.validate()
    bad = GapRatios("u", 1, {(A_KEY, B_KEY): 2.0, (B_KEY, C_KEY): 2.0, (A_KEY, C_KEY): 5.0})
    assert not bad.validate()
    skew = GapRatios("u", 1, {(A_KEY, B_KEY): 2.0, (B_KEY, A_KEY): 0.49})
    assert not skew.validate()


def test_gap_ratios_construction_errors():
    with pytest.raises(ValueError):
        GapRatios("u", 1, {(A_KEY, B_KEY): -1.0})
    with pytest.raises(ValueError):
        GapRatios("u", 0, {(A_KEY, B_KEY): 2.0})  # keys deeper than depth
    with pytest.raises(ValueError):
        GapRatios("u", 0, {}, constant=0.0)


def test_pair_side_mismatch():
    with pytest.raises(NotInDomain):
        CocycleGapPair(constant_cocycle("u"), constant_gap_ratios("s"))
    assert constant_pair("s").side == "s"


def test_validate_cocycle_margins(uniform):
    c = constant_cocycle("u")
    ok, margin = validate_cocycle(c, uniform, DIM_THIRD, 0.0)
    assert ok and abs(margin - (1.0 / 3.0)) < 1e-12
    ok, margin = validate_cocycle(c, uniform, 0.5, 0.0)
    assert ok and abs(margin - 0.5) < 1e-12
    ok, margin = validate_cocycle(c, uniform, 1.0, 0.0)
    assert not ok and abs(margin) < 1e-12


def test_validate_cocycle_pressure_boost(uniform):
    # At delta = 1 a negative pressure constant restores gap room.
    ok, margin = validate_cocycle(constant_cocycle("u"), uniform, 1.0, -math.log(2.0))
    assert ok and abs(margin - 0.5) < 1e-12


def test_validate_cocycle_bernoulli(toy):
    _, g = toy
    ok, margin = validate_cocycle(constant_cocycle("s"), g, 0.5, 0.0)
    assert ok and abs(margin - 4.0 / 9.0) < 1e-12


def test_validate_cocycle_rejects_nonpositive_delta(uniform):
    with pytest.raises(ValueError):
        validate_cocycle(constant_cocycle("u"), uniform, 0.0, 0.0)


def test_nan_delta_and_overflowing_boost_raise(uniform):
    with pytest.raises(ValueError):
        validate_cocycle(constant_cocycle("u"), uniform, math.nan, 0.0)
    with pytest.raises(ValueError):
        synthesize_ratio(uniform, constant_pair("u"), math.nan, 0.0, 8)
    # e^(pressure/delta) is not a float: a typed error, not OverflowError
    for pressure in (1e308, math.nan):
        with pytest.raises(InadmissiblePair):
            synthesize_ratio(uniform, constant_pair("u"), DIM_THIRD, pressure, 8)


def test_underflowing_boost_raises_a_typed_error():
    # e^(pressure/delta) underflows to 0 and e^(-pressure/delta), which the
    # round trip divides by, overflows: a typed error, not OverflowError
    toy = builtin("da-attractor-toy")
    with pytest.raises(InadmissiblePair):
        cocycle_gap_rows(toy.measure, toy.s.pair, 0.5, -1000.0, 4)
    assert cocycle_gap_rows(toy.measure, toy.s.pair, 0.5, -300.0, 4)


def test_synthesis_middle_third(uniform):
    synth = synthesize_ratio(uniform, constant_pair("u"), DIM_THIRD, 0.0, 8)
    assert abs(synth.ratio_of(cyl((0,))) - 1.0 / 3.0) < 1e-15
    assert abs(synth.ratio_of(cyl((1,))) - 1.0 / 3.0) < 1e-15
    assert abs(synth.ratio_of(gap(())) - 1.0 / 3.0) < 1e-15
    assert abs(synth.ratio_of(cyl((0, 1, 0))) - 1.0 / 3.0) < 1e-15
    assert abs(synth.ratio_of(gap((0, 1))) - 1.0 / 3.0) < 1e-15
    assert abs(synth.margin - 1.0 / 3.0) < 1e-12


def test_synthesis_children_sum_to_one(uniform):
    synth = synthesize_ratio(uniform, constant_pair("u"), DIM_THIRD, 0.0, 8)
    assert abs(synth.children_sum(()) - 1.0) < 1e-12
    for n in range(1, 8):
        for w in enumerate_cylinders(FULL2_THIRDS, n, "u"):
            assert abs(synth.children_sum(w.symbols) - 1.0) < 1e-12


def test_synthesis_square_root_split(uniform):
    synth = synthesize_ratio(uniform, constant_pair("u"), 0.5, 0.0, 8)
    assert abs(synth.ratio_of(cyl((0,))) - 0.25) < 1e-15
    assert abs(synth.ratio_of(gap(())) - 0.5) < 1e-15


def test_synthesis_stabilized_lookup(uniform):
    synth = synthesize_ratio(uniform, constant_pair("u"), DIM_THIRD, 0.0, 8)
    deep = tuple([0, 1] * 6)  # longer than the synthesis depth
    assert abs(synth.ratio_of(cyl(deep)) - 1.0 / 3.0) < 1e-15
    assert abs(synth.ratio_of(gap(deep, 0)) - 1.0 / 3.0) < 1e-15


def test_synthesis_gap_weighting():
    five = {
        None: (("cyl", 0), ("gap",), ("cyl", 1), ("gap",), ("cyl", 2)),
        0: (("cyl", 0), ("gap",), ("cyl", 1), ("gap",), ("cyl", 2)),
        1: (("cyl", 0), ("gap",), ("cyl", 1), ("gap",), ("cyl", 2)),
        2: (("cyl", 0), ("gap",), ("cyl", 1), ("gap",), ("cyl", 2)),
    }
    sys = build_sft(3, [[1, 1, 1]] * 3, layouts={"u": GapLayout("u", five)})
    g = GibbsMeasure(sys, uniform_potential(sys))
    ratios = GapRatios("u", 0, {(((), 1), ((), 0)): 2.0})
    pair = CocycleGapPair(constant_cocycle("u"), ratios)
    synth = synthesize_ratio(g, pair, 0.5, 0.0, 6)
    # Cylinders take 1/9 each; the leftover 2/3 splits 1 : 2 between the gaps.
    assert abs(synth.ratio_of(gap(())) - 2.0 / 9.0) < 1e-14
    assert abs(synth.ratio_of(gap((), 1)) - 4.0 / 9.0) < 1e-14
    assert abs(synth.children_sum(()) - 1.0) < 1e-12


def test_synthesis_needs_gap_room():
    g = GibbsMeasure(FULL2, uniform_potential(FULL2))
    with pytest.raises(InadmissiblePair):
        synthesize_ratio(g, constant_pair("u"), DIM_THIRD, 0.0, 8)


def test_synthesis_rejects_unit_mass(uniform):
    # At delta = 1 the cylinder children already fill the interval.
    with pytest.raises(InadmissiblePair):
        synthesize_ratio(uniform, constant_pair("u"), 1.0, 0.0, 8)


def test_synthesis_rejects_shallow_depth(uniform):
    with pytest.raises(DepthTooShallow):
        synthesize_ratio(uniform, constant_pair("u"), DIM_THIRD, 0.0, 1)


def test_synthesis_rejects_gapless_mother():
    mixed = {
        None: (("cyl", 0), ("cyl", 1)),
        0: (("cyl", 0), ("gap",), ("cyl", 1)),
        1: (("cyl", 0), ("gap",), ("cyl", 1)),
    }
    sys = build_sft(2, [[1, 1], [1, 1]], layouts={"u": GapLayout("u", mixed)})
    g = GibbsMeasure(sys, uniform_potential(sys))
    with pytest.raises(InadmissiblePair):
        synthesize_ratio(g, constant_pair("u"), 0.5, 0.0, 6)


def test_cocycle_gap_round_trip(toy):
    sys, g = toy
    rows = cocycle_gap_rows(g, constant_pair("s"), 0.5, 0.0, depth=6)
    # One row per descriptor of depth 2..6 with the second rectangle's pivot.
    assert len(rows) == sum(2 ** (n - 1) for n in range(2, 7))
    assert max(r.residual for r in rows) < 1e-12


def test_cocycle_gap_detects_perturbation(toy):
    sys, g = toy
    skew = MeasureLengthCocycle("s", {(): 1.0, (0,): 1.0, (1,): 1.1})
    pair = CocycleGapPair(skew, constant_gap_ratios("s"))
    rows = cocycle_gap_rows(g, pair, 0.5, 0.0, depth=6)
    assert max(r.residual for r in rows) > 1e-3


def test_cocycle_gap_no_records():
    sys = build_sft(
        2,
        [[1, 1], [1, 1]],
        boundary=BoundaryData(),
        layouts={"s": GapLayout("s", dict(THIRDS))},
    )
    g = GibbsMeasure(sys, uniform_potential(sys))
    assert cocycle_gap_rows(g, constant_pair("s"), 0.5, 0.0) == []


def test_cocycle_gap_side_filter(toy):
    sys, g = toy
    # The recorded orbit lives on the s side; a u pair has nothing to check.
    assert cocycle_gap_rows(g, constant_pair("u"), 0.5, 0.0) == []


def test_cocycle_gap_missing_data():
    g = GibbsMeasure(FULL2, uniform_potential(FULL2))
    with pytest.raises(MissingBoundaryData):
        cocycle_gap_rows(g, constant_pair("s"), 0.5, 0.0)


def test_pair_json_round_trip():
    cocycle = MeasureLengthCocycle("u", {(): 1.0, (0,): 1.25, (1,): 0.8})
    ratios = GapRatios("u", 1, {(A_KEY, B_KEY): 2.0, (B_KEY, C_KEY): 2.0})
    pair = CocycleGapPair(cocycle, ratios)
    text = pair_to_json(pair)
    back = pair_from_json(text)
    assert back == pair
    assert pair_to_json(back) == text


def test_constant_pair_json_round_trip():
    pair = constant_pair("s")
    back = pair_from_json(pair_to_json(pair))
    assert back == pair
    assert back.gap_ratios.constant == 1.0
