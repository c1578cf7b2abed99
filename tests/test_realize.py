from __future__ import annotations

import math

import pytest

from sftgeom.cocycle import constant_pair, synthesize_ratio
from sftgeom.errors import (
    GapOnDualSide,
    LengthUnderflow,
    MismatchedSystems,
    MissingPairValue,
    NegativeGap,
    NoRoot,
    NotInDomain,
)
from sftgeom.gibbs import (
    GibbsMeasure,
    bernoulli_potential,
    markov_potential,
    uniform_potential,
)
from sftgeom.realize import (
    RatioTable,
    additivity_defect,
    dimension_report,
    dual_pair,
    eigenvalue,
    eigenvalue_via_measure,
    lengths_from_ratio,
    livsic_sinai_check,
    natural_measure_check,
    pressure_of,
)
from sftgeom.sft import (
    BoundaryData,
    CocycleGapOrbit,
    GapLayout,
    PeriodicOrbit,
    build_sft,
    cyl,
    gap,
    periodic_orbits,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
DIM_THIRD = math.log(2.0) / math.log(3.0)
DIM_HORSE = math.log(2.0) / math.log(2.5)

GAPPED = {
    None: (("cyl", 0), ("gap",), ("cyl", 1)),
    0: (("cyl", 0), ("gap",), ("cyl", 1)),
    1: (("cyl", 0), ("gap",), ("cyl", 1)),
}
FLAT = {
    None: (("cyl", 0), ("cyl", 1)),
    0: (("cyl", 0), ("cyl", 1)),
    1: (("cyl", 0), ("cyl", 1)),
}

CANTOR = build_sft(
    2,
    [[1, 1], [1, 1]],
    layouts={"u": GapLayout("u", GAPPED), "s": GapLayout("s", GAPPED)},
)
FULL2 = build_sft(2, [[1, 1], [1, 1]])
GOLDEN = build_sft(
    2,
    [[1, 1], [1, 0]],
    layouts={
        "u": GapLayout(
            "u",
            {
                None: (("cyl", 0), ("cyl", 1)),
                0: (("cyl", 0), ("cyl", 1)),
                1: (("cyl", 0),),
            },
        ),
        "s": GapLayout(
            "s",
            {
                None: (("cyl", 0), ("cyl", 1)),
                0: (("cyl", 0), ("cyl", 1)),
                1: (("cyl", 0),),
            },
        ),
    },
)


def thirds_table(side: str) -> RatioTable:
    third = 1.0 / 3.0
    return RatioTable(
        CANTOR, side, 1, {cyl((0,)): third, cyl((1,)): third, gap(()): third}
    )


def affine_table(side: str) -> RatioTable:
    return RatioTable(
        CANTOR, side, 1, {cyl((0,)): 0.4, cyl((1,)): 0.4, gap(()): 0.2}
    )


def golden_table(side: str) -> RatioTable:
    len1 = (1.0 / PHI, 1.0 / PHI**2)
    ratios = {cyl((0,)): len1[0], cyl((1,)): len1[1]}
    for a in range(2):
        for b in range(2):
            if not GOLDEN.is_admissible((a, b)):
                continue
            deep, shallow = (b, a) if side == "u" else (a, b)
            ratios[cyl((a, b))] = len1[deep] / (PHI * len1[shallow])
    return RatioTable(GOLDEN, side, 2, ratios)


def toy_attractor():
    sys = build_sft(
        2,
        [[1, 1], [1, 1]],
        boundary=BoundaryData(cocyclegap_orbits=(CocycleGapOrbit("bf", "s", (0,), 0, 1),)),
        layouts={"u": GapLayout("u", FLAT), "s": GapLayout("s", GAPPED)},
    )
    g = GibbsMeasure(sys, bernoulli_potential(sys, [2, 1]))
    table = RatioTable(
        sys, "s", 1, {cyl((0,)): 4.0 / 9.0, cyl((1,)): 1.0 / 9.0, gap(()): 4.0 / 9.0}
    )
    tt_s = lengths_from_ratio(table, delta=0.5, pressure=0.0, depth=8)
    return sys, g, tt_s


@pytest.fixture(scope="module")
def toy():
    return toy_attractor()


@pytest.fixture(scope="module")
def cantor_uniform():
    return GibbsMeasure(CANTOR, uniform_potential(CANTOR))


@pytest.fixture(scope="module")
def thirds_tt(cantor_uniform):
    synth = synthesize_ratio(cantor_uniform, constant_pair("u"), DIM_THIRD, 0.0, 8)
    return lengths_from_ratio(synth)


def test_lengths_from_synthesis(thirds_tt):
    tt = thirds_tt
    assert tt.delta == DIM_THIRD and tt.pressure == 0.0
    assert abs(tt.lengths[(0,)] - 1.0 / 3.0) < 1e-14
    assert abs(tt.lengths[(0, 1)] - 1.0 / 9.0) < 1e-14
    assert abs(tt.gap_lengths[((), 0)] - 1.0 / 3.0) < 1e-14
    assert abs(tt.gap_lengths[((0,), 0)] - 1.0 / 9.0) < 1e-14
    assert additivity_defect(tt) < 1e-12


def test_length_of_beyond_depth(thirds_tt):
    deep = (0,) * 10
    assert abs(thirds_tt.length_of(cyl(deep)) - 3.0**-10) < 1e-15
    assert abs(thirds_tt.length_of(gap((0,) * 9)) - 3.0**-10) < 1e-15
    with pytest.raises(MissingPairValue):
        thirds_tt.ratio.ratio_of(gap((0,), 1))


def test_ratio_table_stabilization():
    rt = thirds_table("u")
    assert rt.ratio_of(cyl((0, 1, 0, 1))) == 1.0 / 3.0
    assert rt.ratio_of(gap((1, 1, 0))) == 1.0 / 3.0
    with pytest.raises(MissingPairValue):
        rt.ratio_of(gap((1, 1, 0), 1))


def test_negative_gap_rejected():
    rt = RatioTable(
        CANTOR, "u", 1, {cyl((0,)): 0.4, cyl((1,)): 0.4, gap(()): -0.1}
    )
    with pytest.raises(NegativeGap):
        lengths_from_ratio(rt, delta=0.5, pressure=0.0, depth=4)


def test_pressure_is_affine_in_delta(thirds_tt):
    for d in (0.2, 0.5, DIM_THIRD, 1.0):
        want = math.log(2.0) - d * math.log(3.0)
        assert abs(pressure_of(thirds_tt, d) - want) < 1e-12
    horseshoe = affine_table("u")
    for d in (0.3, DIM_HORSE, 1.0):
        want = math.log(2.0) + d * math.log(0.4)
        assert abs(pressure_of(horseshoe, d) - want) < 1e-12


def test_dimension_cantor(thirds_tt):
    dim = dimension_report(thirds_tt).delta
    assert abs(dim - DIM_THIRD) < 1e-9
    assert abs(pressure_of(thirds_tt, dim)) < 1e-10


def test_dimension_horseshoe():
    dim = dimension_report(affine_table("u")).delta
    assert abs(dim - DIM_HORSE) < 1e-9
    assert abs(pressure_of(affine_table("u"), dim)) < 1e-10


def test_dimension_full_side_is_one():
    assert dimension_report(golden_table("u")).delta == pytest.approx(1.0, abs=1e-9)


def test_dimension_no_root():
    sys1 = build_sft(
        1, [[1]], layouts={"u": GapLayout("u", {None: (("cyl", 0),), 0: (("cyl", 0),)})}
    )
    rt = RatioTable(sys1, "u", 1, {cyl((0,)): 0.5})
    with pytest.raises(NoRoot):
        dimension_report(rt)
    # That table is not additive; the defect is the missing half.
    tt = lengths_from_ratio(rt, delta=1.0, pressure=0.0, depth=3)
    assert abs(additivity_defect(tt) - 0.5) < 1e-15


def test_eigenvalue_thirds(thirds_tt):
    assert eigenvalue(thirds_tt, PeriodicOrbit((0,), 1)) == pytest.approx(3.0, rel=1e-12)
    assert eigenvalue(thirds_tt, PeriodicOrbit((0, 1), 2)) == pytest.approx(9.0, rel=1e-12)
    assert eigenvalue(thirds_tt, PeriodicOrbit((0, 1, 1), 3)) == pytest.approx(
        27.0, rel=1e-12
    )


def test_eigenvalue_horseshoe():
    tt = lengths_from_ratio(affine_table("u"), delta=DIM_HORSE, pressure=0.0, depth=6)
    assert eigenvalue(tt, PeriodicOrbit((0,), 1)) == pytest.approx(2.5, rel=1e-12)
    assert eigenvalue(tt, PeriodicOrbit((0, 1), 2)) == pytest.approx(6.25, rel=1e-12)


def test_eigenvalue_golden():
    tt = lengths_from_ratio(golden_table("u"), delta=1.0, pressure=0.0, depth=6)
    assert eigenvalue(tt, PeriodicOrbit((0,), 1)) == pytest.approx(PHI, rel=1e-12)
    assert eigenvalue(tt, PeriodicOrbit((0, 1), 2)) == pytest.approx(PHI**2, rel=1e-12)
    with pytest.raises(NotInDomain):
        eigenvalue(tt, PeriodicOrbit((1,), 1))


def test_eigenvalue_toy_vertical(toy):
    _, _, tt_s = toy
    assert eigenvalue(tt_s, PeriodicOrbit((0,), 1)) == pytest.approx(9.0 / 4.0, rel=1e-12)
    assert eigenvalue(tt_s, PeriodicOrbit((1,), 1)) == pytest.approx(9.0, rel=1e-12)
    assert eigenvalue(tt_s, PeriodicOrbit((0, 1), 2)) == pytest.approx(
        81.0 / 4.0, rel=1e-12
    )


def test_eigenvalue_via_measure_markov():
    g = GibbsMeasure(FULL2, markov_potential(FULL2, [[0.7, 0.3], [0.4, 0.6]]))
    fix0 = PeriodicOrbit((0,), 1)
    lam = eigenvalue_via_measure(g, 1.0, 0.0, fix0, "u")
    assert lam == pytest.approx(1.0 / 0.7, rel=1e-12)
    lam1 = eigenvalue_via_measure(g, 1.0, 0.0, PeriodicOrbit((1,), 1), "u")
    assert lam1 == pytest.approx(1.0 / 0.6, rel=1e-12)
    twice = eigenvalue_via_measure(g, 1.0, 0.0, fix0, "u", periods=2)
    assert twice == pytest.approx(lam**2, rel=1e-12)


def test_eigenvalue_routes_agree_cantor(cantor_uniform, thirds_tt):
    for orbit in periodic_orbits(CANTOR, 6):
        lam_len = eigenvalue(thirds_tt, orbit)
        lam_meas = eigenvalue_via_measure(cantor_uniform, DIM_THIRD, 0.0, orbit, "u")
        assert abs(lam_len / lam_meas - 1.0) < 1e-12


def test_eigenvalue_routes_agree_toy(toy):
    sys, g, tt_s = toy
    for orbit in periodic_orbits(sys, 6):
        lam_len = eigenvalue(tt_s, orbit)
        lam_meas = eigenvalue_via_measure(g, 0.5, 0.0, orbit, "s")
        assert abs(lam_len / lam_meas - 1.0) < 1e-12


def test_livsic_matched_cantor():
    tt_u = lengths_from_ratio(thirds_table("u"), delta=DIM_THIRD, pressure=0.0, depth=6)
    tt_s = lengths_from_ratio(thirds_table("s"), delta=DIM_THIRD, pressure=0.0, depth=6)
    rows = livsic_sinai_check(tt_u, tt_s, 5)
    assert rows and max(res for *_, res in rows) < 1e-12


def test_livsic_matched_toy(toy):
    sys, g, tt_s = toy
    tt_u = dual_pair(g, tt_s)
    rows = livsic_sinai_check(tt_u, tt_s, 5)
    assert rows and max(res for *_, res in rows) < 1e-12


def test_livsic_negative_control():
    g = GibbsMeasure(CANTOR, markov_potential(CANTOR, [[0.7, 0.3], [0.4, 0.6]]))
    synth = synthesize_ratio(g, constant_pair("u"), DIM_HORSE, 0.0, 8)
    tt_u = lengths_from_ratio(synth)
    tt_s = lengths_from_ratio(affine_table("s"), delta=DIM_HORSE, pressure=0.0, depth=6)
    rows = livsic_sinai_check(tt_u, tt_s, 4)
    by_orbit = {o.representative: res for o, _, _, res in rows}
    assert by_orbit[(0,)] == pytest.approx(0.336, abs=0.01)
    assert max(by_orbit.values()) > 1e-2


def test_livsic_mismatched():
    tt_u = lengths_from_ratio(thirds_table("u"), delta=DIM_THIRD, pressure=0.0, depth=4)
    tt_s = lengths_from_ratio(thirds_table("s"), delta=DIM_THIRD, pressure=0.0, depth=4)
    golden_s = lengths_from_ratio(golden_table("s"), delta=1.0, pressure=0.0, depth=4)
    with pytest.raises(MismatchedSystems):
        livsic_sinai_check(tt_u, golden_s, 3)
    with pytest.raises(MismatchedSystems):
        livsic_sinai_check(tt_s, tt_u, 3)


def test_natural_measure_cantor(cantor_uniform, thirds_tt):
    lo, hi = natural_measure_check(thirds_tt, cantor_uniform)
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12


def test_natural_measure_toy(toy):
    _, g, tt_s = toy
    lo, hi = natural_measure_check(tt_s, g)
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12


def test_natural_measure_mismatch(thirds_tt):
    g = GibbsMeasure(FULL2, uniform_potential(FULL2))
    with pytest.raises(MismatchedSystems):
        natural_measure_check(thirds_tt, g)


def test_dual_pair_toy(toy):
    sys, g, tt_s = toy
    dual = dual_pair(g, tt_s)
    assert dual.side == "u" and dual.delta == 1.0 and dual.pressure == 0.0
    assert dual.lengths[(0,)] == g.measure((0,))
    assert dual.lengths[(0, 1)] == g.measure((0, 1))
    lo, hi = natural_measure_check(dual, g)
    assert lo == 1.0 and hi == 1.0
    assert additivity_defect(dual) < 1e-12
    assert eigenvalue(dual, PeriodicOrbit((0,), 1)) == pytest.approx(1.5, rel=1e-12)


def test_dual_pair_rejects_gap_side(toy, cantor_uniform, thirds_tt):
    with pytest.raises(GapOnDualSide):
        dual_pair(cantor_uniform, thirds_tt)  # dual side has gap room
    sys_u_only = build_sft(2, [[1, 1], [1, 1]], layouts={"u": GapLayout("u", GAPPED)})
    g = GibbsMeasure(sys_u_only, uniform_potential(sys_u_only))
    rt = RatioTable(
        sys_u_only, "u", 1, {cyl((0,)): 1 / 3, cyl((1,)): 1 / 3, gap(()): 1 / 3}
    )
    tt = lengths_from_ratio(rt, delta=DIM_THIRD, pressure=0.0, depth=4)
    with pytest.raises(GapOnDualSide):
        dual_pair(g, tt)  # dual side has no layout at all


def test_dual_pair_mismatched_measure(toy):
    _, _, tt_s = toy
    g = GibbsMeasure(FULL2, uniform_potential(FULL2))
    with pytest.raises(MismatchedSystems):
        dual_pair(g, tt_s)


@pytest.mark.parametrize("side", ["u", "s"])
def test_underflowing_lengths_raise_a_typed_error(side):
    # depth-10 cylinders reach 1e-300 at the least; zero gaps are exact zeros
    table = RatioTable(CANTOR, side, 1, {cyl((0,)): 1e-30, cyl((1,)): 0.5, gap(()): 0.0})
    tt = lengths_from_ratio(table, 0.5, 0.0, 10)
    assert min(tt.lengths.values()) == pytest.approx(1e-300)
    with pytest.raises(LengthUnderflow, match="at depth 11 is below the float range"):
        lengths_from_ratio(table, 0.5, 0.0, 11)
    # a gap under a depth-9 node at 1e-270 * 1e-50, below the normal range
    table = RatioTable(CANTOR, side, 1, {cyl((0,)): 1e-30, cyl((1,)): 0.5, gap(()): 1e-50})
    with pytest.raises(LengthUnderflow, match="at depth 10 is below the float range"):
        lengths_from_ratio(table, 0.5, 0.0, 10)
