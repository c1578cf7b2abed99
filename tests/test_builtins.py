from __future__ import annotations

import math

import pytest

from sftgeom.builtins import (
    BUILTIN_NAMES,
    BUILTIN_TABLES_VERSION,
    TABLE_DEPTH,
    builtin,
)
from sftgeom.cocycle import (
    CocycleGapPair,
    MeasureLengthCocycle,
    cocycle_gap_rows,
    synthesize_ratio,
)
from sftgeom.errors import UnknownBuiltin
from sftgeom.gibbs import GibbsMeasure, markov_potential
from sftgeom.realize import (
    additivity_defect,
    dimension_report,
    eigenvalue,
    eigenvalue_via_measure,
    livsic_sinai_check,
    natural_measure_check,
)
from sftgeom.sft import cyl, gap, periodic_orbits, system_from_json, system_to_json
from sftgeom.solenoid import (
    boundary_rows,
    cylinder_cylinder_rows,
    cylinder_gap_rows,
    from_realization,
    matching_rows,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def horseshoe():
    return builtin("horseshoe")


@pytest.fixture(scope="module")
def cantor():
    return builtin("cantor-third")


@pytest.fixture(scope="module")
def golden():
    return builtin("golden-anosov")


@pytest.fixture(scope="module")
def toy():
    return builtin("da-attractor-toy")


def test_names_and_version():
    assert BUILTIN_TABLES_VERSION == "1"
    for name in BUILTIN_NAMES:
        b = builtin(name)
        assert b.name == name
        assert b.version == BUILTIN_TABLES_VERSION


def test_unknown_name_rejected():
    with pytest.raises(UnknownBuiltin):
        builtin("smale")


def test_side_accessor(horseshoe):
    assert horseshoe.side("u") is horseshoe.u
    assert horseshoe.side("s") is horseshoe.s
    with pytest.raises(ValueError):
        horseshoe.side("w")


def test_tables_are_additive_at_depth():
    for name in BUILTIN_NAMES:
        b = builtin(name)
        for bs in (b.u, b.s):
            assert bs.realization.depth == TABLE_DEPTH
            assert additivity_defect(bs.realization) < 1e-12


def test_declared_dimensions():
    assert builtin("horseshoe").u.delta == pytest.approx(
        math.log(2.0) / math.log(2.5), abs=1e-15
    )
    assert builtin("cantor-third").s.delta == pytest.approx(
        math.log(2.0) / math.log(3.0), abs=1e-15
    )
    g = builtin("golden-anosov")
    assert g.u.delta == 1.0 and g.s.delta == 1.0
    t = builtin("da-attractor-toy")
    assert t.u.delta == 1.0 and t.s.delta == 0.5


def test_dimension_solver_recovers_declared_delta():
    for name in BUILTIN_NAMES:
        b = builtin(name)
        for bs in (b.u, b.s):
            assert abs(dimension_report(bs.realization).delta - bs.delta) < 1e-9


def test_natural_measure_compatibility():
    for name in ("horseshoe", "cantor-third", "da-attractor-toy"):
        b = builtin(name)
        for bs in (b.u, b.s):
            lo, hi = natural_measure_check(bs.realization, b.measure)
            assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12


def test_golden_lengths_are_not_the_entropy_measure(golden):
    lo, hi = natural_measure_check(golden.u.realization, golden.measure)
    assert hi / lo == pytest.approx(PHI, abs=1e-9)


def test_livsic_matched_on_every_builtin():
    for name in BUILTIN_NAMES:
        b = builtin(name)
        rows = livsic_sinai_check(b.u.realization, b.s.realization, 4)
        assert rows
        assert max(res for *_, res in rows) < 1e-12


def test_golden_matching_and_boundary_instances(golden):
    for bs in (golden.u, golden.s):
        spec = from_realization(bs.realization)
        rows = matching_rows(spec, golden.sys)
        assert [r.ident for r in rows] == [
            f"gold-match-{bs.side}-01",
            f"gold-match-{bs.side}-10",
        ]
        assert max(r.residual for r in rows) < 1e-12
        rows = boundary_rows(spec, golden.sys)
        assert len(rows) == 2
        assert max(r.residual for r in rows) < 1e-12


def test_golden_eigenvalues(golden):
    orbs = periodic_orbits(golden.sys, 2)
    fixed = orbs[0]
    (pair,) = [o for o in orbs if o.period == 2]
    assert eigenvalue(golden.u.realization, fixed) == pytest.approx(PHI, abs=1e-12)
    assert eigenvalue(golden.s.realization, fixed) == pytest.approx(PHI, abs=1e-12)
    assert eigenvalue(golden.u.realization, pair) == pytest.approx(PHI**2, abs=1e-12)


def test_affine_builtins_carry_no_instances(horseshoe):
    spec = from_realization(horseshoe.u.realization)
    assert matching_rows(spec, horseshoe.sys) == []
    assert boundary_rows(spec, horseshoe.sys) == []
    rows = cocycle_gap_rows(
        horseshoe.measure, horseshoe.u.pair, horseshoe.u.delta, 0.0, depth=4
    )
    assert rows == []


def test_affine_pairs_regenerate_tables():
    targets = {"horseshoe": (0.4, 0.2), "cantor-third": (1.0 / 3.0, 1.0 / 3.0)}
    for name, (child, gap_ratio) in targets.items():
        b = builtin(name)
        for bs in (b.u, b.s):
            synth = synthesize_ratio(b.measure, bs.pair, bs.delta, 0.0, 3)
            assert synth.ratio_of(cyl((0,))) == pytest.approx(child, abs=1e-12)
            assert synth.ratio_of(cyl((1,))) == pytest.approx(child, abs=1e-12)
            assert synth.ratio_of(gap((), 0)) == pytest.approx(gap_ratio, abs=1e-12)


def test_toy_pair_regenerates_table(toy):
    assert toy.u.pair is None
    assert toy.s.pair is not None and toy.s.pair.side == "s"
    synth = synthesize_ratio(toy.measure, toy.s.pair, 0.5, 0.0, 3)
    assert synth.ratio_of(cyl((0,))) == pytest.approx(4.0 / 9.0, abs=1e-14)
    assert synth.ratio_of(cyl((1,))) == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert synth.ratio_of(gap((), 0)) == pytest.approx(4.0 / 9.0, abs=1e-14)


def test_toy_cylinder_gap_instances(toy):
    spec = from_realization(toy.s.realization)
    rows = cylinder_gap_rows(spec, toy.sys)
    assert len(rows) == 4
    assert max(r.residual for r in rows) < 1e-14


def test_toy_cylinder_cylinder_exact_for_defining_measure(toy):
    rows = cylinder_cylinder_rows(toy.measure)
    assert len(rows) == 4
    assert max(r.residual for r in rows) < 1e-14


def test_toy_cylinder_cylinder_detects_mismatched_measure(toy):
    gm = GibbsMeasure(toy.sys, markov_potential(toy.sys, [[0.7, 0.3], [0.4, 0.6]]))
    rows = {r.ident: r.residual for r in cylinder_cylinder_rows(gm)}
    assert rows["toy-cc-1"] == pytest.approx(15.0 / 14.0, abs=1e-10)
    assert rows["toy-cc-2"] > 1.0


def test_toy_cocycle_gap_round_trip(toy):
    rows = cocycle_gap_rows(
        toy.measure, toy.s.pair, toy.s.delta, toy.s.pressure, depth=8
    )
    assert len(rows) == 254
    assert max(r.residual for r in rows) < 1e-10


def test_toy_cocycle_gap_detects_perturbation(toy):
    kappa = MeasureLengthCocycle("s", {(): 1.0, (0,): 1.0, (1,): 1.1})
    pair = CocycleGapPair(kappa, toy.s.pair.gap_ratios)
    rows = cocycle_gap_rows(toy.measure, pair, 0.5, 0.0, depth=6)
    assert max(r.residual for r in rows) > 1e-3


def test_toy_eigenvalues(toy):
    fixed0, fixed1 = periodic_orbits(toy.sys, 1)
    assert eigenvalue(toy.s.realization, fixed0) == pytest.approx(2.25, abs=1e-12)
    assert eigenvalue(toy.s.realization, fixed1) == pytest.approx(9.0, abs=1e-12)
    assert eigenvalue(toy.u.realization, fixed0) == pytest.approx(1.5, abs=1e-12)
    assert eigenvalue(toy.u.realization, fixed1) == pytest.approx(3.0, abs=1e-12)


def test_eigenvalue_routes_agree_on_builtins():
    configs = [("cantor-third", "u"), ("horseshoe", "u"), ("da-attractor-toy", "s")]
    for name, side in configs:
        b = builtin(name)
        bs = b.side(side)
        for orb in periodic_orbits(b.sys, 4):
            lam_t = eigenvalue(bs.realization, orb)
            lam_m = eigenvalue_via_measure(b.measure, bs.delta, bs.pressure, orb, side)
            assert abs(lam_t / lam_m - 1.0) < 1e-12


def test_builtin_systems_serialize_round_trip():
    for name in BUILTIN_NAMES:
        blob = system_to_json(builtin(name).sys)
        assert system_to_json(system_from_json(blob)) == blob
