from __future__ import annotations

import math
from fractions import Fraction

import pytest

from sftgeom.builtins import builtin
from sftgeom.errors import (
    MismatchedSystems,
    MissingPairValue,
    NotInDomain,
    WordTooShort,
)
from sftgeom.gibbs import (
    GibbsMeasure,
    bernoulli_potential,
    markov_potential,
    potential_from_table,
    uniform_potential,
)
from sftgeom.realize import RatioTable
from sftgeom.sft import (
    BoundaryData,
    BoundaryInstance,
    CylinderCylinderInstance,
    CylinderGapInstance,
    GapLayout,
    MatchingInstance,
    Seg,
    Word,
    build_sft,
    cyl,
    enumerate_cylinders,
    gap,
)
from sftgeom.solenoid import (
    boundary_rows,
    bounded_equivalence,
    bounded_solenoid_class_check,
    cylinder_cylinder_rows,
    cylinder_gap_rows,
    extend_scaling,
    from_gibbs,
    from_realization,
    holder_estimate,
    matching_rows,
    measure_solenoid,
    solenoid_from_json,
    solenoid_to_json,
)

MARKOV_ROWS = [
    [Fraction(7, 10), Fraction(3, 10)],
    [Fraction(2, 5), Fraction(3, 5)],
]

FLAT2 = {
    None: (("cyl", 0), ("cyl", 1)),
    0: (("cyl", 0), ("cyl", 1)),
    1: (("cyl", 0), ("cyl", 1)),
}
THIRDS = {
    None: (("cyl", 0), ("gap",), ("cyl", 1)),
    0: (("cyl", 0), ("gap",), ("cyl", 1)),
    1: (("cyl", 0), ("gap",), ("cyl", 1)),
}

FULL2 = build_sft(2, [[1, 1], [1, 1]])
FULL2_FLAT = build_sft(
    2,
    [[1, 1], [1, 1]],
    layouts={"u": GapLayout("u", FLAT2), "s": GapLayout("s", FLAT2)},
)
FULL2_THIRDS = build_sft(2, [[1, 1], [1, 1]], layouts={"u": GapLayout("u", THIRDS)})
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

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def markov():
    return GibbsMeasure(FULL2, markov_potential(FULL2, MARKOV_ROWS))


@pytest.fixture(scope="module")
def markov_flat():
    return GibbsMeasure(FULL2_FLAT, markov_potential(FULL2_FLAT, MARKOV_ROWS))


@pytest.fixture(scope="module")
def uniform_flat():
    return GibbsMeasure(FULL2_FLAT, uniform_potential(FULL2_FLAT))


@pytest.fixture(scope="module")
def golden():
    return GibbsMeasure(GOLDEN, uniform_potential(GOLDEN))


class ThirdsTT:
    """Middle-third realization stub: every child, gap included, is a third."""

    def __init__(self, sys):
        self.sys = sys
        self.side = "u"
        self.window_depth = 1

    def length_of(self, seg):
        depth = len(seg.word) + (1 if seg.is_gap else 0)
        return 3.0 ** -depth


@pytest.fixture(scope="module")
def thirds_spec():
    return from_realization(ThirdsTT(FULL2_THIRDS))


def test_measure_solenoid_values(markov):
    v = measure_solenoid(markov, Word((0, 0), "u"), Word((0, 1), "u"), "u")
    assert abs(v - 7 / 3) < 1e-14
    w = measure_solenoid(markov, Word((0, 0), "s"), Word((1, 0), "s"), "s")
    assert abs(w - 7 / 3) < 1e-14
    back = measure_solenoid(markov, Word((0, 1), "u"), Word((0, 0), "u"), "u")
    assert abs(v * back - 1.0) < 1e-14


def test_measure_solenoid_domain_errors(markov):
    with pytest.raises(WordTooShort):
        measure_solenoid(markov, Word((0,), "u"), Word((1,), "u"), "u")
    with pytest.raises(NotInDomain):
        measure_solenoid(markov, Word((0, 0), "u"), Word((1, 1), "u"), "u")
    with pytest.raises(NotInDomain):
        measure_solenoid(markov, Word((0, 0), "u"), Word((0, 0), "u"), "u")
    with pytest.raises(NotInDomain):
        measure_solenoid(markov, Word((0, 0), "u"), Word((0, 1, 1), "u"), "u")
    with pytest.raises(NotInDomain):
        measure_solenoid(markov, Word((0, 0), "s"), Word((1, 0), "s"), "u")


def test_measure_solenoid_rejects_inadmissible_words():
    golden = builtin("golden-anosov").measure
    for psi, xi in (((1, 1), (1, 0)), ((1, 0), (1, 1))):
        with pytest.raises(NotInDomain):
            measure_solenoid(golden, Word(psi, "u"), Word(xi, "u"), "u")


def test_measure_solenoid_layout_rules():
    sys3 = build_sft(
        3,
        [[1, 1, 1]] * 3,
        layouts={
            "u": GapLayout(
                "u",
                {
                    key: (("cyl", 0), ("gap",), ("cyl", 1), ("cyl", 2))
                    for key in (None, 0, 1, 2)
                },
            )
        },
    )
    g = GibbsMeasure(sys3, uniform_potential(sys3))
    ok = measure_solenoid(g, Word((0, 0), "u"), Word((0, 1), "u"), "u")
    assert abs(ok - 1.0) < 1e-14
    with pytest.raises(NotInDomain):
        measure_solenoid(g, Word((0, 1), "u"), Word((0, 2), "u"), "u")
    with pytest.raises(NotInDomain):
        measure_solenoid(g, Word((0, 0), "u"), Word((0, 2), "u"), "u")


def test_from_gibbs_markov_table(markov):
    spec = from_gibbs(markov, "u")
    assert spec.boundary_agnostic
    assert spec.domain_kind == "leaf-leaf"
    assert spec.stabilization == 2
    assert abs(spec.sigma(cyl((0, 0)), cyl((0, 1))) - 7 / 3) < 1e-14
    assert abs(spec.sigma(cyl((0,)), cyl((1,))) - 4 / 3) < 1e-14
    deep = spec.sigma(cyl((1, 1, 0, 0)), cyl((1, 1, 0, 1)))
    assert abs(deep - 7 / 3) < 1e-14
    prod = spec.sigma(cyl((0, 0)), cyl((0, 1))) * spec.sigma(cyl((0, 1)), cyl((0, 0)))
    assert abs(prod - 1.0) < 1e-15
    with pytest.raises(MissingPairValue):
        spec.sigma(cyl((0,)), cyl((0, 1)))


def test_a_side_without_a_layout_raises_not_in_domain(markov):
    """A boundary-agnostic spec has no layout to walk: the bounded checks,
    extend_scaling and a table's children_sum on that side raise
    NotInDomain, not a bare KeyError."""
    spec = from_gibbs(markov, "u")
    assert spec.boundary_agnostic
    table = RatioTable(FULL2, "u", 1, {cyl((0,)): 0.5, cyl((1,)): 0.5})
    calls = [
        lambda: bounded_equivalence(spec, spec, FULL2, 4),
        lambda: bounded_solenoid_class_check(spec, markov, 1.0, 0.0, 4),
        lambda: extend_scaling(spec, FULL2, Word((0, 1), "u"), Word((0,), "u")),
        lambda: table.children_sum(()),
    ]
    for call in calls:
        with pytest.raises(NotInDomain, match="no u-side layout"):
            call()


def test_from_gibbs_golden_depth_matters(golden):
    spec = from_gibbs(golden, "u")
    assert not spec.boundary_agnostic
    root = spec.sigma(cyl((0,)), cyl((1,)))
    deep = spec.sigma(cyl((0, 0)), cyl((0, 1)))
    assert abs(root - PHI**2) < 1e-12
    assert abs(deep - PHI) < 1e-12
    cross = spec.sigma(cyl((0, 1)), cyl((1, 0)))
    assert abs(cross - 1.0) < 1e-12


def test_extend_scaling_matches_measure_ratio(markov_flat, golden):
    for g in (markov_flat, golden):
        for side in ("u", "s"):
            spec = from_gibbs(g, side)
            words = [
                w
                for n in (1, 2, 3)
                for w in enumerate_cylinders(g.sys, n, side)
            ]
            for a in words:
                for b in words:
                    got = extend_scaling(spec, g.sys, a, b)
                    want = g.measure(a.symbols) / g.measure(b.symbols)
                    assert abs(got - want) < 1e-12


def test_extend_scaling_uniform_counts(uniform_flat):
    spec = from_gibbs(uniform_flat, "u")
    s = extend_scaling(spec, FULL2_FLAT, cyl((0,)), cyl((0, 0)))
    assert abs(s - 2.0) < 1e-14


def test_thirds_realization_spec(thirds_spec):
    assert thirds_spec.domain_kind == "leaf-gap"
    assert thirds_spec.sigma(cyl((0, 0)), gap((0,), 0)) == 1.0
    s = extend_scaling(thirds_spec, FULL2_THIRDS, cyl((0,)), cyl((0, 0)))
    assert abs(s - 3.0) < 1e-14
    g_ratio = extend_scaling(thirds_spec, FULL2_THIRDS, gap((0,), 0), cyl((0, 0)))
    assert abs(g_ratio - 1.0) < 1e-14
    deep = extend_scaling(thirds_spec, FULL2_THIRDS, cyl((0, 0, 1)), cyl((0,)))
    assert abs(deep - 1 / 9) < 1e-14


def test_extend_scaling_rejects_gaps_for_leaf_leaf(markov_flat):
    spec = from_gibbs(markov_flat, "u")
    with pytest.raises(NotInDomain):
        extend_scaling(spec, FULL2_FLAT, gap((0,), 0), cyl((0, 0)))


def test_check_matching_measure_identity(markov_flat, uniform_flat, golden):
    full_chain = MatchingInstance(
        "m-full",
        "u",
        cyl((0,)),
        cyl((1,)),
        (cyl((0, 0)), cyl((0, 1)), cyl((1, 0)), cyl((1, 1))),
        2,
    )
    data = BoundaryData(matching_instances=(full_chain,))
    for g in (markov_flat, uniform_flat):
        spec = from_gibbs(g, "u")
        res = matching_rows(spec, g.sys, data)
        assert len(res) == 1
        assert res[0].residual < 1e-13

    golden_chain = MatchingInstance(
        "m-golden",
        "u",
        cyl((0,)),
        cyl((1,)),
        (cyl((0, 0)), cyl((0, 1)), cyl((1, 0))),
        2,
    )
    spec = from_gibbs(golden, "u")
    res = matching_rows(spec, GOLDEN, BoundaryData(matching_instances=(golden_chain,)))
    assert res[0].residual < 1e-12

    bad = MatchingInstance(
        "m-bad",
        "u",
        cyl((0,)),
        cyl((1,)),
        (cyl((0, 0)), cyl((0, 1)), cyl((1, 0))),
        1,
    )
    res = matching_rows(spec, GOLDEN, BoundaryData(matching_instances=(bad,)))
    assert res[0].residual > 1e-3


def test_check_matching_skips_other_side(markov_flat):
    inst = MatchingInstance(
        "m-s", "s", cyl((0,)), cyl((1,)), (cyl((0, 0)), cyl((1, 0))), 1
    )
    spec = from_gibbs(markov_flat, "u")
    assert matching_rows(spec, FULL2_FLAT, BoundaryData(matching_instances=(inst,))) == []
    assert matching_rows(spec, FULL2_FLAT, BoundaryData()) == []


def test_check_boundary_counts(uniform_flat, markov_flat):
    inst = BoundaryInstance(
        "b1",
        "u",
        cyl((0,)),
        (cyl((1,)),),
        (cyl((1,)), cyl((0,))),
    )
    data = BoundaryData(boundary_instances=(inst,))
    spec = from_gibbs(uniform_flat, "u")
    res = boundary_rows(spec, FULL2_FLAT, data)
    assert abs(res[0].residual - 1.0) < 1e-14

    same = BoundaryInstance(
        "b2",
        "u",
        cyl((0,)),
        (cyl((1,)),),
        (cyl((1,)),),
    )
    res = boundary_rows(spec, FULL2_FLAT, BoundaryData(boundary_instances=(same,)))
    assert res[0].residual == 0.0


def test_check_cylinder_gap(thirds_spec):
    shallow = CylinderGapInstance(
        "cg1",
        "u",
        cyl((0, 0)),
        gap((0,), 0),
        (cyl((0, 1)), gap((0,), 0)),
    )
    deep = CylinderGapInstance(
        "cg2",
        "u",
        cyl((0, 0)),
        gap((0,), 0),
        (cyl((0, 0, 0)), gap((0, 0), 0), cyl((0, 0, 1)), gap((0,), 0)),
    )
    data = BoundaryData(cylindergap_instances=(shallow, deep))
    res = cylinder_gap_rows(thirds_spec, FULL2_THIRDS, data)
    assert [r.ident for r in res] == ["cg1", "cg2"]
    assert all(r.residual < 1e-13 for r in res)


def test_check_cylinder_cylinder_discriminates(markov):
    inst = CylinderCylinderInstance(
        "cc1",
        "u",
        (0, 0),
        (0, 0),
        (0, 1),
        (1, 1),
        ((1, 0), (1, 1)),
        2,
    )
    data = BoundaryData(cylindercylinder_instances=(inst,))
    bern = GibbsMeasure(
        FULL2, bernoulli_potential(FULL2, [Fraction(2, 3), Fraction(1, 3)])
    )
    res = cylinder_cylinder_rows(bern, data)
    assert res[0].residual < 1e-14
    res = cylinder_cylinder_rows(markov, data)
    assert abs(res[0].residual - 15 / 14) < 1e-12


def test_bounded_equivalence_same_measure(markov_flat):
    spec2 = from_gibbs(markov_flat, "u")
    lifted_phi = {}
    lifted_w = {}
    for w in enumerate_cylinders(FULL2_FLAT, 3, "u"):
        a, b, c = w.symbols
        lifted_phi[w.symbols] = markov_flat.potential.phi[(b, c)]
        lifted_w[w.symbols] = MARKOV_ROWS[b][c]
    g3 = GibbsMeasure(
        FULL2_FLAT, potential_from_table(FULL2_FLAT, lifted_phi, lifted_w)
    )
    spec3 = from_gibbs(g3, "u")
    eq, c_n = bounded_equivalence(spec2, spec3, FULL2_FLAT, 6)
    assert eq
    assert c_n < 1e-12
    eq_rev, _ = bounded_equivalence(spec3, spec2, FULL2_FLAT, 6)
    assert eq_rev
    eq_self, c_self = bounded_equivalence(spec2, spec2, FULL2_FLAT, 4)
    assert eq_self and c_self == 0.0


def test_bounded_equivalence_detects_drift(markov_flat, uniform_flat):
    s_m = from_gibbs(markov_flat, "u")
    s_u = from_gibbs(uniform_flat, "u")
    eq, c6 = bounded_equivalence(s_m, s_u, FULL2_FLAT, 6)
    assert not eq
    _, c4 = bounded_equivalence(s_m, s_u, FULL2_FLAT, 4)
    assert c6 - c4 > 0.01
    with pytest.raises(MismatchedSystems):
        bounded_equivalence(s_m, from_gibbs(markov_flat, "s"), FULL2_FLAT, 4)


def test_bounded_solenoid_class(thirds_spec, uniform_flat):
    g = GibbsMeasure(FULL2_THIRDS, uniform_potential(FULL2_THIRDS))
    delta = math.log(2) / math.log(3)
    worst = bounded_solenoid_class_check(thirds_spec, g, delta, 0.0, 6)
    assert worst < 1e-12
    off = bounded_solenoid_class_check(thirds_spec, g, 0.5, 0.0, 6)
    assert off > 1e-2


def test_holder_estimates(markov_flat, uniform_flat):
    s_m = from_gibbs(markov_flat, "u")
    s_u = from_gibbs(uniform_flat, "u")
    assert holder_estimate(s_u) == 0.0
    hm = holder_estimate(s_m)
    assert math.isfinite(hm) and hm >= 0.0
    assert s_m.holder_constant == hm


def test_spec_validate(markov_flat):
    spec = from_gibbs(markov_flat, "u")
    assert spec.validate() == []
    from dataclasses import replace

    bad = replace(spec, values={(cyl((0,)), cyl((1,))): -2.0})
    assert bad.validate()


def test_solenoid_json_round_trip(markov_flat):
    spec = from_gibbs(markov_flat, "s")
    text = solenoid_to_json(spec)
    again = solenoid_from_json(text)
    assert again == spec
    assert solenoid_to_json(again) == text
