"""Acceptance gate: one test per numbered criterion, at the stated
tolerance and runtime budget.  Run with -v to get one pass/fail line per
criterion."""

from __future__ import annotations

import dataclasses
import math
import random
import time

import pytest

from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.cocycle import (
    CocycleGapPair,
    MeasureLengthCocycle,
    cocycle_gap_rows,
    constant_pair,
    synthesize_ratio,
)
from sftgeom.errors import InadmissiblePair
from sftgeom.gibbs import (
    GibbsMeasure,
    dual_measure_ratio,
    markov_potential,
    measure_scaling,
)
from sftgeom.realize import (
    dimension_report,
    eigenvalue,
    eigenvalue_via_measure,
    lengths_from_ratio,
    livsic_sinai_check,
)
from sftgeom.sft import U_SIDE, cyl, enumerate_cylinders, gap, periodic_orbits
from sftgeom.solenoid import (
    boundary_rows,
    cylinder_cylinder_rows,
    cylinder_gap_rows,
    from_gibbs,
    from_realization,
    bounded_equivalence,
    matching_rows,
)
from test_gibbs import ratio_decomposition_residual

DIM_THIRD = math.log(2.0) / math.log(3.0)
DIM_HORSE = math.log(2.0) / math.log(2.5)
MARKOV_ROWS = [[0.7, 0.3], [0.4, 0.6]]


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def check(self) -> None:
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.seconds, f"runtime {elapsed:.2f}s over budget {self.seconds}s"


def test_criterion_1_gibbs_normalization_and_scaling_sums():
    budget = _Budget(1.0)
    for name in BUILTIN_NAMES:
        b = builtin(name)
        g, system = b.measure, b.sys
        for n in range(1, 11):
            words = enumerate_cylinders(system, n, U_SIDE)
            assert abs(sum(g.measure(w) for w in words) - 1.0) < 1e-12
        for n in range(max(g.span - 1, 1), 10):
            for w in enumerate_cylinders(system, n, U_SIDE):
                exts = [(a,) + w.symbols for a in system.predecessors(w.symbols[0])]
                s = sum(measure_scaling(g, system.word(e, U_SIDE)) for e in exts)
                assert abs(s - 1.0) < 1e-12
    budget.check()


def test_criterion_2_ratio_decomposition():
    budget = _Budget(5.0)
    horse = builtin("horseshoe")
    measures = [
        horse.measure,
        GibbsMeasure(horse.sys, markov_potential(horse.sys, MARKOV_ROWS)),
    ]
    for g in measures:
        for side in ("u", "s"):
            for n in (2, 3):
                for c in enumerate_cylinders(g.sys, n, side):
                    residuals = [
                        ratio_decomposition_residual(g, c, depth)
                        for depth in range(2, 7)
                    ]
                    assert residuals[-1] < 1e-9
                    for shallower, deeper in zip(residuals, residuals[1:]):
                        assert deeper <= shallower + 1e-15
    budget.check()


def test_criterion_3_bowen_dimension():
    budget = _Budget(1.0)
    rep = dimension_report(builtin("cantor-third").u.realization)
    assert abs(rep.delta - DIM_THIRD) < 1e-9
    assert rep.pressure_residual < 1e-10
    rep = dimension_report(builtin("horseshoe").s.realization)
    assert abs(rep.delta - DIM_HORSE) < 1e-9
    assert rep.pressure_residual < 1e-10
    budget.check()


def test_criterion_4_eigenvalue_agreement():
    budget = _Budget(10.0)
    configs = [
        ("cantor-third", "u", DIM_THIRD),
        ("horseshoe", "u", DIM_HORSE),
        ("da-attractor-toy", "s", 0.5),
    ]
    for name, side, delta in configs:
        b = builtin(name)
        synth = synthesize_ratio(b.measure, constant_pair(side), delta, 0.0, 8)
        tt = lengths_from_ratio(synth)
        worst = 0.0
        for orb in periodic_orbits(b.sys, 8):
            lam_r = eigenvalue(tt, orb)
            lam_m = eigenvalue_via_measure(b.measure, delta, 0.0, orb, side)
            worst = max(worst, abs(math.log(lam_r) - math.log(lam_m)))
        assert worst < 1e-9, f"{name}: worst log gap {worst}"
    budget.check()


def test_criterion_5_livsic_sinai_formula():
    budget = _Budget(10.0)
    for name in BUILTIN_NAMES:
        b = builtin(name)
        rows = livsic_sinai_check(b.u.realization, b.s.realization, 8)
        assert rows
        assert max(res for *_, res in rows) < 1e-10, name
    # negative control: a u side rebuilt over a different measure
    horse = builtin("horseshoe")
    other = GibbsMeasure(horse.sys, markov_potential(horse.sys, MARKOV_ROWS))
    synth = synthesize_ratio(other, constant_pair("u"), DIM_HORSE, 0.0, 8)
    tt_u = lengths_from_ratio(synth)
    rows = livsic_sinai_check(tt_u, horse.s.realization, 8)
    assert max(res for *_, res in rows) > 1e-2
    budget.check()


def test_criterion_6_cocycle_gap_synthesis():
    budget = _Budget(5.0)
    toy = builtin("da-attractor-toy")
    synth = synthesize_ratio(toy.measure, constant_pair("s"), 0.5, 0.0, 8)
    assert synth.margin > 0.0
    for n in range(8):
        mothers = (
            [()]
            if n == 0
            else [w.symbols for w in enumerate_cylinders(toy.sys, n, "s")]
        )
        for m in mothers:
            assert abs(synth.children_sum(m) - 1.0) < 1e-12
    with pytest.raises(InadmissiblePair):
        synthesize_ratio(toy.measure, constant_pair("s"), 1.0, 0.0, 4)
    budget.check()


def test_criterion_7_bounded_equivalence_dichotomy():
    budget = _Budget(5.0)
    toy = builtin("da-attractor-toy")
    plain = synthesize_ratio(toy.measure, constant_pair("s"), 0.5, 0.0, 8)
    kappa = MeasureLengthCocycle("s", {(): 1.0, (0,): 1.0, (1,): 1.2})
    varied_pair = CocycleGapPair(kappa, constant_pair("s").gap_ratios)
    varied = synthesize_ratio(toy.measure, varied_pair, 0.5, 0.0, 8)
    spec_a = from_realization(lengths_from_ratio(plain))
    spec_b = from_realization(lengths_from_ratio(varied))
    bounded, c_full = bounded_equivalence(spec_a, spec_b, toy.sys, 6)
    assert bounded
    assert math.isfinite(c_full) and c_full > 0.0
    # different measures: the gap between the solenoids grows with depth
    other = GibbsMeasure(toy.sys, markov_potential(toy.sys, MARKOV_ROWS))
    spec_bern = from_gibbs(toy.measure, "u")
    spec_mark = from_gibbs(other, "u")
    bounded, _ = bounded_equivalence(spec_bern, spec_mark, toy.sys, 6)
    assert not bounded
    growth = []
    for n_max in (4, 5, 6):
        _, c = bounded_equivalence(spec_bern, spec_mark, toy.sys, n_max)
        growth.append(c)
    assert all(b - a > 0.01 for a, b in zip(growth, growth[1:]))
    budget.check()


def test_criterion_8_condition_checkers():
    budget = _Budget(5.0)
    golden = builtin("golden-anosov")
    for bs in (golden.u, golden.s):
        spec = from_realization(bs.realization)
        rows = matching_rows(spec, golden.sys) + boundary_rows(spec, golden.sys)
        assert rows
        assert max(r.residual for r in rows) < 1e-12
    toy = builtin("da-attractor-toy")
    spec_s = from_realization(toy.s.realization)
    rows = cylinder_gap_rows(spec_s, toy.sys)
    assert len(rows) == 4 and max(r.residual for r in rows) < 1e-10
    rows = cylinder_cylinder_rows(toy.measure)
    assert len(rows) == 4 and max(r.residual for r in rows) < 1e-10
    rows = cocycle_gap_rows(toy.measure, toy.s.pair, 0.5, 0.0, depth=8)
    assert rows and max(r.residual for r in rows) < 1e-10

    # ten-percent perturbations must be seen
    gspec = from_realization(golden.u.realization)
    key = (cyl((0,)), cyl((1,)))
    values = dict(gspec.values)
    values[key] = values[key] * 1.1
    perturbed = dataclasses.replace(gspec, values=values)
    assert max(r.residual for r in matching_rows(perturbed, golden.sys)) > 1e-3

    key = (cyl((0, 0)), gap((0,)))
    values = dict(spec_s.values)
    values[key] = values[key] * 1.1
    perturbed = dataclasses.replace(spec_s, values=values)
    assert max(r.residual for r in cylinder_gap_rows(perturbed, toy.sys)) > 1e-3

    kappa = MeasureLengthCocycle("s", {(): 1.0, (0,): 1.0, (1,): 1.1})
    bad_pair = CocycleGapPair(kappa, toy.s.pair.gap_ratios)
    rows = cocycle_gap_rows(toy.measure, bad_pair, 0.5, 0.0, depth=6)
    assert max(r.residual for r in rows) > 1e-3

    other = GibbsMeasure(toy.sys, markov_potential(toy.sys, MARKOV_ROWS))
    rows = cylinder_cylinder_rows(other)
    assert max(r.residual for r in rows) > 1e-3
    budget.check()


def test_criterion_9_duality_involution():
    budget = _Budget(2.0)
    rng = random.Random(20260816)
    for name in ("horseshoe", "da-attractor-toy"):
        g = builtin(name).measure
        checked = 0
        while checked < 20:
            side = rng.choice(("u", "s"))
            n_i, n_k = rng.randint(1, 4), rng.randint(1, 4)
            words_i = enumerate_cylinders(g.sys, n_i, side)
            words_k = enumerate_cylinders(g.sys, n_k, side)
            i = rng.choice(words_i)
            ks = [k for k in words_k if k.pivot == i.pivot]
            if not ks:
                continue
            k = rng.choice(ks)
            m_dual = rng.randint(1, 3)
            through_dual = dual_measure_ratio(g, i, k, side, m_dual)
            back = dual_measure_ratio(g, k, i, side, m_dual)
            direct = g.measure(i) / g.measure(k)
            assert abs(through_dual - direct) < 1e-10
            assert abs(through_dual * back - 1.0) < 1e-10
            checked += 1
    budget.check()
