"""Interval realizations: lengths, pressure, dimension and eigenvalues.

A ratio source assigns every child descriptor (cylinder or gap) its length
ratio relative to the mother, window-determined past a stabilization
depth.  From such a source this module builds finite-depth length tables,
evaluates the pressure of the weighted window-transition matrix, solves
the dimension equation by bisection, reads off eigenvalues of periodic
points both from lengths and from the measure, and checks the eigenvalue
formula across a matched pair of sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import (
    GapOnDualSide,
    MismatchedSystems,
    MissingPairValue,
    NegativeGap,
    NoRoot,
    NotInDomain,
)
from .gibbs import GibbsMeasure, measure_scaling, perron
from .sft import (
    S_SIDE,
    U_SIDE,
    PeriodicOrbit,
    Seg,
    SftSystem,
    Symbols,
    cyl,
    deep_extend,
    deep_window_of,
    drop_deep,
    enumerate_cylinders,
    opposite,
    periodic_orbits,
    stabilized,
    walk_levels,
)

# Bisection controls for the dimension equation.
DIM_DELTA_TOL = 1e-13
DIM_MAX_STEPS = 200
DIM_DELTA_FLOOR = 1e-9


@dataclass(frozen=True)
class RatioTable:
    """The window table of a ratio source: child descriptors to length ratios.

    `ratios` holds the descriptors whose mother is shallower than
    `window_depth`; deeper descriptors are served through deep-end window
    truncation (see sft.stabilized), so a self-similar family needs only
    its shallow table.  A synthesized table also records the exponent,
    pressure constant and admissibility margin it was built with, and the
    default `depth` of its realization.
    """

    sys: SftSystem
    side: str
    window_depth: int
    ratios: Mapping[Seg, float]
    delta: Optional[float] = None
    pressure: Optional[float] = None
    depth: Optional[int] = None
    margin: Optional[float] = None

    def ratio_of(self, seg: Seg) -> float:
        hit = self.ratios.get(stabilized(seg, self.window_depth, self.side))
        if hit is None:
            raise MissingPairValue(f"no ratio stored for {seg}")
        return hit

    def children_sum(self, m: Symbols) -> float:
        layout = self.sys.layout(self.side)
        return sum(self.ratio_of(s) for s in layout.ordered_children(tuple(m)))


def _ratio_source(x):
    return getattr(x, "ratio", x)


@dataclass(frozen=True)
class TrainTrackRealization:
    """Finite-depth interval lengths for one side of the track.

    `lengths` maps cylinder words (the root included, at length one) to
    interval lengths; `gap_lengths` maps (mother word, ordinal) pairs.
    Deeper segments are lengthed on demand by telescoping the ratio
    source.
    """

    sys: SftSystem
    side: str
    delta: float
    pressure: float
    depth: int
    window_depth: int
    lengths: Mapping[Symbols, float]
    gap_lengths: Mapping[tuple[Symbols, int], float]
    ratio: object

    def _cyl_length(self, word: Symbols) -> float:
        hit = self.lengths.get(word)
        if hit is not None:
            return hit
        if not self.sys.is_admissible(word):
            raise NotInDomain(f"inadmissible word {word}")
        return self._cyl_length(drop_deep(word, self.side)) * self.ratio.ratio_of(cyl(word))

    def length_of(self, seg: Seg) -> float:
        if seg.is_gap:
            hit = self.gap_lengths.get((seg.word, seg.ordinal))
            if hit is not None:
                return hit
            return self._cyl_length(seg.word) * self.ratio.ratio_of(seg)
        return self._cyl_length(seg.word)

    def child_ratio(self, seg: Seg) -> float:
        return self.ratio.ratio_of(seg)


def lengths_from_ratio(
    ratio,
    delta: Optional[float] = None,
    pressure: Optional[float] = None,
    depth: Optional[int] = None,
) -> TrainTrackRealization:
    """Telescope a ratio table into a length table from a unit root.

    `delta`, `pressure` and `depth` default to the table's own fields
    (a synthesized table carries all three).
    """
    sys, side = ratio.sys, ratio.side
    if not sys.has_layout(side):
        raise NotInDomain(f"no layout recorded for the {side!r} side")
    layout = sys.layout(side)
    if delta is None:
        delta = ratio.delta
    if pressure is None:
        pressure = ratio.pressure
    if delta is None or pressure is None:
        raise ValueError("delta and pressure are needed when the source has none")
    if depth is None:
        depth = ratio.depth if ratio.depth is not None else ratio.window_depth + 4
    lengths: dict[Symbols, float] = {(): 1.0}
    gap_lengths: dict[tuple[Symbols, int], float] = {}
    for level in walk_levels(layout, depth):
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
    return TrainTrackRealization(
        sys=sys,
        side=side,
        delta=float(delta),
        pressure=float(pressure),
        depth=depth,
        window_depth=ratio.window_depth,
        lengths=lengths,
        gap_lengths=gap_lengths,
        ratio=ratio,
    )


def additivity_defect(tt: TrainTrackRealization) -> float:
    """Worst gap between a mother's length and the sum of its children."""
    worst = 0.0
    for level in walk_levels(tt.sys.layout(tt.side), tt.depth):
        for m, kids in level:
            total = sum(tt.length_of(seg) for seg in kids)
            worst = max(worst, abs(tt.lengths[m] - total))
    return worst


def _pressure_at(src) -> Callable[[float], float]:
    """The pressure of a ratio source as a function of delta.

    The window-transition pattern and its child ratios are read once; each
    call raises the ratios to delta on the admissible transitions only, so
    the zero pattern stays (0 ** 0 is 1).
    """
    sys, side, wd = src.sys, src.side, src.window_depth
    states = [w.symbols for w in enumerate_cylinders(sys, wd, side)]
    index = {s: i for i, s in enumerate(states)}
    rows: list[int] = []
    cols: list[int] = []
    ratios: list[float] = []
    for i, w in enumerate(states):
        for c in sys.deep_extensions(w, side):
            child = deep_extend(w, c, side)
            rows.append(i)
            cols.append(index[deep_window_of(child, wd, side)])
            ratios.append(src.ratio_of(cyl(child)))

    def pressure(delta: float) -> float:
        T = np.zeros((len(states), len(states)))
        T[rows, cols] = [r**delta for r in ratios]
        lam, _ = perron(T)
        return math.log(lam)

    return pressure


def pressure_of(x, delta: float) -> float:
    """Log spectral radius of the window-transition matrix at exponent delta.

    States are the admissible windows at the source's stabilization depth;
    the transition weight into the deepened window is the child ratio
    raised to delta.
    """
    return _pressure_at(_ratio_source(x))(delta)


class DimensionReport(NamedTuple):
    delta: float
    pressure_residual: float
    iterations: int


def dimension_report(x) -> DimensionReport:
    """Solve pressure_of(x, delta) = 0 by bisection on (0, 1].

    Reports delta = 1.0 (zero iterations) when even the full exponent
    keeps the pressure non-negative (the side fills its interval); raises
    NoRoot when the pressure is already negative at the floor exponent.
    """
    pressure = _pressure_at(_ratio_source(x))
    hi = 1.0
    if pressure(hi) >= 0.0:
        return DimensionReport(1.0, abs(pressure(1.0)), 0)
    lo = DIM_DELTA_FLOOR
    if pressure(lo) <= 0.0:
        raise NoRoot(f"pressure is negative down to delta = {lo}")
    steps = 0
    for _ in range(DIM_MAX_STEPS):
        steps += 1
        mid = 0.5 * (lo + hi)
        if pressure(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < DIM_DELTA_TOL:
            break
    delta = 0.5 * (lo + hi)
    return DimensionReport(delta, abs(pressure(delta)), steps)


def hausdorff_dimension(x) -> float:
    """The root of the pressure equation; see dimension_report."""
    return dimension_report(x).delta


def _periodic_deep_word(rep: Symbols, length: int, side: str) -> Symbols:
    reps = rep * (length // len(rep) + 2)
    return reps[:length] if side == U_SIDE else reps[-length:]


def eigenvalue(tt: TrainTrackRealization, orbit: PeriodicOrbit) -> float:
    """Expansion factor of the periodic point under one period, from lengths.

    The reciprocal of the product of child ratios along one period at the
    stabilized deep end.
    """
    rep, p = orbit.representative, orbit.period
    if not tt.sys.is_admissible(rep + rep):
        raise NotInDomain(f"orbit word {rep} is not admissible")
    src = _ratio_source(tt)
    base = tt.window_depth + p + 2
    prod = 1.0
    for m in range(base + 1, base + p + 1):
        prod *= src.ratio_of(cyl(_periodic_deep_word(rep, m, tt.side)))
    return 1.0 / prod


def _cyclic_window(rep: Symbols, anchor: int, length: int, side: str) -> Symbols:
    p = len(rep)
    if side == U_SIDE:
        return tuple(rep[(anchor + t) % p] for t in range(length))
    return tuple(rep[(anchor - (length - 1) + t) % p] for t in range(length))


def eigenvalue_via_measure(
    g: GibbsMeasure,
    delta: float,
    pressure: float,
    orbit: PeriodicOrbit,
    side: str,
    periods: int = 1,
) -> float:
    """Eigenvalue of a periodic point from the measure scaling function.

    Multiplies the deeper-conditional scaling values around `periods`
    turns of the orbit and applies the exponent -1/delta together with
    the pressure correction.
    """
    rep, p = orbit.representative, orbit.period
    if not g.sys.is_admissible(rep + rep):
        raise NotInDomain(f"orbit word {rep} is not admissible")
    L = max(g.span, 2) + p
    prod = 1.0
    for i in range(p * periods):
        w = _cyclic_window(rep, i, L, side)
        prod *= measure_scaling(g, g.sys.word(w, side))
    return prod ** (-1.0 / delta) * math.exp(-(p * periods) * pressure / delta)


def livsic_sinai_check(
    tt_u: TrainTrackRealization,
    tt_s: TrainTrackRealization,
    p_max: int,
) -> list[tuple[PeriodicOrbit, float]]:
    """Residuals of the eigenvalue formula over all orbits up to p_max.

    For each periodic orbit the two sides must weigh the expansion
    identically: delta * log(eigenvalue) + period * pressure, side by
    side.  Returns one (orbit, residual) row per orbit.
    """
    if tt_u.sys != tt_s.sys:
        raise MismatchedSystems("the two sides realize different systems")
    if tt_u.side != U_SIDE or tt_s.side != S_SIDE:
        raise MismatchedSystems(
            f"expected sides ('u', 's'), got ({tt_u.side!r}, {tt_s.side!r})"
        )
    rows: list[tuple[PeriodicOrbit, float]] = []
    for orbit in periodic_orbits(tt_u.sys, p_max):
        lam_u = eigenvalue(tt_u, orbit)
        lam_s = eigenvalue(tt_s, orbit)
        p = orbit.period
        res = abs(
            tt_s.delta * math.log(lam_s)
            + p * tt_s.pressure
            - tt_u.delta * math.log(lam_u)
            - p * tt_u.pressure
        )
        rows.append((orbit, res))
    return rows


def natural_measure_check(
    tt: TrainTrackRealization,
    g: GibbsMeasure,
) -> tuple[float, float]:
    """Range of nu(I) / (len(I)^delta * e^(-n * pressure)) over all cylinders.

    A tight range certifies that the measure is the natural length-power
    measure of the realization.
    """
    if g.sys != tt.sys:
        raise MismatchedSystems("measure and realization live on different systems")
    lo, hi = math.inf, -math.inf
    for n in range(1, tt.depth + 1):
        discount = math.exp(-n * tt.pressure)
        for w in enumerate_cylinders(tt.sys, n, tt.side):
            val = g.measure(w) / (tt.length_of(cyl(w.symbols)) ** tt.delta * discount)
            lo, hi = min(lo, val), max(hi, val)
    return lo, hi


def dual_pair(g: GibbsMeasure, tt: TrainTrackRealization) -> TrainTrackRealization:
    """Realize the opposite side by the measure itself.

    The dual side must fill its interval (no gap entries in its layout);
    lengths are the cylinder measures, the exponent is one and the
    pressure constant zero, so the natural measure identity is exact.
    """
    sys = tt.sys
    if g.sys != sys:
        raise MismatchedSystems("measure and realization live on different systems")
    dside = opposite(tt.side)
    if not sys.has_layout(dside):
        raise GapOnDualSide(f"the {dside!r} side has no layout to realize")
    if sys.layout(dside).has_gaps:
        raise GapOnDualSide(f"the {dside!r} side has gap room; duality needs none")
    wd = max(g.span, 2)
    ratios: dict[Seg, float] = {}
    for n in range(1, wd + 1):
        for w in enumerate_cylinders(sys, n, dside):
            m = drop_deep(w.symbols, dside)
            nu_m = 1.0 if not m else g.measure(m)
            ratios[cyl(w.symbols)] = g.measure(w) / nu_m
    lengths: dict[Symbols, float] = {(): 1.0}
    for n in range(1, tt.depth + 1):
        for w in enumerate_cylinders(sys, n, dside):
            lengths[w.symbols] = g.measure(w)
    return TrainTrackRealization(
        sys=sys,
        side=dside,
        delta=1.0,
        pressure=0.0,
        depth=tt.depth,
        window_depth=wd,
        lengths=lengths,
        gap_lengths={},
        ratio=RatioTable(sys, dside, wd, ratios),
    )
