"""Interval realizations: lengths, pressure, dimension and eigenvalues.

A ratio source assigns every child descriptor (cylinder or gap) its length
ratio relative to the mother, window-determined past a stabilization
depth.  From such a source this module builds finite-depth length tables,
evaluates the pressure of the weighted window-transition matrix, solves
the dimension equation by bisection, reads off eigenvalues of periodic
points both from lengths and from the measure, and checks the eigenvalue
formula across a matched pair of sides.

A bisection step needs only the sign of the pressure.  Away from the root
a Collatz-Wielandt bound from a carried positive vector decides it; a full
Perron solve runs only where the bound cannot, near the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from sys import float_info
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .errors import (
    GapOnDualSide,
    LengthUnderflow,
    MismatchedSystems,
    MissingPairValue,
    NegativeGap,
    NoRoot,
    NotInDomain,
)
from .gibbs import GibbsMeasure, perron
from .sft import (
    S_SIDE,
    U_SIDE,
    PeriodicOrbit,
    Seg,
    SftSystem,
    Symbols,
    Word,
    cyl,
    deep_window_of,
    drop_deep,
    enumerate_cylinders,
    opposite,
    periodic_orbits,
    stabilized,
    window_transitions,
)

# Bisection controls for the dimension equation.
DIM_DELTA_TOL = 1e-13
DIM_MAX_STEPS = 200
DIM_DELTA_FLOOR = 1e-9
# A bisection step's sign is certified when every Collatz-Wielandt quotient
# clears 1 by CW_MARGIN, after at most CW_STEPS power steps.  The margin
# exceeds the rounding of the quotients and the error of perron's lambda
# (see gibbs.perron), so a certified sign is the one lambda gives.
CW_MARGIN = 1e-9
CW_STEPS = 4


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

    @cached_property
    def _transitions(self) -> tuple[tuple[int, ...], tuple[int, ...], list[float], int]:
        """The window-transition pattern at `window_depth`: rows, columns and
        child ratios of the admissible moves, and the number of windows."""
        windows, moves = window_transitions(self.sys, self.window_depth, self.side)
        rows, cols, words = zip(*moves)
        return rows, cols, [self.ratio_of(cyl(w)) for w in words], len(windows)

    @cached_property
    def _cylinder_ratios(self) -> dict[Symbols, float]:
        """Cylinder entries by word; a deeper cylinder reads its deep-end window."""
        return {seg.word: r for seg, r in self.ratios.items() if not seg.is_gap}


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
    ratio: RatioTable

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


class WindowWalk:
    """The tree of one side of a ratio source (a RatioTable, or anything
    with its sys, side, window_depth and ratio_of), walked by window state.

    A node's state is its deep-end window of min(len, window_depth - 1)
    symbols (one at least, below the root): it fixes each child's ratio
    (see sft.stabilized) and state.  A state's children are read once, into
    `moves` as (is gap, symbol or gap ordinal, ratio, state or -1), when a
    mother in that state is first expanded.  That mother is the window
    itself, so a missing or bad ratio raises as a word-by-word walk would.
    """

    def __init__(self, ratio) -> None:
        self.ratio = ratio
        self.moves: list[tuple[bool, int, float, int]] = []
        self.spans: list[Optional[range]] = [None]  # per state, the root 0
        self._ids: dict[Symbols, int] = {(): 0}
        self._windows: list[Symbols] = [()]
        self._ascending: list[list[int]] = [[]]  # cylinder moves by symbol

    def children(self, state: int) -> range:
        """Positions in `moves` of a state's children, in layout order."""
        if self.spans[state] is not None:
            return self.spans[state]
        m, side, start = self._windows[state], self.ratio.side, len(self.moves)
        for seg in self.ratio.sys.layout(side).ordered_children(m):
            r = self.ratio.ratio_of(seg)
            if seg.is_gap:
                if r < 0.0:
                    raise NegativeGap(f"gap ratio {r!r} under {m}")
                self.moves.append((True, seg.ordinal, r, -1))
                continue
            if r < 0.0 or not math.isfinite(r):
                raise ValueError(f"bad cylinder ratio {r!r} at {seg.word}")
            window = deep_window_of(seg.word, max(self.ratio.window_depth - 1, 1), side)
            if window not in self._ids:
                self._ids[window] = len(self._windows)
                self._windows.append(window)
                self.spans.append(None)
                self._ascending.append([])
            key = seg.word[-1 if side == U_SIDE else 0]
            self.moves.append((False, key, r, self._ids[window]))
        span = self.spans[state] = range(start, len(self.moves))
        cyls = [i for i in span if not self.moves[i][0]]
        self._ascending[state] = sorted(cyls, key=lambda i: self.moves[i][1])
        return span

    def levels(self, depth: int, root: Any, extend: Callable) -> Iterator[list[tuple]]:
        """The nodes of depth 0 to `depth` as (label, length, state, move)
        lists, one per level, each level in enumerate_cylinders order.

        The root has label `root`, length 1 and move -1; a child has label
        extend(mother's label, symbol) and length mother's length * ratio.
        The children of each level but the last are read before it is
        yielded.
        """
        u = self.ratio.side == U_SIDE
        level = [(root, 1.0, 0, -1)]
        for _ in range(depth):
            # lexicographic order: on "u" each mother's children by symbol,
            # on "s" a stable bucketing by the new first symbol
            buckets: list[list[tuple]] = [[] for _ in range(1 if u else self.ratio.sys.k)]
            for label, base, state, _ in level:
                self.children(state)
                for i in self._ascending[state]:
                    _, key, r, j = self.moves[i]
                    buckets[0 if u else key].append((extend(label, key), base * r, j, i))
            yield level
            level = [node for bucket in buckets for node in bucket]
        yield level

    def census(self, depth: int) -> list[dict[int, int]]:
        """Nodes per state at depths 0 to `depth`, each level's states in the
        order `levels` first meets them.  Reads the children of every state
        above the last level, in the order `levels` does.

        Raises LengthUnderflow when a product of positive ratios, a node's
        length or that of a gap under a node above the last level, falls
        below the normal float range.  A state's least such length is exact,
        as rounding is monotone: the least base * r is the least base times r.
        """
        u, out, least = self.ratio.side == U_SIDE, [{0: 1}], {0: 1.0}
        for n in range(depth):
            level: dict[int, int] = {}
            for key in [None] if u else range(self.ratio.sys.k):
                for state, count in out[-1].items():
                    self.children(state)
                    for i in self._ascending[state]:
                        _, a, _, j = self.moves[i]
                        if u or a == key:
                            level[j] = level.get(j, 0) + count
            out.append(level)
            below: dict[int, float] = {}
            low = math.inf
            for state, base in least.items():
                for i in self.spans[state]:
                    gap, _, r, j = self.moves[i]
                    if r > 0.0:
                        low = min(low, base * r)
                        if not gap:
                            below[j] = min(below.get(j, math.inf), base * r)
            if low < float_info.min:
                raise LengthUnderflow(f"length {low!r} at depth {n + 1} is below the float range")
            least = below
        return out


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
    walk = WindowWalk(ratio)
    walk.census(depth)  # raises LengthUnderflow before any length is stored
    extend = (lambda w, a: w + (a,)) if side == U_SIDE else (lambda w, a: (a,) + w)
    for level in islice(walk.levels(depth, (), extend), depth):
        for m, base, state, _ in level:
            for i in walk.children(state):
                gap, key, r, _ = walk.moves[i]
                if gap:
                    gap_lengths[(m, key)] = base * r
                else:
                    lengths[extend(m, key)] = base * r
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
    for m, length in tt.lengths.items():
        if len(m) < tt.depth:
            kids = tt.sys.layout(tt.side).ordered_children(m)
            worst = max(worst, abs(length - sum(map(tt.length_of, kids))))
    return worst


def _transfer(x, delta: float) -> np.ndarray:
    """The window-transition matrix of a ratio source at exponent delta."""
    rows, cols, ratios, n = getattr(x, "ratio", x)._transitions
    T = np.zeros((n, n))
    T[rows, cols] = [r**delta for r in ratios]
    return T


def pressure_of(x, delta: float) -> float:
    """Log spectral radius of the window-transition matrix at exponent delta.

    States are the admissible windows at the source's stabilization depth;
    the transition weight into the deepened window is the child ratio
    raised to delta, on the admissible transitions only (0 ** 0 is 1, so
    the zero pattern stays).  The pattern and its ratios are derived once
    per table, so a table's `ratios` must not change after its first use.
    """
    lam, _ = perron(_transfer(x, delta))
    return math.log(lam)


def _certified_sign(T: np.ndarray, v: np.ndarray) -> Optional[bool]:
    """Whether rho(T) > 1, when a Collatz-Wielandt bound decides it.

    For a positive v, min_i (Tv)_i / v_i <= rho(T) <= max_i (Tv)_i / v_i.
    Up to CW_STEPS power steps are taken from v; each step that decides
    nothing moves v, in place, to the next iterate summing to one.  True
    when every quotient exceeds 1 + CW_MARGIN, False when every one is
    below 1 - CW_MARGIN, None when neither holds or a quotient is zero,
    negative or not finite.
    """
    for _ in range(CW_STEPS):
        y = T @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            q = y / v
        low, high = float(q.min()), float(q.max())
        if not (low > 0.0 and math.isfinite(high)):
            return None
        if low > 1.0 + CW_MARGIN:
            return True
        if high < 1.0 - CW_MARGIN:
            return False
        v[:] = y / float(y.sum())
    return None


class DimensionReport(NamedTuple):
    delta: float
    pressure_residual: float
    iterations: int


def dimension_report(x) -> DimensionReport:
    """Solve pressure_of(x, delta) = 0 by bisection on (0, 1].

    Reports delta = 1.0 (zero iterations) when even the full exponent
    keeps the pressure non-negative (the side fills its interval); raises
    NoRoot when the pressure is already negative at the floor exponent.

    A step moves lo up when rho(T(mid)) > 1.  _certified_sign first tries
    to decide that from a positive vector carried from step to step
    (uniform at the start): every Collatz-Wielandt quotient above
    1 + CW_MARGIN, or every one below 1 - CW_MARGIN, settles it.  Only
    otherwise does pressure_of run a full Perron solve.  perron's lambda is
    within 1e-12 of rho, relative, on a vector accurate entry by entry, and
    the quotients are rounded by at most (n + 2) * EPS; both are far below
    CW_MARGIN = 1e-9, so a certified step takes the branch a full solve
    would take, and the report equals that of a full solve at every step,
    bit for bit.  (On a vector perron accepts against its largest entry,
    its stated bound on lambda is PERRON_REL_TOL times the entries' spread;
    on random matrices with entries e^-10 to e^10 its lambda stays within
    1e-14.)  Near the root |rho - 1| <= CW_MARGIN and no bound can decide:
    16 of the 44 steps on `horseshoe` take full solves.

    A certified step runs no Perron solve, so it does not raise
    NonConvergentEigensolve where a full solve at that mid would; no full
    solve raised on the builtins or on the benchmark's generated systems
    of seeds 1 to 5.
    """
    hi = 1.0
    full = pressure_of(x, hi)
    if full >= 0.0:
        return DimensionReport(1.0, abs(full), 0)
    lo = DIM_DELTA_FLOOR
    if pressure_of(x, lo) <= 0.0:
        raise NoRoot(f"pressure is negative down to delta = {lo}")
    n = getattr(x, "ratio", x)._transitions[3]
    v = np.full(n, 1.0 / n)
    steps = 0
    for _ in range(DIM_MAX_STEPS):
        steps += 1
        mid = 0.5 * (lo + hi)
        above = _certified_sign(_transfer(x, mid), v)
        if above is None:
            above = pressure_of(x, mid) > 0.0
        if above:
            lo = mid
        else:
            hi = mid
        if hi - lo < DIM_DELTA_TOL:
            break
    delta = 0.5 * (lo + hi)
    return DimensionReport(delta, abs(pressure_of(x, delta)), steps)


def eigenvalue(tt: TrainTrackRealization, orbit: PeriodicOrbit) -> float:
    """Expansion factor of the periodic point under one period, from lengths.

    The reciprocal of the product of child ratios along one period at the
    stabilized deep end, each the table entry of its deep-end window.
    """
    rep, p = orbit.representative, orbit.period
    if not tt.sys.is_admissible(rep + rep):
        raise NotInDomain(f"orbit word {rep} is not admissible")
    wd, u, windows = tt.window_depth, tt.side == U_SIDE, tt.ratio._cylinder_ratios
    ring, base, prod = rep * (wd // p + 2), wd + p + 2, 1.0
    for m in range(base + 1, base + p + 1):
        # the window ends the length-m word of rep^Z from 0 ("u") or to -1 ("s")
        start = (m - wd) % p if u else -m % p
        r = windows.get(ring[start : start + wd])
        if r is None:
            word = _cyclic_window(rep, 0 if u else -1, m, tt.side)
            raise MissingPairValue(f"no ratio stored for {cyl(word)}")
        prod *= r
    return 1.0 / prod


def _cyclic_window(rep: Symbols, anchor: int, length: int, side: str) -> Symbols:
    """The `length` symbols of the periodic word rep^Z that start at `anchor`
    ("u") or end there ("s")."""
    start = (anchor if side == U_SIDE else anchor - length + 1) % len(rep)
    return (rep * ((start + length) // len(rep) + 1))[start : start + length]


def eigenvalue_via_measure(
    g: GibbsMeasure,
    delta: float,
    pressure: float,
    orbit: PeriodicOrbit,
    side: str,
    periods: int = 1,
) -> float:
    """Eigenvalue of a periodic point from the measure (Livsic-Sinai).

    A turn of the orbit one block longer than the period has measure
    pi_b times the p factors f = T[i][j] u[j] / (u[i] lam) of its moves,
    and its first block b has pi_b; u cancels around the cycle, so their
    quotient is the orbit weight exp(S_p phi) / lam ** p on either side;
    raised to -periods/delta, with the pressure correction.
    """
    rep, p = orbit.representative, orbit.period
    if not g.sys.is_admissible(rep + rep):
        raise NotInDomain(f"orbit word {rep} is not admissible")
    # every window of rep^Z is admissible once rep + rep is
    turn = Word(_cyclic_window(rep, 0, p + g.block_len, U_SIDE), side)
    weight = g.measure(turn) / g.measure(turn.symbols[: g.block_len])
    return weight ** (-periods / delta) * math.exp(-(p * periods) * pressure / delta)


def livsic_sinai_check(
    tt_u: TrainTrackRealization,
    tt_s: TrainTrackRealization,
    p_max: int,
) -> list[tuple[PeriodicOrbit, float, float, float]]:
    """The eigenvalue formula over all orbits up to p_max.

    For each periodic orbit the two sides must weigh the expansion
    identically: delta * log(eigenvalue) + period * pressure, side by
    side.  Returns one (orbit, lam_u, lam_s, residual) row per orbit.
    """
    if tt_u.sys != tt_s.sys:
        raise MismatchedSystems("the two sides realize different systems")
    if tt_u.side != U_SIDE or tt_s.side != S_SIDE:
        raise MismatchedSystems(
            f"expected sides ('u', 's'), got ({tt_u.side!r}, {tt_s.side!r})"
        )
    rows = []
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
        rows.append((orbit, lam_u, lam_s, res))
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
