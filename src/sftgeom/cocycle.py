"""Cocycle-gap pairs and the synthesis of ratio functions from a measure.

A realized family of cylinder lengths deviates from pure measure scaling by
a multiplicative cocycle: the per-refinement factor is the ratio of a
window-determined level function between a word and its mother.  Together
with a gap ratio function (relative sizes of sibling gaps) and a measure,
a target dimension and a pressure constant, the cocycle determines the
child ratios of a length realization.  The leftover mass under each mother
is distributed among that mother's gaps, so the synthesized ratios sum to
one under every mother by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    DepthTooShallow,
    InadmissiblePair,
    MissingBoundaryData,
    MissingPairValue,
    NotInDomain,
)
from .gibbs import GibbsMeasure
from .realize import RatioTable
from .solenoid import ConditionRow
from .sft import (
    SIDES,
    BoundaryData,
    Seg,
    Symbols,
    Word,
    cyl,
    deep_extend,
    deep_window_of,
    drop_deep,
    enumerate_cylinders,
    json_int,
    opposite,
    pair_value,
)

# A synthesized child mass this close to (or past) the full unit interval
# leaves no usable gap room.
MIN_MASS_MARGIN = 1e-9
# e^x is a finite, nonzero float for every |x| below this.
MAX_EXPONENT = 709.78

# Identity tolerance for gap ratio tables (reciprocity and two-step
# composition across stored entries).
GAP_TABLE_TOL = 1e-9


def _descriptor_symbols(x: Union[Word, Sequence[int]], side: str) -> Symbols:
    if isinstance(x, Word):
        if x.side != side:
            raise NotInDomain(f"descriptor is a {x.side!r} word, table is {side!r}")
        return x.symbols
    return tuple(x)


def _word_str(syms: Symbols) -> str:
    return ",".join(str(s) for s in syms)


@dataclass(frozen=True)
class MeasureLengthCocycle:
    """Window-determined level table for the length-to-measure deviation.

    `table` maps deep-end windows (including the root `()`) to positive
    levels.  The multiplicative factor attached to one refinement step is
    the level ratio between a word and its mother; products of factors
    around a periodic orbit telescope to one exactly.
    """

    side: str
    table: Mapping[Symbols, float]

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        clean: dict[Symbols, float] = {}
        for key, val in self.table.items():
            win = tuple(int(s) for s in key)
            fval = float(val)
            if not (fval > 0.0 and math.isfinite(fval)):
                raise ValueError(f"level at window {win} must be positive, got {val!r}")
            clean[win] = fval
        if () not in clean:
            raise ValueError("level table needs a root () entry")
        object.__setattr__(self, "table", clean)

    @property
    def depth(self) -> int:
        return max(len(w) for w in self.table)

    def window(self, x: Union[Word, Sequence[int]]) -> Symbols:
        return deep_window_of(_descriptor_symbols(x, self.side), self.depth, self.side)

    def level(self, x: Union[Word, Sequence[int]]) -> float:
        win = self.window(x)
        try:
            return self.table[win]
        except KeyError:
            raise MissingPairValue(f"level table has no window ({_word_str(win)})") from None

    def factor(self, x: Union[Word, Sequence[int]]) -> float:
        """Deviation factor of one refinement step: level(w) / level(mother w)."""
        syms = _descriptor_symbols(x, self.side)
        if not syms:
            raise NotInDomain("the root has no refinement step")
        return self.level(syms) / self.level(drop_deep(syms, self.side))


def constant_cocycle(side: str) -> MeasureLengthCocycle:
    """The trivial cocycle: every refinement factor equals one."""
    return MeasureLengthCocycle(side, {(): 1.0})


GapKey = tuple[Symbols, int]


@dataclass(frozen=True)
class GapRatios:
    """Ratios between gap lengths, keyed by truncated mother windows.

    A gap is named by its mother's deep-end window (at most `depth` symbols)
    and its ordinal within the mother.  `table` holds one direction per
    pair; the reverse is served as the reciprocal.  `constant` short-cuts
    the whole table (a constant ratio function, typically 1.0).
    """

    side: str
    depth: int
    table: Mapping[tuple[GapKey, GapKey], float]
    constant: Optional[float] = None

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        if self.depth < 0:
            raise ValueError("window depth must be non-negative")
        if self.constant is not None and not (
            self.constant > 0.0 and math.isfinite(self.constant)
        ):
            raise ValueError(f"constant ratio must be positive, got {self.constant!r}")
        clean: dict[tuple[GapKey, GapKey], float] = {}
        for (a, b), val in self.table.items():
            ka = (tuple(int(s) for s in a[0]), int(a[1]))
            kb = (tuple(int(s) for s in b[0]), int(b[1]))
            if max(len(ka[0]), len(kb[0])) > self.depth:
                raise ValueError(f"table key deeper than depth {self.depth}: {a} / {b}")
            fval = float(val)
            if not (fval > 0.0 and math.isfinite(fval)):
                raise ValueError(f"gap ratio {a}:{b} must be positive, got {val!r}")
            clean[(ka, kb)] = fval
        object.__setattr__(self, "table", clean)

    def descriptor(self, g: Seg) -> GapKey:
        if not g.is_gap:
            raise NotInDomain(f"gap ratios take gap descriptors, got {g.kind!r}")
        return (deep_window_of(g.word, self.depth, self.side), g.ordinal)

    def ratio(self, a: Seg, b: Seg) -> float:
        if self.constant is not None:
            return self.constant
        da, db = self.descriptor(a), self.descriptor(b)
        hit = pair_value(self.table, da, db)
        if hit is None:
            raise MissingPairValue(f"no gap ratio stored for {da} : {db}")
        return hit

    def validate(self, tol: float = GAP_TABLE_TOL) -> bool:
        """Multiplicative consistency of the stored entries.

        Checks reciprocity whenever both directions are stored and the
        two-step composition identity on every resolvable triple.
        """
        if self.constant is not None:
            return True
        descs = sorted({d for key in self.table for d in key})
        for a in descs:
            for b in descs:
                ab = pair_value(self.table, a, b)
                if ab is None:
                    continue
                ba = pair_value(self.table, b, a)
                if ba is None or abs(ab * ba - 1.0) > tol:
                    return False
                for c in descs:
                    bc, ac = pair_value(self.table, b, c), pair_value(self.table, a, c)
                    if bc is None or ac is None:
                        continue
                    if abs(ac - ab * bc) > tol * max(1.0, ac):
                        return False
        return True


def constant_gap_ratios(side: str) -> GapRatios:
    """All gaps under one mother share their length."""
    return GapRatios(side, 0, {}, constant=1.0)


@dataclass(frozen=True)
class CocycleGapPair:
    """A deviation cocycle and a gap ratio function on the same side."""

    cocycle: MeasureLengthCocycle
    gap_ratios: GapRatios

    def __post_init__(self) -> None:
        if self.cocycle.side != self.gap_ratios.side:
            raise NotInDomain(
                f"cocycle side {self.cocycle.side!r} does not match "
                f"gap ratio side {self.gap_ratios.side!r}"
            )

    @property
    def side(self) -> str:
        return self.cocycle.side


def constant_pair(side: str) -> CocycleGapPair:
    return CocycleGapPair(constant_cocycle(side), constant_gap_ratios(side))


def _mass_boost(pressure: float, delta: float) -> float:
    """The factor e^(pressure/delta) on every synthesized cylinder ratio;
    cocycle_gap_rows divides it back out."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if not abs(pressure / delta) < MAX_EXPONENT:
        raise InadmissiblePair(f"e^(pressure/delta) is out of range at {pressure!r}/{delta!r}")
    return math.exp(pressure / delta)


def validate_cocycle(
    cocycle: MeasureLengthCocycle,
    g: GibbsMeasure,
    delta: float,
    pressure: float,
) -> tuple[bool, float]:
    """Check that synthesized child mass stays strictly below one.

    Under every mother the cylinder children will receive the mass
    factor(C) * (nu(C)/nu(W))^(1/delta) * e^(pressure/delta).  Gap room
    exists exactly when these sums stay below one; the sums are
    window-determined, so checking mothers up to the stabilization depth
    covers all of them.  Returns (ok, worst margin).
    """
    boost = _mass_boost(pressure, delta)
    sys, side = g.sys, cocycle.side
    inv = 1.0 / delta
    top = max(cocycle.depth, g.span - 1, 1)
    worst = math.inf
    for n in range(top + 1):
        for m in ([w.symbols for w in enumerate_cylinders(sys, n, side)] if n else [()]):
            nu_m = 1.0 if not m else g.measure(m)
            if nu_m <= 0.0:
                continue
            mass = 0.0
            for c in sys.deep_extensions(m, side):
                child = deep_extend(m, c, side)
                mass += cocycle.factor(child) * (g.measure(child) / nu_m) ** inv * boost
            worst = min(worst, 1.0 - mass)
    return (worst > MIN_MASS_MARGIN, worst)


# Old name of the synthesized table; perfbench/tracer.py counts ratio_of calls through it.
SynthesizedRatio = RatioTable


def _window_depth(pair: CocycleGapPair, g: GibbsMeasure) -> int:
    return max(pair.cocycle.depth, pair.gap_ratios.depth, g.span - 1, 1) + 1


def synthesize_ratio(
    g: GibbsMeasure,
    pair: CocycleGapPair,
    delta: float,
    pressure: float,
    depth: int,
) -> RatioTable:
    """Build the ratio function determined by (pair, measure, delta, pressure).

    Cylinder children take factor(C) * (nu(C)/nu(W))^(1/delta) *
    e^(pressure/delta) with nu(()) = 1; the leftover mass under each mother
    is split among its gaps in proportion to the gap ratio function.  The
    target side must have gap room, and the cylinder mass must stay below
    one everywhere, otherwise the data admits no gap realization.

    Past the window depth the ratios are window-determined, so the table
    stores only the children of mothers shallower than it; `depth` is the
    default depth of the table's realization.
    """
    sys, side = g.sys, pair.side
    if not sys.has_layout(side) or not sys.layout(side).has_gaps:
        raise InadmissiblePair(f"ratio synthesis needs gap room on the {side!r} side")
    wd = _window_depth(pair, g)
    if depth < wd:
        raise DepthTooShallow(f"synthesis depth {depth} is below the window depth {wd}")
    ok, margin = validate_cocycle(pair.cocycle, g, delta, pressure)
    if not ok:
        raise InadmissiblePair(
            f"cylinder mass reaches one at some window (margin {margin:.3g}); "
            "nothing is left for the gaps"
        )
    layout = sys.layout(side)
    inv = 1.0 / delta
    boost = _mass_boost(pressure, delta)
    ratios: dict[Seg, float] = {}
    for n in range(wd):
        for m in ([w.symbols for w in enumerate_cylinders(sys, n, side)] if n else [()]):
            nu_m = 1.0 if not m else g.measure(m)
            if nu_m <= 0.0:
                continue
            mass = 0.0
            gaps: list[Seg] = []
            for seg in layout.ordered_children(m):
                if seg.is_gap:
                    gaps.append(seg)
                    continue
                r = pair.cocycle.factor(seg.word) * (g.measure(seg.word) / nu_m) ** inv * boost
                ratios[seg] = r
                mass += r
            left = 1.0 - mass
            if not gaps:
                if left > MIN_MASS_MARGIN:
                    raise InadmissiblePair(
                        f"no gap under ({_word_str(m)}) to take up leftover mass {left:.3g}"
                    )
                continue
            if left <= 0.0:
                raise InadmissiblePair(
                    f"children of ({_word_str(m)}) already exceed unit mass"
                )
            weights = [pair.gap_ratios.ratio(s, gaps[0]) for s in gaps]
            total = sum(weights)
            for seg, w in zip(gaps, weights):
                ratios[seg] = left * w / total
    return RatioTable(
        sys=sys,
        side=side,
        window_depth=wd,
        ratios=ratios,
        delta=delta,
        pressure=pressure,
        depth=depth,
        margin=margin,
    )


def cocycle_gap_rows(
    g: GibbsMeasure,
    pair: CocycleGapPair,
    delta: float,
    pressure: float,
    depth: int = 8,
    data: Optional[BoundaryData] = None,
) -> list[ConditionRow]:
    """Round-trip the pair through the boundary identification.

    For every recorded periodic boundary leaf, ratios are synthesized in
    the first rectangle's labels, transported by relabelling the pivot,
    and the cocycle factors and gap ratios they induce on the second
    rectangle's descriptors are compared against the stored pair.  Returns
    one row per descriptor and base point; an exact pair yields residuals
    at rounding level.

    Descriptors start at depth two: the relative size of the two
    rectangles is not part of the transported leaf geometry, so depth-one
    ratios say nothing about the pair.
    """
    sys = g.sys
    if data is None:
        data = sys.boundary_data
        if data is None:
            raise MissingBoundaryData("system carries no boundary records")
    side = pair.side
    back = opposite(side)  # the pivot end of a `side` word is the deep end on `back`
    orbits = [o for o in data.cocyclegap_orbits if o.side == side]
    out: list[ConditionRow] = []
    if not orbits:
        return out
    synth = synthesize_ratio(g, pair, delta, pressure, depth)
    layout = sys.layout(side)
    inv = 1.0 / delta
    deflate = math.exp(-pressure / delta)
    for inst in orbits:
        # (label, stored, induced) per descriptor; the same for every base point.
        steps: list[tuple[str, float, float]] = []
        gap_rows: list[tuple[str, float, float]] = []
        for n in range(1, depth + 1):
            for w in enumerate_cylinders(sys, n, side):
                syms = w.symbols
                if w.pivot != inst.m2_pivot:
                    continue
                rel = deep_extend(drop_deep(syms, back), inst.m1_pivot, back)
                if not sys.is_admissible(rel):
                    continue
                if n >= 2:
                    rho = g.measure(syms) / g.measure(drop_deep(syms, side))
                    induced = synth.ratio_of(cyl(rel)) * rho ** (-inv) * deflate
                    stored = pair.cocycle.factor(syms)
                    steps.append((f"step:({_word_str(syms)})", stored, induced))
                if n == depth:
                    continue
                gaps = [s for s in layout.ordered_children(syms) if s.is_gap]
                if len(gaps) < 2 or layout.gap_count(rel) < len(gaps):
                    continue
                first = gaps[0]
                rel_first = synth.ratio_of(Seg("gap", rel, first.ordinal))
                for seg in gaps[1:]:
                    induced = synth.ratio_of(Seg("gap", rel, seg.ordinal)) / rel_first
                    stored = pair.gap_ratios.ratio(seg, first)
                    gap_rows.append((f"gap:({_word_str(syms)})#{seg.ordinal}", stored, induced))
        for base in range(len(inst.orbit)):
            tag = f"{inst.ident}/x{base}"
            out.extend(
                ConditionRow(f"{tag}:{label}", stored, induced, abs(stored - induced))
                for label, stored, induced in steps + gap_rows
            )
    return out


def pair_to_json(pair: CocycleGapPair) -> str:
    obj = {
        "side": pair.side,
        "levels": {_word_str(win): val for win, val in pair.cocycle.table.items()},
        "gaps": {
            "depth": pair.gap_ratios.depth,
            "constant": pair.gap_ratios.constant,
            "table": [
                [[_word_str(a[0]), a[1]], [_word_str(b[0]), b[1]], val]
                for (a, b), val in sorted(pair.gap_ratios.table.items())
            ],
        },
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parse_word_str(text: str) -> Symbols:
    if text == "":
        return ()
    return tuple(int(part) for part in text.split(","))


def pair_from_json(text: str) -> CocycleGapPair:
    obj = json.loads(text)
    side = obj["side"]
    levels = {_parse_word_str(k): float(v) for k, v in obj["levels"].items()}
    gobj = obj["gaps"]
    table = {
        ((_parse_word_str(a[0]), json_int(a[1])), (_parse_word_str(b[0]), json_int(b[1]))): float(v)
        for a, b, v in gobj["table"]
    }
    constant = gobj.get("constant")
    ratios = GapRatios(
        side,
        json_int(gobj["depth"]),
        table,
        constant=None if constant is None else float(constant),
    )
    return CocycleGapPair(MeasureLengthCocycle(side, levels), ratios)
