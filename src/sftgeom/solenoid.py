"""Solenoid functions: sibling ratios, their extension to arbitrary
segment pairs, and the boundary compatibility checks.

A solenoid spec stores ratio values on sibling pairs at every depth up
to its stabilisation depth; deeper pairs are looked up through their
deep-end windows. Specs built from a Gibbs measure live on cylinder
pairs only ("leaf-leaf"); specs read off a train-track realization on a
side with gaps also price the gaps ("leaf-gap").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    MismatchedSystems,
    MissingPairValue,
    NotInDomain,
    WordTooShort,
)
from .gibbs import AdmissiblePair, GibbsMeasure, extended_scaling
from .realize import WindowWalk
from .sft import (
    BoundaryData,
    GapLayout,
    SIDES,
    Seg,
    SftSystem,
    Symbols,
    Word,
    deep_window_of,
    drop_deep,
    json_int,
    opposite,
    pair_value,
    seg_from_json,
    seg_to_json,
    stabilized,
    window_graph,
)

PairKey = tuple[Seg, Seg]


def _is_ratio(v: float) -> bool:
    return v > 0 and math.isfinite(v)


@dataclass(frozen=True)
class SolenoidSpec:
    """A tabulated solenoid function on one side.

    `values` maps ordered segment pairs to ratios size(first)/size(second).
    Keys at depth up to `stabilization` are exact; deeper queries are
    truncated to their deep-end windows. The Hoelder data and the value
    range are recorded from the table, not certified.
    """

    side: str
    domain_kind: str  # "leaf-leaf" or "leaf-gap"
    stabilization: int
    values: Mapping[PairKey, float]
    holder_alpha: float
    holder_constant: float
    v_min: float
    v_max: float
    boundary_agnostic: bool = False

    def __post_init__(self) -> None:
        if self.domain_kind not in ("leaf-leaf", "leaf-gap"):
            raise ValueError(f"unknown domain kind {self.domain_kind!r}")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.stabilization < 1:
            raise ValueError(f"stabilization must be at least 1, got {self.stabilization}")

    def sigma(self, a: Seg, b: Seg) -> float:
        """Ratio of segment a to segment b."""
        # Reciprocity forces the diagonal: sigma(a, a)^2 = 1.
        hit = pair_value(
            self.values,
            stabilized(a, self.stabilization, self.side),
            stabilized(b, self.stabilization, self.side),
        )
        if hit is None:
            raise MissingPairValue(f"no stored ratio for {a} against {b}")
        return hit

    def validate(self) -> list[str]:
        problems = []
        for (a, b), v in self.values.items():
            if not _is_ratio(v):
                problems.append(f"ratio for ({a}, {b}) is not a positive float")
            elif not self.v_min - 1e-12 <= v <= self.v_max + 1e-12:
                problems.append(f"ratio for ({a}, {b}) escapes the recorded range")
        for (a, b), v in self.values.items():
            w = self.values.get((b, a))
            if w is not None and abs(v * w - 1.0) > 1e-9:
                problems.append(f"ratios for ({a}, {b}) are not reciprocal")
        return problems


def _holder_from_values(
    side: str, values: Mapping[PairKey, float], alpha: float
) -> float:
    """Worst |v1 - v2| * 2^(alpha q) over pairs of keys with, per coordinate,
    the same kind, ordinal and word length and words agreeing in their q
    deepest symbols.  One bucket per q and agreeing windows: its spread is
    attained by a pair agreeing to depth q or more, and every pair lies in
    the bucket of its own agreement depth (alpha >= 0)."""
    spans: dict[tuple, tuple[float, float]] = {}
    for key, v in values.items():
        shape = tuple((s.kind, s.ordinal, len(s.word)) for s in key)
        for q in range(min(len(s.word) for s in key) + 1):
            bucket = (q, shape, tuple(deep_window_of(s.word, q, side) for s in key))
            lo, hi = spans.get(bucket, (v, v))
            spans[bucket] = (min(lo, v), max(hi, v))
    return max([0.0] + [(hi - lo) * 2.0 ** (alpha * b[0]) for b, (lo, hi) in spans.items()])


def holder_estimate(spec: SolenoidSpec, alpha: Optional[float] = None) -> float:
    """Empirical Hoelder constant of the table at exponent alpha >= 0.

    Two structurally matching keys are 2^(-q) apart, q the deep-end
    agreement of their coordinates; the estimate is the worst spread of
    the values of keys agreeing to depth q, times 2^(alpha q), one pass per
    depth, so linear in the table size. Finite on a finite table."""
    a = spec.holder_alpha if alpha is None else alpha
    if not a >= 0:
        raise ValueError(f"the Hoelder exponent must be nonnegative, got {a!r}")
    return _holder_from_values(spec.side, spec.values, a)


def _expanded_row(layout: GapLayout, word: Symbols, remaining: int) -> list[Seg]:
    """The geometric order of depth-`remaining` leaves below `word`,
    keeping the gap segments of every intermediate level in place."""
    if remaining == 0:
        return [Seg("cyl", word)]
    out: list[Seg] = []
    for child in layout.ordered_children(word):
        if child.is_gap:
            out.append(child)
        else:
            out.extend(_expanded_row(layout, child.word, remaining - 1))
    return out


def _row_leaf_pairs(row: list[Seg], has_gaps: bool) -> list[PairKey]:
    """Consecutive leaf pairs of an expanded row: adjacent on a side without
    gaps, flanking exactly one gap on a side with them."""
    leaves = [i for i, seg in enumerate(row) if not seg.is_gap]
    need = 1 if has_gaps else 0
    return [(row[i], row[j]) for i, j in zip(leaves, leaves[1:]) if j - i - 1 == need]


def _tabulated(
    side: str, kind: str, stab: int, pairs, value, agnostic: bool = False
) -> SolenoidSpec:
    """The spec holding value(a, b) for every pair of `pairs`, one direction
    per pair, with its value range and Hoelder constant."""
    values: dict[PairKey, float] = {}
    for a, b in pairs:
        if (a, b) not in values and (b, a) not in values:
            values[(a, b)] = value(a, b)
    spread = list(values.values()) + [1.0 / v for v in values.values()]
    return SolenoidSpec(
        side=side,
        domain_kind=kind,
        stabilization=stab,
        values=values,
        holder_alpha=1.0,
        holder_constant=_holder_from_values(side, values, 1.0),
        v_min=min(spread),
        v_max=max(spread),
        boundary_agnostic=agnostic,
    )


def from_gibbs(g: GibbsMeasure, side: str) -> SolenoidSpec:
    """The measure solenoid of a Gibbs state, tabulated on sibling pairs.

    Without a registered layout every sibling pair is admitted and the
    spec is flagged boundary-agnostic.
    """
    sys, stab = g.sys, max(g.span, 2)
    agnostic = not sys.has_layout(side)
    if agnostic:  # the sibling pairs of every mother shallower than stab
        kids = window_graph(sys, side, stab).children
        pairs = [p for row in kids for p in combinations([seg for seg, _ in row], 2)]
    else:
        layout = sys.layout(side)
        pairs = [
            p
            for d in range(1, stab + 1)
            for p in _row_leaf_pairs(_expanded_row(layout, (), d), layout.has_gaps)
        ]

    def value(a: Seg, b: Seg) -> float:
        if g.exact:
            return float(g.measure_exact(a.word) / g.measure_exact(b.word))
        return g.measure(a.word) / g.measure(b.word)

    return _tabulated(side, "leaf-leaf", stab, pairs, value, agnostic)


def from_realization(tt) -> SolenoidSpec:
    """Read the solenoid of a train-track realization off its lengths.

    On a side with gaps the domain keeps the gap segments ("leaf-gap")
    and every consecutive pair in the geometric row order is priced,
    which covers sibling chains as well as pairs that touch across a
    mother boundary.
    """
    layout, stab = tt.sys.layout(tt.side), max(tt.window_depth, 2)
    pairs: list[PairKey] = []
    for d in range(1, stab + 1):
        row = _expanded_row(layout, (), d)
        pairs += list(zip(row, row[1:])) + _row_leaf_pairs(row, layout.has_gaps)
    return _tabulated(
        tt.side,
        "leaf-gap" if layout.has_gaps else "leaf-leaf",
        stab,
        pairs,
        lambda a, b: tt.length_of(a) / tt.length_of(b),
    )


# ----------------------------------------------------------------------
# pointwise measure solenoid


def measure_solenoid(g: GibbsMeasure, psi: Word, xi: Word, side: str) -> float:
    """Ratio of two sibling cylinders, checked against the side's layout.

    Siblings share a mother and differ in the deep symbol; on a side
    with gaps they must flank exactly one gap, without gaps they must be
    adjacent. With no layout registered any sibling pair is accepted.
    """
    if psi.side != side or xi.side != side:
        raise NotInDomain("both words must live on the stated side")
    if len(psi) != len(xi):
        raise NotInDomain("sibling words have equal depth")
    if len(psi) < g.span:
        raise WordTooShort(
            f"solenoid values need words of depth at least {g.span}"
        )
    mw = drop_deep(psi.symbols, side)
    if drop_deep(xi.symbols, side) != mw or psi.deep_symbol == xi.deep_symbol:
        raise NotInDomain("words are not distinct siblings")
    if not (g.sys.is_admissible(psi.symbols) and g.sys.is_admissible(xi.symbols)):
        raise NotInDomain("sibling words must be admissible")
    if g.sys.has_layout(side):
        layout = g.sys.layout(side)
        pairs = _row_leaf_pairs(layout.ordered_children(mw), layout.has_gaps)
        a, b = Seg("cyl", psi.symbols), Seg("cyl", xi.symbols)
        if (a, b) not in pairs and (b, a) not in pairs:
            rule = "flank exactly one gap" if layout.has_gaps else "be adjacent in the layout"
            raise NotInDomain(f"siblings must {rule}")
    return g.measure(psi.symbols) / g.measure(xi.symbols)


# ----------------------------------------------------------------------
# extension to arbitrary segment pairs


def _as_side_seg(x: Union[Word, Seg], side: str) -> Seg:
    if isinstance(x, Word):
        if x.side != side:
            raise NotInDomain(f"word is on side {x.side!r}, spec wants {side!r}")
        return Seg("cyl", x.symbols)
    return x


def _chain_sizes(spec: SolenoidSpec, segs: Sequence[Seg]) -> list[float]:
    """size(segs[i]) / size(segs[0]) along a chain of touching segments: the
    running products of the stored ratios of neighbours."""
    out = [1.0]
    for prev, cur in zip(segs, segs[1:]):
        out.append(out[-1] * spec.sigma(cur, prev))
    return out


def _mother_over_child(
    spec: SolenoidSpec, layout: GapLayout, mw: Symbols, child: Seg
) -> float:
    """size(mother)/size(child) summed through the sibling chain."""
    leaf_gap = spec.domain_kind == "leaf-gap"
    chain = [s for s in layout.ordered_children(mw) if leaf_gap or not s.is_gap]
    try:
        s = chain.index(child)
    except ValueError:
        raise NotInDomain(f"{child} is not a child of {mw}") from None
    return sum(_chain_sizes(spec, chain[s::-1]) + _chain_sizes(spec, chain[s:])[1:])


def _up_to_root(spec: SolenoidSpec, layout: GapLayout, seg: Seg) -> float:
    """size(root)/size(seg), telescoped through the mothers."""
    up = 1.0
    cur = seg
    while True:
        if cur.is_gap:
            mw = cur.word
        elif cur.word:
            mw = drop_deep(cur.word, spec.side)
        else:
            return up
        up *= _mother_over_child(spec, layout, mw, cur)
        cur = Seg("cyl", mw)


def extend_scaling(
    spec: SolenoidSpec,
    sys: SftSystem,
    k: Union[Word, Seg],
    j: Union[Word, Seg],
) -> float:
    """size(k)/size(j) for any two segments, chained through the layout.

    Gap segments are only meaningful for leaf-gap specs.
    """
    layout = sys.layout(spec.side)
    ks = _as_side_seg(k, spec.side)
    js = _as_side_seg(j, spec.side)
    if spec.domain_kind == "leaf-leaf" and (ks.is_gap or js.is_gap):
        raise NotInDomain("gap segments need a leaf-gap solenoid spec")
    if ks == js:
        return 1.0
    return _up_to_root(spec, layout, js) / _up_to_root(spec, layout, ks)


# ----------------------------------------------------------------------
# boundary compatibility checks


def _data_or_empty(sys: SftSystem, data: Optional[BoundaryData]) -> BoundaryData:
    if data is not None:
        return data
    return sys.boundary_data if sys.boundary_data is not None else BoundaryData()


class ConditionRow(NamedTuple):
    """Both sides of one boundary-condition instance, plus their gap."""

    ident: str
    lhs: float
    rhs: float
    residual: float


def _row(ident: str, lhs: float, rhs: float) -> ConditionRow:
    return ConditionRow(ident, lhs, rhs, abs(lhs - rhs))


def matching_rows(
    spec: SolenoidSpec, sys: SftSystem, data: Optional[BoundaryData] = None
) -> list[ConditionRow]:
    """Evaluate the matching condition on every recorded instance.

    Each instance supplies a pair of touching segments and a chain that
    decomposes their union; the split tells how many chain members make
    up the left segment.
    """
    data = _data_or_empty(sys, data)
    out = []
    for inst in data.matching_instances:
        if inst.side != spec.side:
            continue
        terms = _chain_sizes(spec, inst.chain)
        num = sum(terms[: inst.split])
        den = sum(terms[inst.split :])
        lhs = spec.sigma(inst.left, inst.right)
        out.append(_row(inst.ident, lhs, num / den))
    return out


def boundary_rows(
    spec: SolenoidSpec, sys: SftSystem, data: Optional[BoundaryData] = None
) -> list[ConditionRow]:
    """Evaluate the boundary condition: two decompositions hanging off
    the same base segment must have equal chained totals."""
    data = _data_or_empty(sys, data)
    out = []
    for inst in data.boundary_instances:
        if inst.side != spec.side:
            continue
        a, b = (
            sum(_chain_sizes(spec, [inst.base, *dec])[1:], 0.0)
            for dec in (inst.dec_a, inst.dec_b)
        )
        out.append(_row(inst.ident, a, b))
    return out


def cylinder_gap_rows(
    spec: SolenoidSpec, sys: SftSystem, data: Optional[BoundaryData] = None
) -> list[ConditionRow]:
    """Evaluate the cylinder-gap condition: the stored ratio of the pair
    must match the chained sizes of the decomposition segments against
    its final gap."""
    data = _data_or_empty(sys, data)
    out = []
    for inst in data.cylindergap_instances:
        if inst.side != spec.side:
            continue
        gap_seg = inst.segments[-1]
        rhs = sum(
            extend_scaling(spec, sys, seg, gap_seg) for seg in inst.segments[:-1]
        )
        lhs = spec.sigma(inst.pair_cyl, inst.pair_gap)
        out.append(_row(inst.ident, lhs, rhs))
    return out


def cylinder_cylinder_rows(
    g: GibbsMeasure, data: Optional[BoundaryData] = None
) -> list[ConditionRow]:
    """Evaluate the cylinder-cylinder condition across a shared boundary
    leaf, through the extended scaling function."""
    data = _data_or_empty(g.sys, data)
    out = []
    for inst in data.cylindercylinder_instances:
        leaf_side = opposite(inst.side)
        xi = Word(inst.xi, leaf_side)
        eta = Word(inst.eta, leaf_side)
        r1 = extended_scaling(g, AdmissiblePair(xi, Word(inst.c1, inst.side)))
        r2 = extended_scaling(g, AdmissiblePair(xi, Word(inst.c2, inst.side)))
        rds = [
            extended_scaling(g, AdmissiblePair(eta, Word(d, inst.side)))
            for d in inst.ds
        ]
        p = inst.split
        lhs = r2 / r1
        rhs = sum(rds[p - 1 :]) / sum(rds[: p - 1])
        out.append(_row(inst.ident, lhs, rhs))
    return out


# ----------------------------------------------------------------------
# equivalence checks


def _size_source(spec: SolenoidSpec, sys: SftSystem) -> tuple[int, Callable]:
    """size(child)/size(mother) under the spec, at its stabilization depth."""
    layout = sys.layout(spec.side)
    return spec.stabilization, lambda m, c: 1.0 / _mother_over_child(spec, layout, m, c)


def _size_levels(sys: SftSystem, side: str, sources: list[tuple[int, Callable]], depth: int):
    """The words of length 2..depth, one level at a time in
    enumerate_cylinders order, each as a tuple of its size relative to its
    primary cylinder under every source.  A source is a pair (window depth,
    child_over_mother(mother word, child)), walked by window state
    (realize.WindowWalk) and read only at the states the walk reaches:
    primary cylinders 1, gaps 0 (the checks compare cylinders), any other
    cylinder child_over_mother."""

    def weight(child_over_mother):
        def ratio(seg: Seg) -> float:
            if seg.is_gap:
                return 0.0
            mw = drop_deep(seg.word, side)
            return child_over_mother(mw, seg) if mw else 1.0
        return ratio

    walks = [
        WindowWalk(sys, side, wd, weight(f)).levels(depth, None, lambda label, a: None)
        for wd, f in sources
    ]
    for levels in islice(zip(*walks), 2, None):
        yield [tuple(node[1] for node in nodes) for nodes in zip(*levels)]


def bounded_equivalence(
    spec1: SolenoidSpec, spec2: SolenoidSpec, sys: SftSystem, n_max: int
) -> tuple[bool, float]:
    """Whether two solenoids stay boundedly close along the mother chains.

    Compares log size(J)/size(ancestor) under both specs over all words
    down to depth n_max + 1 and watches the growth of the worst gap
    between depths n_max - 2 and n_max.
    """
    if spec1.side != spec2.side:
        raise MismatchedSystems("solenoid specs live on different sides")
    if n_max < 3:
        raise ValueError("need depth at least 3 to see the growth trend")
    sources = [_size_source(spec, sys) for spec in (spec1, spec2)]
    per_depth = [
        max(abs(math.log(s1) - math.log(s2)) for s1, s2 in level)
        for level in _size_levels(sys, spec1.side, sources, n_max + 1)
    ]
    c_full = max(per_depth)
    c_earlier = max(per_depth[: n_max - 2])
    return (c_full - c_earlier < 1e-6, c_full)


def bounded_solenoid_class_check(
    spec: SolenoidSpec,
    g: GibbsMeasure,
    delta: float,
    pressure: float,
    n_max: int,
) -> float:
    """Worst deviation of delta * log-size from the log of the measure
    ratio function, after removing the pressure drift. Bounded exactly
    when the realization carries the (delta, pressure) Gibbs class."""
    side = spec.side
    # extended_scaling against the pivot leaf, one window conditional per
    # step; a conditional reads the child's g.block_len + 1 deepest symbols
    cond = lambda m, c: g.conditional(c.word, side)
    sources = [_size_source(spec, g.sys), (g.block_len + 1, cond)]
    worst = 0.0
    for n, level in enumerate(_size_levels(g.sys, side, sources, n_max), start=2):
        for s, rho in level:
            val = delta * math.log(s) - math.log(rho) - (n - 1) * pressure
            worst = max(worst, abs(val))
    return worst


# ----------------------------------------------------------------------
# serialization


def solenoid_to_json(spec: SolenoidSpec) -> str:
    rows = [
        [seg_to_json(a), seg_to_json(b), v]
        for (a, b), v in sorted(
            spec.values.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
        )
    ]
    obj = {
        "side": spec.side,
        "domain_kind": spec.domain_kind,
        "stabilization": spec.stabilization,
        "values": rows,
        "holder_alpha": spec.holder_alpha,
        "holder_constant": spec.holder_constant,
        "v_min": spec.v_min,
        "v_max": spec.v_max,
        "boundary_agnostic": spec.boundary_agnostic,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def solenoid_from_json(text: str) -> SolenoidSpec:
    """The spec of solenoid_to_json; ValueError on a side other than u or s,
    a stabilization below 1 or a stored ratio that is not a positive finite
    float (range and reciprocity are left to SolenoidSpec.validate)."""
    obj = json.loads(text)
    values = {
        (seg_from_json(a), seg_from_json(b)): float(v) for a, b, v in obj["values"]
    }
    for (a, b), v in values.items():
        if not _is_ratio(v):
            raise ValueError(f"ratio for ({a}, {b}) is not a positive float: {v!r}")
    return SolenoidSpec(
        side=obj["side"],
        domain_kind=obj["domain_kind"],
        stabilization=json_int(obj["stabilization"]),
        values=values,
        holder_alpha=float(obj["holder_alpha"]),
        holder_constant=float(obj["holder_constant"]),
        v_min=float(obj["v_min"]),
        v_max=float(obj["v_max"]),
        boundary_agnostic=bool(obj["boundary_agnostic"]),
    )
