"""Two-sided subshifts of finite type: words, cylinders, orbits, layouts.

Conventions used throughout the package:

* Symbols are 0-based integers.
* A word stores its symbols in chronological order regardless of side.
  A future ("u") word starts at its pivot and grows deeper by appending
  on the right; a past ("s") word ends at its pivot and grows deeper by
  prepending on the left.  The admissibility check is therefore the same
  for both sides: A[w[i]][w[i+1]] == 1 for consecutive entries.
* The mother of a word drops symbols at the deep end (last for "u",
  first for "s"), so refining a cylinder always extends the deep end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    InadmissibleBoundaryWord,
    MalformedInstance,
    NotInDomain,
    NotPrimitive,
    TooShallow,
)

Symbols = tuple[int, ...]

U_SIDE = "u"
S_SIDE = "s"
SIDES = (U_SIDE, S_SIDE)


def opposite(side: str) -> str:
    if side == U_SIDE:
        return S_SIDE
    if side == S_SIDE:
        return U_SIDE
    raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def deep_window_of(symbols: Sequence[int], depth: int, side: str) -> Symbols:
    """Deep-end window: the last `depth` symbols of a "u" tuple, the first of an "s" tuple."""
    if depth <= 0:
        return ()
    syms = tuple(symbols)
    if len(syms) <= depth:
        return syms
    return syms[-depth:] if side == U_SIDE else syms[:depth]


def deep_extend(symbols: Sequence[int], symbol: int, side: str) -> Symbols:
    """Extend a symbol tuple by one symbol at its deep end."""
    syms = tuple(symbols)
    return syms + (symbol,) if side == U_SIDE else (symbol,) + syms


def drop_deep(symbols: Sequence[int], side: str) -> Symbols:
    """Drop the deep-end symbol (the mother map on raw tuples)."""
    syms = tuple(symbols)
    if not syms:
        raise ValueError("the empty word has no deep end")
    return syms[:-1] if side == U_SIDE else syms[1:]


@dataclass(frozen=True, order=True)
class Word:
    """A finite admissible word on one side of the shift."""

    symbols: Symbols
    side: str

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def pivot(self) -> int:
        """The time-zero symbol: first for future words, last for past."""
        if not self.symbols:
            raise ValueError("the empty word has no pivot")
        return self.symbols[0] if self.side == U_SIDE else self.symbols[-1]

    @property
    def deep_symbol(self) -> int:
        if not self.symbols:
            raise ValueError("the empty word has no deep symbol")
        return self.symbols[-1] if self.side == U_SIDE else self.symbols[0]


@dataclass(frozen=True, order=True)
class Seg:
    """Segment descriptor used by boundary-instance tables.

    kind is "cyl" or "gap"; for gaps, `word` is the mother word and
    `ordinal` indexes the gap within the mother's layout.
    """

    kind: str
    word: Symbols
    ordinal: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("cyl", "gap"):
            raise ValueError(f"unknown segment kind {self.kind!r}")

    @property
    def is_gap(self) -> bool:
        return self.kind == "gap"


def cyl(word: Sequence[int]) -> Seg:
    return Seg("cyl", tuple(word))


def gap(mother: Sequence[int], ordinal: int = 0) -> Seg:
    return Seg("gap", tuple(mother), ordinal)


def pair_value(table: Mapping[tuple, float], a, b) -> Optional[float]:
    """The value of the ordered pair (a, b) in a reciprocal pair table.

    1 on the diagonal, else the stored value, else the reciprocal of the
    reverse entry; None when neither direction is stored.
    """
    if a == b:
        return 1.0
    hit = table.get((a, b))
    if hit is not None:
        return hit
    back = table.get((b, a))
    return None if back is None else 1.0 / back


def stabilized(seg: Seg, depth: int, side: str) -> Seg:
    """Truncate a descriptor to its window at stabilization depth `depth`.

    A cylinder keeps its `depth` deepest symbols; a gap, named by its
    mother, keeps `depth - 1` of the mother's.
    """
    cap = depth - 1 if seg.is_gap else depth
    if len(seg.word) <= cap:
        return seg
    return Seg(seg.kind, deep_window_of(seg.word, cap, side), seg.ordinal)


# Layout entries: ("cyl", symbol) for a cylinder child, ("gap",) for a gap.
LayoutEntry = tuple
CYL_ENTRY = "cyl"
GAP_ENTRY = "gap"


@dataclass(frozen=True)
class GapLayout:
    """Ordered children (cylinders and gaps) per deep symbol, for one side.

    Keys of `entries`: None for the root (primary cylinders of the whole
    track) and each symbol a for the children of words with deep symbol a.
    The first and last entry of every list must be cylinders; the cylinder
    symbols must enumerate exactly the admissible extensions at the deep
    end (successors of a for the "u" side, predecessors for "s").
    """

    side: str
    entries: Mapping[Optional[int], tuple[LayoutEntry, ...]]

    def ordered_children(self, word: Symbols) -> list[Seg]:
        """Children of `word` in geometric order, gaps included."""
        key = (word[-1] if self.side == U_SIDE else word[0]) if word else None
        out: list[Seg] = []
        n_gap = 0
        for entry in self.entries[key]:
            if entry[0] == CYL_ENTRY:
                out.append(Seg("cyl", deep_extend(word, entry[1], self.side)))
            else:
                out.append(Seg("gap", word, n_gap))
                n_gap += 1
        return out

    def gap_count(self, word: Symbols) -> int:
        return sum(1 for s in self.ordered_children(word) if s.is_gap)

    @property
    def has_gaps(self) -> bool:
        return any(
            e[0] == GAP_ENTRY for lst in self.entries.values() for e in lst
        )


@dataclass(frozen=True)
class MatchingInstance:
    ident: str
    side: str
    left: Seg
    right: Seg
    chain: tuple[Seg, ...]
    split: int


@dataclass(frozen=True)
class BoundaryInstance:
    ident: str
    side: str
    base: Seg
    dec_a: tuple[Seg, ...]
    dec_b: tuple[Seg, ...]


@dataclass(frozen=True)
class CylinderGapInstance:
    ident: str
    side: str
    pair_cyl: Seg
    pair_gap: Seg
    segments: tuple[Seg, ...]  # J_1 .. J_m, the last one is the gap J_m


@dataclass(frozen=True)
class CylinderCylinderInstance:
    ident: str
    side: str
    xi: Symbols  # leaf word, opposite side, realizing the shared boundary
    c1: Symbols
    c2: Symbols
    eta: Symbols  # leaf word in the neighbouring rectangle's coordinates
    ds: tuple[Symbols, ...]  # D_1 .. D_m
    split: int  # p: ds[:p-1] decompose C_1's segment, ds[p-1:] C_2's


@dataclass(frozen=True)
class CocycleGapOrbit:
    """One periodic boundary leaf with its two rectangle readings."""

    ident: str
    side: str  # side of the track being realized (the gap side)
    orbit: Symbols  # orbit word of the boundary leaf, opposite side
    m1_pivot: int
    m2_pivot: int


@dataclass(frozen=True)
class BoundaryData:
    matching_instances: tuple[MatchingInstance, ...] = ()
    boundary_instances: tuple[BoundaryInstance, ...] = ()
    cylindergap_instances: tuple[CylinderGapInstance, ...] = ()
    cylindercylinder_instances: tuple[CylinderCylinderInstance, ...] = ()
    cocyclegap_orbits: tuple[CocycleGapOrbit, ...] = ()

    def all_words(self) -> Iterator[Symbols]:
        for _, name, _, keys in _BOUNDARY_RECORDS:
            for inst in getattr(self, name):
                for (_, kind), value in zip(keys, _field_values(inst)):
                    yield from kind.words(value)


@dataclass(frozen=True)
class PeriodicOrbit:
    """A cyclic admissible word of least period p, canonical rotation."""

    representative: Symbols
    period: int


class SftSystem:
    """A validated two-sided subshift of finite type."""

    def __init__(
        self,
        k: int,
        matrix: Sequence[Sequence[int]],
        primitivity_exponent: int,
        layouts: Optional[Mapping[str, GapLayout]] = None,
        boundary_data: Optional[BoundaryData] = None,
    ) -> None:
        self.k = k
        self.A = tuple(tuple(int(x) for x in row) for row in matrix)
        self.primitivity_exponent = primitivity_exponent
        self.layouts = dict(layouts) if layouts else {}
        self.boundary_data = boundary_data
        self._succ = tuple(
            tuple(b for b in range(k) if self.A[a][b] == 1) for a in range(k)
        )
        self._pred = tuple(
            tuple(a for a in range(k) if self.A[a][b] == 1) for b in range(k)
        )
        self._pairs = frozenset((a, b) for a in range(k) for b in self._succ[a])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SftSystem):
            return NotImplemented
        return (
            self.k == other.k
            and self.A == other.A
            and self.layouts == other.layouts
            and self.boundary_data == other.boundary_data
        )

    def __repr__(self) -> str:
        return f"SftSystem(k={self.k}, A={self.A})"

    def successors(self, a: int) -> tuple[int, ...]:
        return self._succ[a]

    def predecessors(self, b: int) -> tuple[int, ...]:
        return self._pred[b]

    def is_admissible(self, symbols: Sequence[int]) -> bool:
        if len(symbols) < 2:
            return all(0 <= s < self.k for s in symbols)
        return self._pairs.issuperset(zip(symbols, symbols[1:]))  # pairs of alphabet symbols

    def word(self, symbols: Sequence[int], side: str) -> Word:
        syms = tuple(symbols)
        if not self.is_admissible(syms):
            raise ValueError(f"inadmissible word {syms}")
        return Word(syms, side)

    def deep_extensions(self, symbols: Symbols, side: str) -> tuple[int, ...]:
        """Symbols that may extend a `side` word at its deep end."""
        if not symbols:
            return tuple(range(self.k))
        if side == U_SIDE:
            return self._succ[symbols[-1]]
        return self._pred[symbols[0]]

    def layout(self, side: str) -> GapLayout:
        """The side's layout; NotInDomain on a side without one."""
        try:
            return self.layouts[side]
        except KeyError:
            raise NotInDomain(f"system has no {side}-side layout") from None

    def has_layout(self, side: str) -> bool:
        return side in self.layouts

    def trace_power(self, p: int) -> int:
        """trace(A ** p), the number of points of period p, in exact integers."""
        if p < 0:
            raise ValueError("the power must be non-negative")
        cols = list(zip(*self.A))
        power = [[int(i == j) for j in range(self.k)] for i in range(self.k)]
        for _ in range(p):
            power = [[sum(x * y for x, y in zip(row, c)) for c in cols] for row in power]
        return sum(power[i][i] for i in range(self.k))


def _primitivity_exponent(k: int, A: Sequence[Sequence[int]]) -> int:
    bound = (k - 1) ** 2 + 1
    mat = [[bool(x) for x in row] for row in A]
    cols = list(zip(*mat))
    power = mat
    for n in range(1, bound + 1):
        if all(map(all, power)):
            return n
        power = [[any(a and b for a, b in zip(row, c)) for c in cols] for row in power]
    raise NotPrimitive(
        f"no power up to {(k - 1) ** 2 + 1} of the transition matrix is positive"
    )


def _validate_layout(sys: SftSystem, layout: GapLayout) -> None:
    keys = set(layout.entries.keys())
    expected = {None} | set(range(sys.k))
    if keys != expected:
        raise ValueError(
            f"{layout.side}-layout keys {sorted(map(str, keys))} do not cover "
            f"root plus every symbol"
        )
    for key, entries in layout.entries.items():
        if not entries:
            raise ValueError(f"{layout.side}-layout entry list for {key} is empty")
        if entries[0][0] != CYL_ENTRY or entries[-1][0] != CYL_ENTRY:
            raise ValueError(
                f"{layout.side}-layout for {key} must start and end with cylinders"
            )
        symbols = [e[1] for e in entries if e[0] == CYL_ENTRY]
        wanted = list(sys.deep_extensions(() if key is None else (key,), layout.side))
        if sorted(symbols) != sorted(wanted):
            raise ValueError(
                f"{layout.side}-layout for {key}: cylinders {symbols} do not "
                f"enumerate the admissible extensions {wanted}"
            )


def _validate_boundary(sys: SftSystem, data: BoundaryData) -> None:
    for w in data.all_words():
        if not sys.is_admissible(w):
            raise InadmissibleBoundaryWord(f"boundary data references {w}")
    for inst in data.matching_instances:
        if not inst.chain:
            raise MalformedInstance(f"{inst.ident}: empty chain")
        if not 1 <= inst.split <= len(inst.chain) - 1:
            raise MalformedInstance(f"{inst.ident}: split {inst.split} out of range")
    for inst in data.boundary_instances:
        if not inst.dec_a or not inst.dec_b:
            raise MalformedInstance(f"{inst.ident}: empty decomposition")
    for inst in data.cylindergap_instances:
        if len(inst.segments) < 2:
            raise MalformedInstance(f"{inst.ident}: needs at least two segments")
        if not inst.segments[-1].is_gap or inst.pair_gap.kind != "gap":
            raise MalformedInstance(f"{inst.ident}: final segment must be the gap")
        if inst.pair_cyl.is_gap:
            raise MalformedInstance(f"{inst.ident}: pair cylinder is a gap")
    for inst in data.cylindercylinder_instances:
        if not 2 <= inst.split <= len(inst.ds):
            raise MalformedInstance(f"{inst.ident}: split {inst.split} out of range")


def build_sft(
    k: int,
    matrix: Sequence[Sequence[int]],
    boundary: Optional[BoundaryData] = None,
    layouts: Optional[Mapping[str, GapLayout]] = None,
) -> SftSystem:
    """Validate and assemble a system.

    Raises NotPrimitive when no power of the matrix within the
    (k-1)^2 + 1 bound is entrywise positive, and InadmissibleBoundaryWord
    when boundary data references an inadmissible word.
    """
    if k < 1:
        raise ValueError("alphabet size must be at least 1")
    if len(matrix) != k or any(len(row) != k for row in matrix):
        raise ValueError("transition matrix must be k x k")
    for row in matrix:
        for x in row:
            if x not in (0, 1):
                raise ValueError("transition matrix entries must be 0 or 1")
    exponent = _primitivity_exponent(k, matrix)
    sys = SftSystem(k, matrix, exponent, layouts, boundary)
    for key, layout in sys.layouts.items():
        if layout.side != key:
            raise ValueError(f"layout stored under key {key!r} is for side {layout.side!r}")
        _validate_layout(sys, layout)
    if boundary is not None:
        _validate_boundary(sys, boundary)
    return sys


def enumerate_cylinders(sys: SftSystem, n: int, side: str) -> list[Word]:
    """All admissible length-n words on `side`, lexicographic order (the
    depth-first walk over ascending successors yields it unsorted)."""
    if n < 1:
        raise ValueError("cylinder depth must be at least 1")
    words: list[Symbols] = []

    def grow(prefix: Symbols) -> None:
        if len(prefix) == n:
            words.append(prefix)
            return
        last = prefix[-1]
        for b in sys.successors(last):
            grow(prefix + (b,))

    for a in range(sys.k):
        grow((a,))
    return [Word(w, side) for w in words]


@dataclass(frozen=True)
class WindowGraph:
    """The higher-block presentation of one side at depth d >= 2 (Lind and
    Marcus, 1995, 2.3), the one graph that every window-determined object
    of the package weighs.  Its states are deep-end windows: `windows`
    lists the root (), then the admissible windows of 1 to d - 1 symbols,
    by length, each length in enumerate_cylinders order.  `children` lists
    per state its children in layout order, gaps included (ascending deep
    extensions on a side without a layout), each with its target: the state
    of a cylinder child's deep-end window of at most d - 1 symbols, -1 for
    a gap.  The states from `top` on, of d - 1 symbols, and their cylinder
    edges, the admissible d-words, form the top layer, a closed graph."""

    windows: list[Symbols]
    children: list[list[tuple[Seg, int]]]
    top: int

    def top_moves(self) -> list[tuple[int, int, Symbols]]:
        """The top layer's edges as (source, target, d-word), states counted from `top`."""
        t, kids = self.top, self.children
        return [(i - t, j - t, s.word) for i in range(t, len(kids)) for s, j in kids[i] if j >= 0]


def window_graph(sys: SftSystem, side: str, d: int) -> WindowGraph:
    """The window graph of `side` at depth d, built anew on every call."""
    if d < 2:
        raise ValueError(f"a window graph needs depth at least 2, got {d}")
    windows: list[Symbols] = [()]
    for n in range(1, d):
        top = len(windows)
        windows += [w.symbols for w in enumerate_cylinders(sys, n, side)]
    index, layout = {w: i for i, w in enumerate(windows)}, sys.layouts.get(side)
    kids = lambda w: layout.ordered_children(w) if layout else [
        Seg("cyl", deep_extend(w, c, side)) for c in sys.deep_extensions(w, side)
    ]
    target = lambda s: -1 if s.is_gap else index[deep_window_of(s.word, d - 1, side)]
    return WindowGraph(windows, [[(s, target(s)) for s in kids(w)] for w in windows], top)


def mother(w: Word, i: int = 1) -> Word:
    """Drop the i deepest symbols (last for "u" words, first for "s")."""
    if i < 0:
        raise ValueError("generation count must be non-negative")
    if i >= len(w.symbols):
        raise TooShallow(f"cannot drop {i} symbols from a length-{len(w)} word")
    # what is left is the window at the pivot end: the opposite side's deep end
    return Word(deep_window_of(w.symbols, len(w) - i, opposite(w.side)), w.side)


def periodic_orbits(sys: SftSystem, p_max: int) -> list[PeriodicOrbit]:
    """One representative per cyclic class of least period <= p_max.

    The representative is the least rotation, a Lyndon word.  Duval's
    algorithm makes them in lexicographic order (repeat the word to p_max
    symbols, drop trailing greatest symbols, increment the last), with each
    repetition cut after its first inadmissible pair: a cut prenecklace is
    one still, so every word it visits is a Lyndon word.
    """
    if p_max < 0:
        raise ValueError("period bound must be non-negative")
    A, top, out = sys.A, sys.k - 1, []
    w = [0] if p_max else []
    while w:
        # the symbols before w's last pair are admissible
        if len(w) == 1 or A[w[-2]][w[-1]]:
            if A[w[-1]][w[0]]:
                out.append(PeriodicOrbit(tuple(w), len(w)))
                w = (w * p_max)[:p_max]
            elif len(w) < p_max:
                w.append(w[0])
        while w and w[-1] == top:
            w.pop()
        if w:
            w[-1] += 1
    out.sort(key=lambda o: (o.period, o.representative))
    return out


# ----------------------------------------------------------------------
# JSON serialization of systems (bit-exact round trip)

def json_int(x) -> int:
    """x itself when it is a JSON integer; ValueError for anything else,
    a float such as 2.0, a string or a boolean included."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _word_from_json(obj: Sequence) -> Symbols:
    return tuple(json_int(s) for s in obj)


def seg_to_json(seg: Seg) -> list:
    if seg.is_gap:
        return ["gap", list(seg.word), seg.ordinal]
    return ["cyl", list(seg.word)]


def seg_from_json(obj: Sequence) -> Seg:
    if obj[0] == "gap":
        return Seg("gap", _word_from_json(obj[1]), json_int(obj[2]))
    return Seg("cyl", _word_from_json(obj[1]))


def _layout_to_json(layout: GapLayout) -> dict:
    enc: dict[str, list] = {}
    for key, entries in layout.entries.items():
        name = "root" if key is None else str(key)
        enc[name] = [list(e) for e in entries]
    return {"side": layout.side, "entries": enc}


def _layout_from_json(obj: Mapping) -> GapLayout:
    entries: dict[Optional[int], tuple[LayoutEntry, ...]] = {}
    for name, lst in obj["entries"].items():
        key = None if name == "root" else int(name)
        entries[key] = tuple(
            (CYL_ENTRY, json_int(e[1])) if e[0] == CYL_ENTRY else (GAP_ENTRY,)
            for e in lst
        )
    return GapLayout(obj["side"], entries)


class _FieldKind(NamedTuple):
    """How a record field is written to JSON, read back, and which words it names."""

    encode: Callable
    decode: Callable
    words: Callable


_same, _no_words = (lambda v: v), (lambda v: ())
_TEXT, _INT = _FieldKind(_same, _same, _no_words), _FieldKind(_same, json_int, _no_words)
_SEG = _FieldKind(seg_to_json, seg_from_json, lambda s: (s.word,))
_SEGS = _FieldKind(
    lambda v: list(map(seg_to_json, v)), lambda o: tuple(map(seg_from_json, o)),
    lambda v: [s.word for s in v],
)
_WORD = _FieldKind(list, _word_from_json, lambda w: (w,))
_WORDS = _FieldKind(lambda v: list(map(list, v)), lambda o: tuple(map(_word_from_json, o)), _same)

# Per record kind: its JSON section, its BoundaryData field, its class, and
# one (JSON key, field kind) pair per dataclass field, in field order.
_BOUNDARY_RECORDS = (
    ("matching", "matching_instances", MatchingInstance, (
        ("id", _TEXT), ("side", _TEXT), ("left", _SEG), ("right", _SEG),
        ("chain", _SEGS), ("split", _INT))),
    ("boundary", "boundary_instances", BoundaryInstance, (
        ("id", _TEXT), ("side", _TEXT), ("base", _SEG), ("dec_a", _SEGS), ("dec_b", _SEGS))),
    ("cylindergap", "cylindergap_instances", CylinderGapInstance, (
        ("id", _TEXT), ("side", _TEXT), ("cyl", _SEG), ("gap", _SEG), ("segments", _SEGS))),
    ("cylindercylinder", "cylindercylinder_instances", CylinderCylinderInstance, (
        ("id", _TEXT), ("side", _TEXT), ("xi", _WORD), ("c1", _WORD), ("c2", _WORD),
        ("eta", _WORD), ("ds", _WORDS), ("split", _INT))),
    ("cocyclegap", "cocyclegap_orbits", CocycleGapOrbit, (
        ("id", _TEXT), ("side", _TEXT), ("orbit", _WORD), ("m1_pivot", _INT), ("m2_pivot", _INT))),
)


def _field_values(inst) -> list:
    return [getattr(inst, f.name) for f in fields(inst)]


def _boundary_to_json(data: BoundaryData) -> dict:
    return {
        section: [
            {key: kind.encode(v) for (key, kind), v in zip(keys, _field_values(inst))}
            for inst in getattr(data, name)
        ]
        for section, name, _, keys in _BOUNDARY_RECORDS
    }


def _boundary_from_json(obj: Mapping) -> BoundaryData:
    return BoundaryData(**{
        name: tuple(cls(*(kind.decode(d[key]) for key, kind in keys)) for d in obj.get(section, []))
        for section, name, cls, keys in _BOUNDARY_RECORDS
    })


def system_to_json(sys: SftSystem) -> str:
    obj: dict = {
        "alphabet": sys.k,
        "matrix": [list(row) for row in sys.A],
    }
    if sys.layouts:
        obj["layouts"] = {
            side: _layout_to_json(layout) for side, layout in sorted(sys.layouts.items())
        }
    if sys.boundary_data is not None:
        obj["boundary"] = _boundary_to_json(sys.boundary_data)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def system_from_json(text: str) -> SftSystem:
    obj = json.loads(text)
    layouts = None
    if "layouts" in obj:
        layouts = {
            side: _layout_from_json(spec) for side, spec in obj["layouts"].items()
        }
    boundary = _boundary_from_json(obj["boundary"]) if "boundary" in obj else None
    matrix = [[json_int(x) for x in row] for row in obj["matrix"]]
    return build_sft(json_int(obj["alphabet"]), matrix, boundary, layouts)
