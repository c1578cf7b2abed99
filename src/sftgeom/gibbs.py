"""Equilibrium states of locally constant potentials, via transfer matrices.

A potential of span m assigns a log-weight to every admissible m-word.
The induced transfer matrix T acts on (max(m,2)-1)-blocks; its
Perron-Frobenius data (lambda, u, v) gives the pressure, and the measure
as a Markov chain on the blocks: pi_b = v_b u_b per block and one factor
f = T[i][j] u[j] / (u[i] lambda) per move i -> j.  A cylinder's measure
is the pi of its first block times one factor per further symbol.  When
the weights are exact rationals and the leading eigenvalue is rational
too, the chain is kept in Fractions and the float API just projects it;
otherwise it is kept in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    InadmissiblePair,
    NoCommonLeaf,
    NonConvergentEigensolve,
    WordTooShort,
)
from .sft import (
    U_SIDE,
    Seg,
    SftSystem,
    Symbols,
    Word,
    deep_extend,
    deep_window_of,
    drop_deep,
    enumerate_cylinders,
    json_int,
    mother,
    opposite,
    window_transitions,
)

POWER_TOL = 1e-14
# Power-iteration steps per round; every round that does not settle squares
# the iterated matrix.  The builtins settle within the first round.
POWER_ROUND = 64
# T ** (2 ** 60) is past any gap ratio a float can tell from one.
POWER_MAX_SQUARINGS = 60
# Largest error bound a Perron vector may carry, relative to its smallest
# entry (to its largest once the residual is at rounding level).
PERRON_REL_TOL = 1e-12
EPS = float(np.finfo(float).eps)
# Step sizes below this share of the largest entry are rounding noise.
CONTRACTION_NOISE = 16 * EPS
CONTRACTION_WINDOW = 8
RATIONALIZE_DENOMINATOR = 10**6
# How far a rational candidate for the leading eigenvalue may sit from the
# float one.
EXACT_MATCH_TOL = 1e-9

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Potential:
    """Log-weights on admissible `span`-words, optionally with exact weights."""

    span: int
    phi: Mapping[Symbols, float]
    exact_weights: Optional[Mapping[Symbols, Fraction]] = None

    def weight_float(self, block: Symbols) -> float:
        if self.exact_weights is not None:
            return float(self.exact_weights[block])
        return math.exp(self.phi[block])


def _exactable(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def uniform_potential(sys: SftSystem) -> Potential:
    """The zero potential; its equilibrium state maximises entropy."""
    phi = {(a,): 0.0 for a in range(sys.k)}
    exact = {(a,): Fraction(1) for a in range(sys.k)}
    return Potential(1, phi, exact)


def bernoulli_potential(sys: SftSystem, weights: Sequence) -> Potential:
    if len(weights) != sys.k:
        raise ValueError("need one weight per symbol")
    if any(float(w) <= 0 for w in weights):
        raise ValueError("weights must be positive")
    phi = {(a,): math.log(float(weights[a])) for a in range(sys.k)}
    exact = None
    if _exactable(weights):
        exact = {(a,): Fraction(weights[a]) for a in range(sys.k)}
    return Potential(1, phi, exact)


def markov_potential(sys: SftSystem, rows: Sequence[Sequence]) -> Potential:
    """Span-2 potential phi(a,b) = log rows[a][b] on admissible pairs."""
    phi: dict[Symbols, float] = {}
    flat = []
    for a in range(sys.k):
        for b in sys.successors(a):
            w = rows[a][b]
            if float(w) <= 0:
                raise ValueError(f"weight for admissible pair ({a},{b}) must be positive")
            phi[(a, b)] = math.log(float(w))
            flat.append(w)
    exact = None
    if _exactable(flat):
        exact = {
            (a, b): Fraction(rows[a][b])
            for a in range(sys.k)
            for b in sys.successors(a)
        }
    return Potential(2, phi, exact)


def potential_from_table(
    sys: SftSystem,
    phi: Mapping[Sequence[int], float],
    exact_weights: Optional[Mapping[Sequence[int], Rational]] = None,
) -> Potential:
    table = {tuple(k): float(v) for k, v in phi.items()}
    spans = {len(k) for k in table}
    if len(spans) != 1:
        raise ValueError("potential table keys must all have the same length")
    exact = None
    if exact_weights is not None:
        exact = {tuple(k): Fraction(v) for k, v in exact_weights.items()}
    return _checked_potential(spans.pop(), table, exact, sys)


def _checked_potential(
    span: int,
    phi: dict[Symbols, float],
    exact: Optional[dict[Symbols, Fraction]],
    sys: Optional[SftSystem],
) -> Potential:
    """A Potential once its table holds up; ValueError naming the first
    word that does not.

    Every exp(value) must be a positive finite float; exact weights, when
    given, must cover the same words and agree with the values within
    1e-12 relative to log(weight); given a system, every admissible
    span-word needs a value.
    """
    for word, value in phi.items():
        if not math.isfinite(value):
            raise ValueError(f"potential value {value!r} for the word {word} is not finite")
        try:
            weight = math.exp(value)
        except OverflowError:
            raise ValueError(
                f"potential value {value!r} for the word {word} overflows exp"
            ) from None
        if weight == 0.0:
            raise ValueError(f"potential value {value!r} for the word {word} underflows exp")
    if exact is not None:
        if set(exact) != set(phi):
            odd = sorted(set(exact) ^ set(phi))
            raise ValueError(
                f"exact weights must cover exactly the potential table; the word {odd[0]} "
                "is in only one of them"
            )
        for word, w in exact.items():
            try:
                log_w = math.log(w)
            except (OverflowError, ValueError):  # w <= 0, or beyond float range
                log_w = math.nan
            if not abs(phi[word] - log_w) <= 1e-12 * abs(log_w):
                raise ValueError(
                    f"exact weight {w} for the word {word} disagrees with its value "
                    f"{phi[word]!r}"
                )
    if sys is not None:
        for w in enumerate_cylinders(sys, span, U_SIDE):
            if w.symbols not in phi:
                raise ValueError(f"potential table is missing the admissible word {w.symbols}")
    return Potential(span, phi, exact)


def perron(T: np.ndarray) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and positive right eigenvector, summing to one, of
    a primitive nonnegative matrix.

    Power iteration from the uniform vector.  While a round of POWER_ROUND
    steps does not settle, the iterated matrix is squared, which squares
    its gap ratio |lambda_2 / lambda_1|, and the iteration goes on from the
    current vector; a settled vector of a squared matrix is re-read through
    one product with T.  The error of the result is bounded by its residual
    divided by the spectral gap 1 - |lambda_2 / lambda_1|, the gap ratio
    being read off the contraction of successive steps.  A settled vector
    is returned once that bound is at most PERRON_REL_TOL times its
    smallest entry, so that every entry is accurate relative to itself.
    Otherwise the iteration goes on until its residual is at rounding level
    (or no round settles), and the last settled vector whose bound is at
    most PERRON_REL_TOL times its largest entry is returned;
    NonConvergentEigensolve is raised when there is none.

    The returned lambda is sum(T x) for the last iterate x, which sums to
    one: the mean, weighted by x, of x's Collatz-Wielandt quotients
    (T x)_i / x_i, which bracket rho(T).  So |lambda - rho| is at most
    lambda * max_i |r_i| / x_i for the residual r = T x / lambda - x:
    PERRON_REL_TOL / (1 - PERRON_REL_TOL) relative for a vector accurate
    relative to its smallest entry, PERRON_REL_TOL times the ratio of its
    largest entry to its smallest for one accepted against its largest,
    besides the (n + 1) * EPS rounding of the sum.  A quotient (T x)_i / x_i
    computed in floats, a sum of n nonnegative products and one division,
    is within (n + 2) * EPS of its exact value, relative.
    """
    n = T.shape[0]
    x = np.full(n, 1.0 / n)
    P = T
    gap_ratio = 0.0
    accepted = None
    for squarings in range(POWER_MAX_SQUARINGS + 1):
        steps: list[float] = []
        lam_prev = 0.0
        for _ in range(POWER_ROUND):
            y = P @ x
            lam = float(y.sum())
            if not lam > 0:
                raise NonConvergentEigensolve("transfer matrix iterate lost positivity")
            y /= lam
            steps.append(float(abs(y - x).max()))
            if steps[-1] < POWER_TOL and abs(lam - lam_prev) <= POWER_TOL * lam:
                gap_ratio = _gap_ratio(steps, float(y.max()), squarings, gap_ratio)
                residual = steps[-1]
                if squarings:
                    x = y
                    y = T @ x
                    lam = float(y.sum())
                    y /= lam
                    residual = float(abs(y - x).max())
                top = float(y.max())
                floor = EPS * top
                bound = max(residual, floor) / (1.0 - gap_ratio) if gap_ratio < 1.0 else math.inf
                if bound <= PERRON_REL_TOL * float(y.min()):
                    return lam, y
                if bound <= PERRON_REL_TOL * top:
                    accepted = lam, y
                if residual <= floor or steps[-1] <= floor:
                    if accepted is not None:
                        return accepted
                    raise NonConvergentEigensolve(
                        f"Perron vector error bound {bound:.3g} exceeds {PERRON_REL_TOL:g} "
                        f"of its largest entry (gap ratio {gap_ratio!r})"
                    )
            x, lam_prev = y, lam
        gap_ratio = _gap_ratio(steps, float(x.max()), squarings, gap_ratio)
        P = np.einsum("ij,jk->ik", P, P)
        P /= P.max()
    if accepted is not None:
        return accepted
    raise NonConvergentEigensolve(
        f"power iteration did not settle after {POWER_MAX_SQUARINGS} squarings"
    )


def _gap_ratio(steps: list[float], top: float, squarings: int, previous: float) -> float:
    """The gap ratio of T read off one round of steps of T ** (2 ** squarings).

    Takes the round's step sizes above rounding level, up to the first one
    below it, and compares the largest of the last m of them with the
    largest of the m before (m at most CONTRACTION_WINDOW): their ratio
    is the contraction of m steps, and the envelope is robust to the
    oscillation that complex subdominant eigenvalues cause.  A round with
    fewer than two such steps tells nothing, and `previous` stands; so does
    a reading of one or more before a step at rounding level, the finite
    transient of a defective zero eigenvalue (a primitive matrix has
    |lambda_2 / lambda_1| < 1).
    """
    b = 0
    while b < len(steps) and steps[b] > CONTRACTION_NOISE * top:
        b += 1
    m = min(CONTRACTION_WINDOW, b // 2)
    if m < 1:
        return previous
    shrink = max(steps[b - m : b]) / max(steps[b - 2 * m : b - m])
    if shrink >= 1.0 and b < len(steps):
        return previous
    return shrink ** (1.0 / (m * 2**squarings))


def _kernel_vector(M: list[dict[int, int]]) -> Optional[list[int]]:
    """One nonzero kernel vector of a square integer matrix in sparse rows
    {column: entry}, or None.

    Fraction-free Gauss-Jordan: each column's pivot row is scaled into every
    other row with an entry there, and each updated row is divided by its
    gcd.  With f the first column without a pivot, the vector is x[f] = 1
    and x[c] = -A[r][f] / A[r][c] for the pivot row r of each column c,
    scaled to coprime integers with x[f] > 0.
    """
    rows = [{j: a for j, a in row.items() if a} for row in M]
    pending = set(range(len(rows)))
    pivot_row_of: dict[int, int] = {}
    for c in range(len(rows)):
        holders = [i for i in pending if c in rows[i]]
        if not holders:
            continue
        p = min(holders, key=lambda i: (len(rows[i]), i))
        pending.discard(p)
        for i, row in enumerate(rows):
            if i != p and c in row:
                g = math.gcd(rows[p][c], row[c])
                a, b = rows[p][c] // g, row[c] // g
                out = {j: a * x for j, x in row.items()}
                for j, y in rows[p].items():
                    out[j] = out.get(j, 0) - b * y
                g = math.gcd(*out.values()) or 1
                rows[i] = {j: x // g for j, x in out.items() if x}
        pivot_row_of[c] = p
    free = next((c for c in range(len(rows)) if c not in pivot_row_of), None)
    if free is None:
        return None
    # A pivot row has entries only at its pivot column and at free columns.
    scale = math.lcm(*(rows[r][c] for c, r in pivot_row_of.items()))
    x = [0] * len(rows)
    x[free] = scale
    for c, r in pivot_row_of.items():
        x[c] = -rows[r].get(free, 0) * scale // rows[r][c]
    g = math.gcd(*x)
    return [a // g for a in x]


def _window_chain(lam, u, v, weight, blocks, moves):
    """The measure as a Markov chain on its blocks (Parry): the measure of
    every word up to one block long, and the factor f = T[i][j] u[j] /
    (u[i] lam) of every move i -> j, keyed by the move's word.

    lam, u and v (v . u = 1) are all floats or all Fractions; `weight`
    gives T[i][j] from the move's word.  A word up to one block long
    measures the sum of pi_b = v_b u_b over the blocks it begins; the empty
    word measures exactly 1.
    """
    seeds = {(): type(lam)(1)}
    for b, x, y in zip(blocks, u, v):
        for t in range(1, len(b) + 1):
            seeds[b[:t]] = seeds.get(b[:t], 0) + y * x
    return seeds, {word: weight(word) * u[j] / (u[i] * lam) for i, j, word in moves}


class GibbsMeasure:
    """Cylinder measures, pressure, and scaling data for one potential."""

    def __init__(self, sys: SftSystem, potential: Potential) -> None:
        self.sys = sys
        self.potential = potential
        self.span = span = potential.span
        self.block_len = max(span, 2) - 1
        for w in enumerate_cylinders(sys, span, U_SIDE):
            if w.symbols not in potential.phi:
                raise ValueError(f"potential is missing the admissible word {w.symbols}")

        blocks, moves = window_transitions(sys, self.block_len, U_SIDE)
        T = np.zeros((len(blocks), len(blocks)))
        for i, j, word in moves:
            T[i, j] = potential.weight_float(word[-span:])

        lam_r, u = perron(T)
        lam_l, v = perron(T.T)
        self.lam = 0.5 * (lam_r + lam_l)
        W = potential.exact_weights
        data = None if W is None else self._try_exact(len(blocks), moves)
        self.exact = data is not None
        if data is None:
            data = self.lam, u.tolist(), (v / float(v @ u)).tolist()
        weight = W.__getitem__ if self.exact else potential.weight_float
        # The measure of every word measured so far, and f of every move.
        self._cache, self._factor = _window_chain(
            *data, lambda word: weight(word[-span:]), blocks, moves
        )

    def _try_exact(self, nb: int, moves: list[tuple[int, int, Symbols]]):
        """(lam, u, v) as Fractions, u summing to one and v . u = 1, or None
        where the leading eigenvalue or a Perron vector is not rational."""
        W = self.potential.exact_weights
        assert W is not None
        # With D the lcm of the weights' denominators, D * lam is an algebraic
        # integer, so a rational lam needs D * lam to be an integer.
        D = math.lcm(*(w.denominator for w in W.values()))
        slack = D * EXACT_MATCH_TOL
        if slack < 0.5 and abs(D * self.lam - round(D * self.lam)) > slack:
            return None
        # The one candidate: an integer within EXACT_MATCH_TOL of lam is
        # nearer to it than any other fraction of denominator <= 10**6.
        lam = Fraction(self.lam).limit_denominator(RATIONALIZE_DENOMINATOR)
        if not lam > 0 or abs(float(lam) - self.lam) > EXACT_MATCH_TOL:
            return None
        # S * (T - lam I) has integer entries; its sparse rows and columns.
        S = math.lcm(D, lam.denominator)
        diag = S // lam.denominator * lam.numerator
        rows = [{i: -diag} for i in range(nb)]
        cols = [{i: -diag} for i in range(nb)]
        for i, j, word in moves:
            w = W[word[-self.span :]]
            rows[i][j] = cols[j][i] = rows[i].get(j, 0) + S // w.denominator * w.numerator
        u, v = _kernel_vector(rows), _kernel_vector(cols)
        if u is None or v is None:
            return None
        # Each has a positive entry, so a Perron vector is positive throughout.
        if any(x <= 0 for x in u) or any(x <= 0 for x in v):
            return None
        # T u = lam u and v T = lam v, checked entry by entry in O(nnz).
        if any(sum(a * y[j] for j, a in r.items()) for A, y in ((rows, u), (cols, v)) for r in A):
            return None
        su, dot = sum(u), sum(a * b for a, b in zip(v, u))
        return lam, [Fraction(x, su) for x in u], [Fraction(x * su, dot) for x in v]

    @property
    def pressure(self) -> float:
        return math.log(self.lam)

    # -- cylinder measures ----------------------------------------------

    def _symbols_of(self, w: Union[Word, Sequence[int]]) -> Symbols:
        if isinstance(w, Word):
            return w.symbols
        if isinstance(w, Seg):
            raise TypeError("measure expects a word, not a segment descriptor")
        return tuple(w)

    def _walk(self, syms: Symbols) -> Union[float, Fraction]:
        """The measure of a word in the numbers of the route taken: its
        longest measured prefix of at least one block times one factor per
        further symbol, m(w a) = m(w) f.  A word up to one block long that
        is not measured already, or a move missing from the factor table,
        gives 0."""
        cache = self._cache
        out = cache.get(syms)
        if out is None:
            L, n = self.block_len, len(syms) - 1
            while n >= L and syms[:n] not in cache:
                n -= 1
            if n < L:  # a prefix shorter than one block gives 0
                return 0 * cache[()]
            out = cache[syms[:n]]
            for end in range(n + 1, len(syms) + 1):
                out *= self._factor.get(syms[end - L - 1 : end], 0)
            cache[syms] = out
        return out

    def measure_exact(self, w: Union[Word, Sequence[int]]) -> Fraction:
        """The cylinder measure as an exact rational (exact route only); 0
        when inadmissible.  The chain's walk in Fractions: see `_walk`."""
        if not self.exact:
            raise ValueError("this measure has no exact rational form")
        return self._walk(self._symbols_of(w))

    def measure(self, w: Union[Word, Sequence[int]]) -> float:
        """Measure of the cylinder named by a word; 0 when inadmissible.  On
        the exact route, the float of the exact measure."""
        return float(self._walk(self._symbols_of(w)))

    # -- window conditionals ---------------------------------------------

    def conditional(self, word: Symbols, side: str) -> float:
        """measure(word) / measure(mother of word) on `side`, window-stabilised.

        Exact for any word: once the mother is at least one block long the
        ratio only depends on the deepest block + 1 symbols, and shorter
        words are used whole.
        """
        window = deep_window_of(word, self.block_len + 1, side)
        return self.measure(window) / self.measure(drop_deep(window, side))


# ----------------------------------------------------------------------
# scaling and ratio functions


def measure_scaling(g: GibbsMeasure, w: Word) -> float:
    """Ratio of a cylinder to its one-step shallowing at the time-zero end."""
    if len(w) < g.span:
        raise WordTooShort(
            f"scaling needs at least {g.span} symbols, got {len(w)}"
        )
    # the time-zero end of a word is the deep end on the opposite side
    return g.measure(w.symbols) / g.measure(drop_deep(w.symbols, opposite(w.side)))


@dataclass(frozen=True)
class AdmissiblePair:
    """A leaf word and a cylinder word on opposite sides, sharing a pivot.

    `xi` fixes the transverse position, `c` is the cylinder whose ratio
    is being read off; they join along the common time-zero symbol.
    """

    xi: Word
    c: Word

    def __post_init__(self) -> None:
        if self.xi.side == self.c.side:
            raise InadmissiblePair("leaf and cylinder must live on opposite sides")
        if len(self.xi) == 0 or len(self.c) == 0:
            raise InadmissiblePair("leaf and cylinder must be non-empty")
        if self.xi.pivot != self.c.pivot:
            raise InadmissiblePair(
                f"pivot symbols differ: {self.xi.pivot} vs {self.c.pivot}"
            )

    @property
    def joined(self) -> Symbols:
        if self.c.side == U_SIDE:
            return self.xi.symbols[:-1] + self.c.symbols
        return self.c.symbols[:-1] + self.xi.symbols


def extended_scaling(g: GibbsMeasure, pair: AdmissiblePair) -> float:
    """Ratio of the cylinder relative to the leaf, as a product of
    window-stabilised one-symbol conditionals along the cylinder's mothers,
    shallowest first."""
    joined = Word(pair.joined, pair.c.side)
    out = 1.0
    for i in range(len(pair.c) - 2, -1, -1):
        out *= g.conditional(mother(joined, i).symbols, joined.side)
    return out


def dual_measure_ratio(
    g: GibbsMeasure, i: Word, k: Word, side: str, m_dual: int
) -> float:
    """Ratio of two same-side cylinders read through their common
    opposite-side continuations of length `m_dual`.

    Sums the measures of both words over every continuation admissible
    past each pivot, and divides. Raises NoCommonLeaf when the words are
    not on the stated side or share no continuation.
    """
    if m_dual < 0:
        raise ValueError("continuation length must be non-negative")
    if i.side != side or k.side != side:
        raise NoCommonLeaf("both words must live on the stated side")
    # past the pivot of a `side` word is the deep end on the opposite side
    back, ext = opposite(side), g.sys.deep_extensions
    pairs = [(i.symbols, k.symbols)]
    for _ in range(m_dual):
        pairs = [
            (deep_extend(a, c, back), deep_extend(b, c, back))
            for a, b in pairs
            for c in sorted(set(ext(a, back)) & set(ext(b, back)))
        ]
    if not pairs:
        raise NoCommonLeaf("the pivots admit no common continuation")
    return sum(g.measure(a) for a, _ in pairs) / sum(g.measure(b) for _, b in pairs)


# ----------------------------------------------------------------------
# potential files


def potential_to_json(p: Potential) -> str:
    import json

    obj: dict = {
        "range": p.span,
        "values": {",".join(map(str, k)): v for k, v in sorted(p.phi.items())},
    }
    if p.exact_weights is not None:
        obj["weights"] = {
            ",".join(map(str, k)): f"{w.numerator}/{w.denominator}"
            for k, w in sorted(p.exact_weights.items())
        }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def potential_from_json(text: str, sys: Optional[SftSystem] = None) -> Potential:
    """Parse a potential file; given a system, also check that it covers
    every admissible word (see _checked_potential)."""
    import json

    obj = json.loads(text)
    span = json_int(obj["range"])
    phi = {
        tuple(int(t) for t in key.split(",")): float(v)
        for key, v in obj["values"].items()
    }
    exact = None
    if "weights" in obj:
        exact = {
            tuple(int(t) for t in key.split(",")): Fraction(s)
            for key, s in obj["weights"].items()
        }
    for k in phi:
        if len(k) != span:
            raise ValueError("potential keys disagree with the stated range")
    return _checked_potential(span, phi, exact, sys)
