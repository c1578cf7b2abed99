"""Equilibrium states of locally constant potentials, via transfer matrices.

A potential of span m assigns a log-weight to every admissible m-word.
The induced transfer matrix acts on (max(m,2)-1)-blocks; its
Perron-Frobenius data gives the pressure and the cylinder measures.
When the weights are exact rationals and the leading eigenvalue is
rational too, all cylinder measures are computed as Fractions and the
float API just projects them.
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
from .sft import S_SIDE, U_SIDE, Seg, SftSystem, Symbols, Word, enumerate_cylinders

POWER_TOL = 1e-14
# Power-iteration steps per round; every round that does not settle squares
# the iterated matrix.  The builtins settle within the first round.
POWER_ROUND = 64
# T ** (2 ** 60) is past any gap ratio a float can tell from one.
POWER_MAX_SQUARINGS = 60
# Largest error bound a Perron vector may carry, relative to its largest entry.
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
    whose bound exceeds PERRON_REL_TOL times its largest entry is iterated
    further while its residual is above rounding level; past that, or when
    no round settles, NonConvergentEigensolve is raised.
    """
    n = T.shape[0]
    x = np.full(n, 1.0 / n)
    P = T
    gap_ratio = 0.0
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
                if bound <= PERRON_REL_TOL * top:
                    return lam, y
                if residual <= floor or steps[-1] <= floor:
                    raise NonConvergentEigensolve(
                        f"Perron vector error bound {bound:.3g} exceeds {PERRON_REL_TOL:g} "
                        f"of its largest entry (gap ratio {gap_ratio!r})"
                    )
            x, lam_prev = y, lam
        gap_ratio = _gap_ratio(steps, float(x.max()), squarings, gap_ratio)
        P = np.einsum("ij,jk->ik", P, P)
        P /= P.max()
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
    fewer than two such steps tells nothing, and `previous` stands.
    """
    b = 0
    while b < len(steps) and steps[b] > CONTRACTION_NOISE * top:
        b += 1
    m = min(CONTRACTION_WINDOW, b // 2)
    if m < 1:
        return previous
    shrink = max(steps[b - m : b]) / max(steps[b - 2 * m : b - m])
    return shrink ** (1.0 / (m * 2**squarings))


def _kernel_vector(M: list[list[Fraction]]) -> Optional[list[Fraction]]:
    """One nonzero kernel vector of a square rational matrix, or None."""
    n = len(M)
    A = [row[:] for row in M]
    pivot_row_of: dict[int, int] = {}
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        inv = A[r][c]
        A[r] = [x / inv for x in A[r]]
        for i in range(n):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivot_row_of[c] = r
        r += 1
        if r == n:
            return None
    free = next(c for c in range(n) if c not in pivot_row_of)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for c, row in pivot_row_of.items():
        x[c] = -A[row][free]
    return x


class GibbsMeasure:
    """Cylinder measures, pressure, and scaling data for one potential."""

    def __init__(self, sys: SftSystem, potential: Potential) -> None:
        self.sys = sys
        self.potential = potential
        self.span = potential.span
        self.block_len = max(potential.span, 2) - 1
        for w in enumerate_cylinders(sys, potential.span, U_SIDE):
            if w.symbols not in potential.phi:
                raise ValueError(f"potential is missing the admissible word {w.symbols}")

        blocks = [w.symbols for w in enumerate_cylinders(sys, self.block_len, U_SIDE)]
        self._blocks = blocks
        self._bindex = {b: i for i, b in enumerate(blocks)}
        nb = len(blocks)
        T = np.zeros((nb, nb))
        for i, b in enumerate(blocks):
            for c in sys.successors(b[-1]):
                full = b + (c,)
                j = self._bindex[full[1:]]
                T[i, j] = potential.weight_float(full[-potential.span :])
        self._T = T

        lam_r, u = perron(T)
        lam_l, v = perron(T.T)
        self.lam = 0.5 * (lam_r + lam_l)
        v = v / float(v @ u)
        self._u = u
        self._v = v

        self._exact_data = None
        if potential.exact_weights is not None:
            self._exact_data = self._try_exact()
        self._cache_float: dict[Symbols, float] = {}
        self._cache_exact: dict[Symbols, Fraction] = {}

    # -- exact route ---------------------------------------------------

    def _try_exact(self):
        W = self.potential.exact_weights
        assert W is not None
        # With D the lcm of the weights' denominators, D * lam is an algebraic
        # integer, so a rational lam needs D * lam to be an integer.
        D = math.lcm(*(w.denominator for w in W.values()))
        slack = D * EXACT_MATCH_TOL
        if slack < 0.5 and abs(D * self.lam - round(D * self.lam)) > slack:
            return None
        nb = len(self._blocks)
        Tx = [[Fraction(0)] * nb for _ in range(nb)]
        for i, b in enumerate(self._blocks):
            for c in self.sys.successors(b[-1]):
                full = b + (c,)
                Tx[i][self._bindex[full[1:]]] = W[full[-self.span :]]

        seen: set[Fraction] = set()
        candidates = []
        for cand in (
            Fraction(self.lam).limit_denominator(RATIONALIZE_DENOMINATOR),
            Fraction(round(self.lam)),
        ):
            if cand > 0 and cand not in seen:
                seen.add(cand)
                candidates.append(cand)
        for lam in candidates:
            if abs(float(lam) - self.lam) > EXACT_MATCH_TOL:
                continue
            M = [
                [Tx[i][j] - (lam if i == j else 0) for j in range(nb)]
                for i in range(nb)
            ]
            u = _kernel_vector(M)
            v = _kernel_vector([list(col) for col in zip(*M)])
            if u is None or v is None:
                continue
            if all(x <= 0 for x in u):
                u = [-x for x in u]
            if all(x <= 0 for x in v):
                v = [-x for x in v]
            if any(x <= 0 for x in u) or any(x <= 0 for x in v):
                continue
            su = sum(u)
            u = [x / su for x in u]
            dot = sum(a * b for a, b in zip(v, u))
            v = [x / dot for x in v]
            ok_u = all(
                sum(Tx[i][j] * u[j] for j in range(nb)) == lam * u[i]
                for i in range(nb)
            )
            ok_v = all(
                sum(v[i] * Tx[i][j] for i in range(nb)) == lam * v[j]
                for j in range(nb)
            )
            if ok_u and ok_v:
                return lam, Tx, u, v
        return None

    @property
    def exact(self) -> bool:
        return self._exact_data is not None

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

    def _block_words(self, syms: Symbols) -> list[Symbols]:
        words = [syms]
        while len(words[0]) < self.block_len:
            words = [w + (c,) for w in words for c in self.sys.successors(w[-1])]
        return words

    def measure_exact(self, w: Union[Word, Sequence[int]]) -> Fraction:
        """The cylinder measure as an exact rational (exact mode only)."""
        if self._exact_data is None:
            raise ValueError("this measure has no exact rational form")
        syms = self._symbols_of(w)
        if not self.sys.is_admissible(syms):
            return Fraction(0)
        if syms in self._cache_exact:
            return self._cache_exact[syms]
        lam, Tx, u, v = self._exact_data
        if len(syms) == 0:
            out = Fraction(1)
        elif len(syms) < self.block_len:
            out = sum(
                (self.measure_exact(e) for e in self._block_words(syms)),
                Fraction(0),
            )
        else:
            L = self.block_len
            i = self._bindex[syms[:L]]
            out = v[i]
            for pos in range(len(syms) - L):
                j = self._bindex[syms[pos + 1 : pos + 1 + L]]
                out *= Tx[i][j]
                i = j
            out *= u[i] * lam ** -(len(syms) - L)
        self._cache_exact[syms] = out
        return out

    def measure(self, w: Union[Word, Sequence[int]]) -> float:
        """Measure of the cylinder named by a word; 0 when inadmissible."""
        syms = self._symbols_of(w)
        if syms in self._cache_float:
            return self._cache_float[syms]
        if not self.sys.is_admissible(syms):
            return 0.0
        if self._exact_data is not None:
            out = float(self.measure_exact(syms))
        elif len(syms) == 0:
            out = 1.0
        elif len(syms) < self.block_len:
            out = sum(self.measure(e) for e in self._block_words(syms))
        else:
            L = self.block_len
            i = self._bindex[syms[:L]]
            acc = float(self._v[i])
            for pos in range(len(syms) - L):
                j = self._bindex[syms[pos + 1 : pos + 1 + L]]
                acc *= self._T[i, j]
                i = j
            out = float(acc * self._u[i] * self.lam ** -(len(syms) - L))
        self._cache_float[syms] = out
        return out

    # -- window conditionals ---------------------------------------------

    def append_conditional(self, prefix: Symbols, sym: int) -> float:
        """measure(prefix + sym) / measure(prefix), window-stabilised.

        Exact for any prefix: once the prefix is at least one block long
        the ratio only depends on the deepest block, and shorter prefixes
        are used whole.
        """
        window = prefix[-self.block_len :] if len(prefix) > self.block_len else prefix
        return self.measure(window + (sym,)) / self.measure(window)

    def prepend_conditional(self, sym: int, suffix: Symbols) -> float:
        window = suffix[: self.block_len] if len(suffix) > self.block_len else suffix
        return self.measure((sym,) + window) / self.measure(window)


def gibbs_measure(sys: SftSystem, potential: Potential) -> GibbsMeasure:
    return GibbsMeasure(sys, potential)


# ----------------------------------------------------------------------
# scaling and ratio functions


def measure_scaling(g: GibbsMeasure, w: Word) -> float:
    """Ratio of a cylinder to its one-step shallowing at the time-zero end."""
    if len(w) < g.span:
        raise WordTooShort(
            f"scaling needs at least {g.span} symbols, got {len(w)}"
        )
    shallow = w.symbols[1:] if w.side == U_SIDE else w.symbols[:-1]
    return g.measure(w.symbols) / g.measure(shallow)


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
    window-stabilised one-symbol conditionals along the cylinder's mothers."""
    c = pair.c.symbols
    if len(c) == 1:
        return 1.0
    out = 1.0
    if pair.c.side == U_SIDE:
        prefix = pair.xi.symbols
        for sym in c[1:]:
            out *= g.append_conditional(prefix, sym)
            prefix = prefix + (sym,)
    else:
        suffix = pair.xi.symbols
        for sym in reversed(c[:-1]):
            out *= g.prepend_conditional(sym, suffix)
            suffix = (sym,) + suffix
    return out


def ratio_decomposition_residual(g: GibbsMeasure, c: Word, depth: int) -> float:
    """How far the leaf decomposition of a cylinder is from its measure.

    Sums extended_scaling against the measures of all depth-`depth`
    opposite-side leaves sharing the cylinder's pivot.
    """
    if depth < 1:
        raise ValueError("leaf depth must be at least 1")
    opp = S_SIDE if c.side == U_SIDE else U_SIDE
    total = 0.0
    for xi in enumerate_cylinders(g.sys, depth, opp):
        if xi.pivot != c.pivot:
            continue
        total += extended_scaling(g, AdmissiblePair(xi, c)) * g.measure(xi.symbols)
    return abs(g.measure(c.symbols) - total)


def _as_seg(x: Union[Word, Seg], side: str) -> Seg:
    if isinstance(x, Word):
        if x.side != side:
            raise NoCommonLeaf(f"word is on side {x.side!r}, expected {side!r}")
        return Seg("cyl", x.symbols)
    return x


def measure_ratio(g: GibbsMeasure, i: Union[Word, Seg], j: Union[Word, Seg], side: str) -> float:
    """nu(I)/nu(J) for same-side segments; gaps carry no measure."""
    si = _as_seg(i, side)
    sj = _as_seg(j, side)
    if sj.is_gap:
        raise NoCommonLeaf("denominator segment is a gap")
    if si.is_gap:
        return 0.0
    return g.measure(si.word) / g.measure(sj.word)


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
    sys = g.sys
    if m_dual == 0:
        ws: list[Symbols] = [()]
    elif side == S_SIDE:
        starts = sorted(set(sys.successors(i.pivot)) & set(sys.successors(k.pivot)))
        ws = [(a,) for a in starts]
        for _ in range(m_dual - 1):
            ws = [w + (c,) for w in ws for c in sys.successors(w[-1])]
    else:
        ends = sorted(set(sys.predecessors(i.pivot)) & set(sys.predecessors(k.pivot)))
        ws = [(a,) for a in ends]
        for _ in range(m_dual - 1):
            ws = [(c,) + w for w in ws for c in sys.predecessors(w[0])]
    if not ws:
        raise NoCommonLeaf("the pivots admit no common continuation")
    if side == S_SIDE:
        num = sum(g.measure(i.symbols + w) for w in ws)
        den = sum(g.measure(k.symbols + w) for w in ws)
    else:
        num = sum(g.measure(w + i.symbols) for w in ws)
        den = sum(g.measure(w + k.symbols) for w in ws)
    return num / den


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
    span = int(obj["range"])
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
