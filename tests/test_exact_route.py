"""The measure's window chain against dense references: the integer
kernel of gibbs._kernel_vector against Fraction Gauss-Jordan, the exact
Perron data (lambda, u, v) against the dense elimination it replaced, and
the chain's one stored factor per symbol against the block product of
every word from scratch, in Fractions on the exact route and in floats on
the float route."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftgeom.gibbs as gibbs
from sftgeom.builtins import BUILTIN_NAMES, builtin
from sftgeom.gibbs import GibbsMeasure, Potential
from sftgeom.sft import U_SIDE, enumerate_cylinders
from test_merged_paths import window_transitions
from test_window_table import _draw_gapped_system

EXACT_BUILTINS = [name for name in BUILTIN_NAMES if builtin(name).measure.exact]
# The exact builtins have span 1; "span-3" (span3_measure) has blocks of two.
EXACT_CASES = [*EXACT_BUILTINS, "span-3"]
MAX_WORD = 8
# Every word is checked against its block product from scratch; a drawn
# full 4-shift has 4 ** 8 words of 8 symbols.
MAX_FLOAT_WORD = 6


# ----------------------------------------------------------------------
# dense Fraction references


def fraction_kernel_vector(M):
    """One nonzero kernel vector of a square rational matrix, or None, by
    Gauss-Jordan over Fractions: x[f] = 1 at the first column f without a
    pivot."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    pivot_row_of = {}
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


def dense_transfer(g, exact=True):
    """The transfer matrix of a measure as a dense matrix of Fractions (of
    floats when not `exact`), and the index of its blocks."""
    weight = g.potential.exact_weights.__getitem__ if exact else g.potential.weight_float
    blocks, moves = window_transitions(g.sys, g.block_len, U_SIDE)
    T = [[Fraction(0) if exact else 0.0] * len(blocks) for _ in blocks]
    for i, j, word in moves:
        T[i][j] = weight(word[-g.span :])
    return T, {b: i for i, b in enumerate(blocks)}


def dense_exact_data(g):
    """(lambda, u, v) by dense elimination of T - lambda I and its transpose,
    with the candidate and the checks of the exact route; None where it
    takes the float route."""
    W = g.potential.exact_weights
    D = math.lcm(*(w.denominator for w in W.values()))
    slack = D * gibbs.EXACT_MATCH_TOL
    if slack < 0.5 and abs(D * g.lam - round(D * g.lam)) > slack:
        return None
    T, _ = dense_transfer(g)
    n = len(T)
    lam = Fraction(g.lam).limit_denominator(gibbs.RATIONALIZE_DENOMINATOR)
    if not lam > 0 or abs(float(lam) - g.lam) > gibbs.EXACT_MATCH_TOL:
        return None
    M = [[T[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    u = fraction_kernel_vector(M)
    v = fraction_kernel_vector([list(col) for col in zip(*M)])
    if u is None or v is None:
        return None
    if all(x <= 0 for x in u):
        u = [-x for x in u]
    if all(x <= 0 for x in v):
        v = [-x for x in v]
    if any(x <= 0 for x in u) or any(x <= 0 for x in v):
        return None
    su = sum(u)
    u = [x / su for x in u]
    dot = sum(a * b for a, b in zip(v, u))
    v = [x / dot for x in v]
    ok_u = all(sum(T[i][j] * u[j] for j in range(n)) == lam * u[i] for i in range(n))
    ok_v = all(sum(v[i] * T[i][j] for i in range(n)) == lam * v[j] for j in range(n))
    return (lam, u, v) if ok_u and ok_v else None


def exact_reference(g):
    """The dense transfer matrix, its block index and (lambda, u, v), all in
    Fractions."""
    return (*dense_transfer(g), *dense_exact_data(g))


def float_reference(g):
    """The same in floats, (lambda, u, v) from `perron` of the dense matrix
    and its transpose, with v . u = 1."""
    T, index = dense_transfer(g, exact=False)
    lam_r, u = gibbs.perron(np.array(T))
    lam_l, v = gibbs.perron(np.array(T).T)
    return T, index, 0.5 * (lam_r + lam_l), u.tolist(), (v / float(v @ u)).tolist()


def block_product(g, syms, ref):
    """v[i] * prod T[i][j] * u[i] * lam ** -(n - L) along the blocks of a
    word of at least one block, from scratch: in floats, the float route's
    measure before both routes kept the chain."""
    T, index, lam, u, v = ref
    L = g.block_len
    i = index[syms[:L]]
    out = v[i]
    for pos in range(len(syms) - L):
        j = index[syms[pos + 1 : pos + 1 + L]]
        out *= T[i][j]
        i = j
    return out * u[i] * lam ** -(len(syms) - L)


def reference_measure(g, syms, ref):
    """The block product, or for a word shorter than a block the sum over
    its block-length extensions."""
    if len(syms) >= g.block_len:
        return block_product(g, syms, ref)
    return sum(reference_measure(g, syms + (c,), ref) for c in g.sys.successors(syms[-1]))


def normalised(x):
    first = next(a for a in x if a != 0)
    return [Fraction(a) / first for a in x]


# ----------------------------------------------------------------------
# drawn systems


@st.composite
def exact_gapped_measures(draw):
    """A `_draw_gapped_system` system and a potential of span 1 to 3 with
    exact weights: stochastic weights times a coboundary H(j) / H(i) on the
    blocks (lambda = 1, a u that is not constant), or small integers
    (sometimes a rational lambda, mostly not)."""
    sys, _ = _draw_gapped_system(draw, lambda key: True)
    span = draw(st.integers(1, 3))
    words = [w.symbols for w in enumerate_cylinders(sys, span, U_SIDE)]
    if span > 1 and draw(st.booleans()):
        H = {
            w.symbols: Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
            for w in enumerate_cylinders(sys, span - 1, U_SIDE)
        }
        weights = {}
        for m in H:
            nxt = sys.successors(m[-1])
            counts = draw(st.lists(st.integers(1, 9), min_size=len(nxt), max_size=len(nxt)))
            for c, n in zip(nxt, counts):
                w = m + (c,)
                weights[w] = Fraction(n, sum(counts)) * H[w[1:]] / H[m]
    else:
        weights = {w: Fraction(draw(st.integers(1, 4))) for w in words}
    phi = {w: math.log(x) for w, x in weights.items()}
    return GibbsMeasure(sys, Potential(span, phi, weights))


@st.composite
def integer_matrices(draw):
    """Square integer matrices of rank n, at most n - 1, or at most n - 2,
    as a product of an n x r and an r x n matrix with small, often zero,
    entries."""
    n = draw(st.integers(1, 6))
    r = draw(st.sampled_from([n, n - 1, draw(st.integers(0, max(n - 2, 0)))]))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])
    A = [[draw(entry) for _ in range(r)] for _ in range(n)]
    B = [[draw(entry) for _ in range(n)] for _ in range(r)]
    return [[sum(A[i][t] * B[t][j] for t in range(r)) for j in range(n)] for i in range(n)]


# ----------------------------------------------------------------------
# the kernel


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_integer_kernel_matches_fraction_elimination(M):
    want = fraction_kernel_vector(M)
    got = gibbs._kernel_vector([{j: a for j, a in enumerate(row) if a} for row in M])
    if want is None:
        assert got is None
        return
    assert got is not None and all(isinstance(a, int) for a in got)
    assert normalised(got) == normalised(want)
    assert all(sum(a * x for a, x in zip(row, got)) == 0 for row in M)


def assert_same_perron_data(g):
    want = dense_exact_data(g)
    assert g.exact == (want is not None)
    if want is not None:
        blocks, moves = window_transitions(g.sys, g.block_len, U_SIDE)
        assert g._try_exact(len(blocks), moves) == want


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_exact_perron_data_matches_dense_elimination_on_builtins(name):
    assert_same_perron_data(builtin(name).measure)


@settings(max_examples=40, deadline=None)
@given(exact_gapped_measures())
def test_exact_perron_data_matches_dense_elimination_on_generated_systems(g):
    assert_same_perron_data(g)


# ----------------------------------------------------------------------
# exact measures


def all_words(g, max_word):
    return [
        w.symbols for n in range(1, max_word + 1) for w in enumerate_cylinders(g.sys, n, U_SIDE)
    ]


def assert_measures_match_block_products(g, seed):
    """Every admissible word up to MAX_WORD symbols, children before their
    mothers as often as not."""
    ref = exact_reference(g)
    words = all_words(g, MAX_WORD)
    random.Random(seed).shuffle(words)
    for syms in words:
        want = reference_measure(g, syms, ref)
        assert g.measure_exact(syms) == want, syms
        assert g.measure(syms) == float(want), syms


def assert_float_measures_match_block_products(g, max_word):
    """Every admissible word up to `max_word` symbols, within 1e-14 of the
    float block product, relative."""
    assert not g.exact
    ref = float_reference(g)
    for syms in all_words(g, max_word):
        want = reference_measure(g, syms, ref)
        assert abs(g.measure(syms) - want) <= 1e-14 * want, syms


@settings(max_examples=15, deadline=None)
@given(exact_gapped_measures(), st.integers(0, 2**32))
def test_exact_measures_match_block_products_on_generated_systems(g, seed):
    """The exact block product where the drawn measure takes the exact
    route, and there the float one of the potential without its exact
    weights; the float one where the drawn measure takes the float route."""
    if g.exact:
        assert_measures_match_block_products(g, seed)
        g = GibbsMeasure(g.sys, Potential(g.span, g.potential.phi))
    assert_float_measures_match_block_products(g, MAX_FLOAT_WORD)


def test_float_measures_match_block_products_on_golden_anosov():
    b = builtin("golden-anosov")
    assert_float_measures_match_block_products(GibbsMeasure(b.sys, b.measure.potential), 16)


def span3_measure():
    """Stochastic span-3 weights on the full 2-shift times a coboundary on
    its 2-blocks: lambda = 1, blocks of two symbols, u not constant."""
    sys = builtin("horseshoe").sys
    H = {(0, 0): 1, (0, 1): Fraction(2, 3), (1, 0): 5, (1, 1): Fraction(1, 7)}
    rows = {(0, 0): (1, 2), (0, 1): (3, 1), (1, 0): (2, 5), (1, 1): (4, 4)}
    weights = {
        m + (c,): Fraction(rows[m][c], sum(rows[m])) * H[(m[1], c)] / H[m]
        for m in rows
        for c in (0, 1)
    }
    g = GibbsMeasure(sys, Potential(3, {w: math.log(x) for w, x in weights.items()}, weights))
    assert g.exact and g.block_len == 2 and len(set(dense_exact_data(g)[1])) > 1
    return g


def fresh_exact_measure(name):
    """A new measure for each test, so no test sees another's cache."""
    if name == "span-3":
        return span3_measure()
    b = builtin(name)
    return GibbsMeasure(b.sys, b.measure.potential)


@pytest.mark.parametrize("name", EXACT_CASES)
def test_exact_measures_match_block_products(name):
    assert_measures_match_block_products(fresh_exact_measure(name), 0)


@pytest.mark.parametrize("name", EXACT_CASES)
def test_long_periodic_word(name):
    g = fresh_exact_measure(name)
    loop = next(
        w.symbols
        for w in enumerate_cylinders(g.sys, 3, U_SIDE)
        if g.sys.is_admissible(w.symbols + w.symbols[:1])
    )
    syms = (loop * 2000)[:5000]
    assert g.measure_exact(syms) == block_product(g, syms, exact_reference(g))


class CountingDict(dict):
    """A dict that counts its lookups by `get`."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


@pytest.mark.parametrize("name", EXACT_CASES)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_a_child_costs_one_stored_factor(name, n):
    """With every word of length n measured, each word of length n + 1
    reads one stored factor."""
    g = fresh_exact_measure(name)
    for w in enumerate_cylinders(g.sys, n, U_SIDE):
        g.measure_exact(w.symbols)
    g._factor = CountingDict(g._factor)
    children = enumerate_cylinders(g.sys, n + 1, U_SIDE)
    for w in children:
        g.measure_exact(w.symbols)
    assert g._factor.reads == len(children)
