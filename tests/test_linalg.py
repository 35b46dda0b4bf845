"""Exact linear algebra against a plain Fraction Gauss-Jordan reference.

linalg eliminates only in integers: a Fraction row is first scaled by the lcm
of its denominators.  rank, pivot_columns and kernel_basis must agree with
the reference on int and Fraction input alike, kernel_basis must return
exactly the vectors of reduced_kernel, and a Fraction matrix must give the
same answers as its row-scaled integer copy, in integers.
intertwiner_system is checked by hand on the three indecomposables of
linear:1,2, and intertwiner_dim against its elimination on seeded
partial-shift systems.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nakayama.core import parse_module, validate
from nakayama.homology import hom_dim
from nakayama.linalg import (
    intertwiner_dim,
    intertwiner_system,
    kernel_basis,
    pivot_columns,
    rank,
    reduced_kernel,
)

# (rows, cols) of the random matrices: empty, wide, tall and square
SHAPES = [(0, 0), (0, 4), (1, 1), (1, 6), (2, 7), (3, 9), (9, 3), (7, 2),
          (4, 4), (6, 6), (5, 8), (8, 5), (3, 0)]


def _reference_rref(mat):
    """Gauss-Jordan over Fraction with unit pivots: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _reference_kernel(mat, ncols):
    """Per free column f: the primitive integer multiple of
    e_f - sum_r red[r][f] e_{pivot r} with a positive entry at f."""
    red, pivots = _reference_rref(mat)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        d = lcm(*(x.denominator for x in v))
        w = [int(x * d) for x in v]
        g = gcd(*w)
        out.append([x // g for x in w])
    return out


def _random_matrix(rng, m, n, fractions):
    def entry():
        if rng.random() < 0.5:
            return 0
        x = rng.randint(-4, 4)
        return Fraction(x, rng.randint(1, 5)) if fractions else x
    return [[entry() for _ in range(n)] for _ in range(m)]


def _matrices():
    rng = random.Random(7)
    for m, n in SHAPES:
        yield [[0] * n for _ in range(m)], n
        for fractions in (False, True):
            for _ in range(15):
                yield _random_matrix(rng, m, n, fractions), n
        # rank-deficient: every row a combination of two random rows
        if m and n:
            a, b = _random_matrix(rng, 2, n, False)
            yield [[rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
                    for x, y in zip(a, b)] for _ in range(m)], n


def test_rank_matches_reference():
    for mat, _ in _matrices():
        assert rank(mat) == len(_reference_rref(mat)[1]), mat


def test_kernel_basis_matches_reference_and_reduced_kernel():
    checked = 0
    for mat, n in _matrices():
        basis = kernel_basis(mat, n)
        assert basis == _reference_kernel(mat, n), mat
        assert basis == list(reduced_kernel(mat, n)[2].values()), mat
        assert len(basis) == n - rank(mat)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
            assert all(type(x) is int for x in v)
        checked += 1
    assert checked == len(SHAPES) * 31 + sum(1 for m, n in SHAPES if m and n)


def _scaled(rows):
    """Each row times the lcm of its denominators."""
    out = []
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


def test_pivot_columns_match_reference():
    for mat, _ in _matrices():
        assert pivot_columns(mat) == _reference_rref(mat)[1], mat


def test_fraction_rows_reduce_as_their_integer_multiples():
    checked = 0
    for mat, n in _matrices():
        if all(type(x) is int for row in mat for x in row):
            continue
        ints = _scaled(mat)
        assert rank(mat) == rank(ints)
        assert pivot_columns(mat) == pivot_columns(ints)
        assert kernel_basis(mat, n) == kernel_basis(ints, n)
        red, pivots, kernel = reduced_kernel(mat, n)
        assert (red, pivots, kernel) == reduced_kernel(ints, n)
        assert all(type(x) is int for row in red for x in row)
        for r, p in enumerate(pivots):
            assert red[r][p] > 0
            assert all(red[i][p] == 0 for i in range(len(red)) if i != r)
        checked += 1
    assert checked > 100


def test_fraction_rows_with_an_integer_sum_are_scaled():
    # a row of Fractions is scaled even when its entries sum to an integer
    half, third = Fraction(1, 2), Fraction(1, 3)
    for mat in ([[half, half]],
                [[half, -half, 0], [1, 2, 3]],
                [[Fraction(3, 2), Fraction(-1, 2), 1], [third, 2 * third, 0]],
                [[Fraction(2), 0, Fraction(-2)], [0, third, third]]):
        n = len(mat[0])
        ints = _scaled(mat)
        assert pivot_columns(mat) == _reference_rref(mat)[1] == pivot_columns(ints)
        assert kernel_basis(mat, n) == _reference_kernel(mat, n)
        red, pivots, kernel = reduced_kernel(mat, n)
        assert (red, pivots, kernel) == reduced_kernel(ints, n)
        assert all(type(x) is int for row in red for x in row)
        assert all(type(x) is int for v in kernel.values() for x in v)


def test_intertwiner_system_by_hand_on_linear_1_2():
    # linear:1,2 has one arrow 2 -> 1, as 0-based vertices (1, 0); each
    # indecomposable is (dims at vertices 1 and 2, its arrow matrix, which
    # is dims[0] x dims[1])
    reps = {"M(1,1)": ([1, 0], [[]]), "M(2,1)": ([0, 1], []),
            "M(2,2)": ([1, 1], [[1]])}
    # (rows, variables): f_0 a_M = a_N f_1 with f_v an n_v x m_v block
    want = {
        ("M(2,2)", "M(2,2)"): ([[1, -1]], 2),   # f_0 = f_1
        ("M(2,2)", "M(1,1)"): ([[1]], 1),       # f_0 = 0: the top is S_2
        ("M(2,1)", "M(2,2)"): ([[-1]], 1),      # f_1 = 0: the socle is S_1
        ("M(2,2)", "M(2,1)"): ([], 1),
        ("M(1,1)", "M(2,2)"): ([], 1),
        ("M(1,1)", "M(1,1)"): ([], 1),
        ("M(2,1)", "M(2,1)"): ([], 1),
        ("M(1,1)", "M(2,1)"): ([], 0),
        ("M(2,1)", "M(1,1)"): ([], 0),
    }
    alg = validate("linear", [1, 2])
    for (m, n), (rows, total) in want.items():
        (m_dims, a_m), (n_dims, a_n) = reps[m], reps[n]
        assert intertwiner_system(m_dims, n_dims, [(1, 0, a_m, a_n)]) == (rows, total)
        assert total - rank(rows) == hom_dim(
            alg, parse_module(alg, m), parse_module(alg, n))


def _partial_shift(rng, rows, cols, per_column):
    """A rows x cols 0/1 matrix with at most one 1 in each column, or in
    each row when per_column is false."""
    mat = [[0] * cols for _ in range(rows)]
    for i in range(cols if per_column else rows):
        j = rng.randrange(-1, rows if per_column else cols)
        if j >= 0:
            if per_column:
                mat[j][i] = 1
            else:
                mat[i][j] = 1
    return mat


def _partial_shift_systems():
    """Seeded intertwiner_system inputs for the cyclic and linear quivers
    with n = 1..5, arrows v -> v - 1 (the cyclic n = 1 quiver is one loop),
    dims 0..4 per vertex, a_M with at most one 1 per column and a_N with at
    most one 1 per row."""
    rng = random.Random(41)
    for cyclic in (True, False):
        for n in range(1, 6):
            arrows = [(v, (v - 1) % n) for v in range(0 if cyclic else 1, n)]
            for _ in range(300):
                m_dims = [rng.randint(0, 4) for _ in range(n)]
                n_dims = [rng.randint(0, 4) for _ in range(n)]
                yield m_dims, n_dims, [
                    (v, w, _partial_shift(rng, m_dims[w], m_dims[v], True),
                     _partial_shift(rng, n_dims[w], n_dims[v], False))
                    for v, w in arrows]


def test_intertwiner_dim_is_variables_minus_rank_on_partial_shifts():
    checked = zero_dims = loops = 0
    for m_dims, n_dims, arrows in _partial_shift_systems():
        rows, total = intertwiner_system(m_dims, n_dims, arrows)
        assert intertwiner_dim(m_dims, n_dims, arrows) == total - rank(rows), \
            (m_dims, n_dims, arrows)
        checked += 1
        zero_dims += 0 in m_dims + n_dims
        loops += any(v == w for v, w, _, _ in arrows)
    assert checked == 3000 and zero_dims and loops == 300


def test_intertwiner_dim_rejects_what_is_not_a_partial_shift():
    # one arrow 1 -> 0 between dims 2 and 2; a_M may repeat a 1 in a row
    # and a_N in a column, but not the other way round, and no entry is 2
    one, fold = [[1, 0], [0, 1]], [[1, 1], [0, 0]]
    for ma, na in ((fold, one), (one, [[1, 0], [1, 0]])):
        rows, total = intertwiner_system([2, 2], [2, 2], [(1, 0, ma, na)])
        assert intertwiner_dim([2, 2], [2, 2], [(1, 0, ma, na)]) == \
            total - rank(rows) == 4
    for ma, na in (([[2, 0], [0, 1]], one), (one, [[1, 0], [0, 2]]),
                   ([[1, 0], [1, 0]], one), (one, fold)):
        with pytest.raises(AssertionError, match="not a partial shift"):
            intertwiner_dim([2, 2], [2, 2], [(1, 0, ma, na)])
