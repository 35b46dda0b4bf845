"""Exact linear algebra against a plain Fraction Gauss-Jordan reference.

Integer input takes the fraction-free paths of rank and kernel_basis, Fraction
input the Fraction ones; both must agree with the reference, and
kernel_basis must return exactly the vectors of reduced_kernel.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nakayama import linalg
from nakayama.linalg import kernel_basis, rank, reduced_kernel

# (rows, cols) of the random matrices: empty, wide, tall and square
SHAPES = [(0, 0), (0, 4), (1, 1), (1, 6), (2, 7), (3, 9), (9, 3), (7, 2),
          (4, 4), (6, 6), (5, 8), (8, 5)]


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


def test_integer_input_never_reduces_over_fraction(monkeypatch):
    def no_fraction_rref(mat):
        raise AssertionError("integer input reached the Fraction rref")
    monkeypatch.setattr(linalg, "rref", no_fraction_rref)
    rng = random.Random(11)
    for m, n in SHAPES:
        mat = _random_matrix(rng, m, n, False)
        rank(mat)
        kernel_basis(mat, n)
    with pytest.raises(AssertionError, match="Fraction rref"):
        kernel_basis([[Fraction(1, 2), 1]], 2)
