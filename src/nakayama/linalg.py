"""Small exact linear algebra over the rationals.

Matrices are lists of row lists with int or Fraction entries.  Ranks of integer
matrices go through fraction-free (Bareiss) elimination, so all intermediate
values are integers; everything else reduces over Fraction.  Sizes here are
tiny (tens of rows), exactness is the point.
"""

from fractions import Fraction
from math import gcd


def rank(mat):
    """Rank of a matrix; fraction-free on integer input."""
    m = len(mat)
    if m == 0:
        return 0
    n = len(mat[0])
    if n == 0:
        return 0
    if all(isinstance(x, int) for row in mat for x in row):
        return _rank_bareiss([row[:] for row in mat], m, n)
    red, pivots = rref([[Fraction(x) for x in row] for row in mat])
    return len(pivots)


def _rank_bareiss(rows, m, n):
    r = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, m):
            ri = rows[i]
            ai = ri[c]
            rr = rows[r]
            for j in range(c + 1, n):
                ri[j] = (p * ri[j] - ai * rr[j]) // prev
            ri[c] = 0
        prev = p
        r += 1
        if r == m:
            break
    return r


def rref(mat):
    """Reduced row echelon form in place over Fraction; returns (mat, pivot cols)."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][c]
        mat[r] = [x / p for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat, pivots


def kernel_basis(mat, ncols=None):
    """Integer basis of {x : mat @ x = 0}; one vector per free column."""
    m = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if m else 0
    if m == 0:
        return [[1 if j == k else 0 for j in range(ncols)] for k in range(ncols)]
    red, pivots = rref([[Fraction(x) for x in row] for row in mat])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(_clear_denominators(v))
    return basis


def solve(mat, rhs):
    """One exact solution of mat @ x = rhs (free variables 0), or None."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    pivots = [p for p in pivots if p < n]
    for row in red:
        if row[-1] and all(x == 0 for x in row[:-1]):
            return None
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return x


def _clear_denominators(v):
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    w = [int(x * denom) for x in v]
    g = 0
    for x in w:
        g = gcd(g, x)
    if g > 1:
        w = [x // g for x in w]
    return w


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
