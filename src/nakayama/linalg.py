"""Small exact linear algebra over the rationals.

Matrices are lists of row lists with int or Fraction entries.  Integer input
never goes through Fraction for a rank or a kernel: ranks use fraction-free
(Bareiss) elimination and kernels fraction-free Gauss-Jordan, so every
intermediate value is an integer.  Fraction input, `reduced_kernel` and `solve`
reduce over Fraction.  Sizes here are tiny (tens of rows), exactness is the
point.
"""

from fractions import Fraction
from math import gcd, lcm


def rank(mat):
    """Rank of a matrix; fraction-free on integer input."""
    m = len(mat)
    if m == 0:
        return 0
    n = len(mat[0])
    if n == 0:
        return 0
    if _is_int(mat):
        return _rank_bareiss([row[:] for row in mat], m, n)
    red, pivots = rref([[Fraction(x) for x in row] for row in mat])
    return len(pivots)


def _is_int(mat):
    return {type(x) for row in mat for x in row} <= {int}


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


def reduced_kernel(mat, ncols=None):
    """The kernel of mat read off one rref over Fraction: (red, pivots, kernel).

    red and pivots are the reduced rows and their pivot columns.  kernel maps
    each free column f, in increasing order, to the integer vector
    e_f - sum_r red[r][f] e_{pivots[r]} with its denominators cleared; its
    entry at f is its positive scale and it is zero at every other free column.
    """
    m = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if m else 0
    red, pivots = rref([[Fraction(x) for x in row] for row in mat])
    is_pivot = set(pivots)
    kernel = {}
    for f in range(ncols):
        if f in is_pivot:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        kernel[f] = _clear_denominators(v)
    return red, pivots, kernel


def kernel_basis(mat, ncols=None):
    """Integer basis of {x : mat @ x = 0}; one vector per free column.

    The vectors are those of reduced_kernel(mat, ncols), in the same order.
    On integer input they come from fraction-free Gauss-Jordan instead: each
    lies on the line of its free column's vector with a positive entry at
    that column and is primitive, and that pins the vector down.
    """
    m = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if m else 0
    if not _is_int(mat):
        return list(reduced_kernel(mat, ncols)[2].values())
    rows, pivots = _rref_int([row[:] for row in mat])
    is_pivot = set(pivots)
    kernel = []
    for f in range(ncols):
        if f in is_pivot:
            continue
        scale = 1
        for r, p in enumerate(pivots):
            if rows[r][f]:
                scale = lcm(scale, rows[r][p])
        v = [0] * ncols
        v[f] = scale
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f] * (scale // rows[r][p])
        kernel.append(_primitive(v))
    return kernel


def _rref_int(rows):
    """Fraction-free Gauss-Jordan on integer rows, in place: (rows, pivot cols).

    Row r < len(pivots) is primitive, positive at pivots[r] and zero at every
    other pivot column; the rows after them are zero.  Each row operation
    a*row_i - b*row_r is followed by division by the row's content, so the
    entries stay small.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r] = _primitive(rows[r], rows[r][c])
        p = rr[c]
        for i in range(m):
            a = rows[i][c]
            if a and i != r:
                g = gcd(p, a)
                rows[i] = _primitive([(p // g) * x - (a // g) * y
                                      for x, y in zip(rows[i], rr)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _primitive(v, sign=1):
    """v divided by the gcd of its entries, negated too when sign < 0."""
    g = gcd(*v)
    if sign < 0:
        g = -g
    return v if g in (0, 1) else [x // g for x in v]


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
