"""Small exact linear algebra over the rationals.

Matrices are lists of row lists with int or Fraction entries.  Every entry
point first turns its input into integer rows (`_int_rows`): a row with a
Fraction entry is multiplied by the lcm of its denominators, which changes
neither the row space, the pivot columns nor the kernel.  One fraction-free
Gauss-Jordan reduction (`_rref_int`) then does all the work, read two ways:
`pivot_columns` and `rank` read its pivots, `reduced_kernel` and
`kernel_basis` its kernel.  Every intermediate value is an integer, and
nothing here makes a Fraction.  Sizes reach hundreds of rows and columns;
exactness is the point.  `intertwiner_system` writes the Hom equations whose
rank End(X) modules read.  The oracle's matrices are partial shifts, whose
equations all read x = y or x = 0, so `intertwiner_dim` counts classes of
unknowns instead of eliminating.
"""

from math import gcd, lcm


def _int_rows(mat):
    """Integer copies of the rows of mat, each Fraction row scaled to integers."""
    out = []
    for row in mat:
        # entries are int or Fraction, and a Fraction anywhere makes the sum one
        if type(sum(row)) is int:
            out.append(list(row))
        else:
            d = lcm(*(x.denominator for x in row))
            out.append([int(x * d) for x in row])
    return out


def pivot_columns(mat):
    """Pivot columns of the rref of mat: the columns independent of the
    columns to their left."""
    return _rref_int(_int_rows(mat))[1]


def rank(mat):
    return len(pivot_columns(mat))


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
        for piv in range(r, m):
            if rows[piv][c]:
                break
        else:
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


def reduced_kernel(mat, ncols=None):
    """The rref of mat and the kernel read off it: (red, pivots, kernel).

    red and pivots are `_rref_int`'s rows and pivot columns: row r is
    primitive, positive at pivots[r] and zero at the other pivots.  kernel
    maps each free column f, in increasing order, to the primitive integer
    vector on the line of e_f - sum_r (red[r][f] / red[r][p_r]) e_{p_r} that
    is positive at f; it is zero at every other free column.
    """
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    red, pivots = _rref_int(_int_rows(mat))
    is_pivot = set(pivots)
    kernel = {}
    for f in range(ncols):
        if f in is_pivot:
            continue
        scale = 1
        for r, p in enumerate(pivots):
            if red[r][f]:
                scale = lcm(scale, red[r][p])
        v = [0] * ncols
        v[f] = scale
        for r, p in enumerate(pivots):
            v[p] = -red[r][f] * (scale // red[r][p])
        kernel[f] = _primitive(v)
    return red, pivots, kernel


def kernel_basis(mat, ncols=None):
    """Integer basis of {x : mat @ x = 0}: the vectors of reduced_kernel."""
    return list(reduced_kernel(mat, ncols)[2].values())


def intertwiner_system(m_dims, n_dims, arrows):
    """(rows, number of variables) of f_w a_M = a_N f_v, which cut Hom(M, N)
    out of prod_v Hom(M_v, N_v) (ASS I, III.1); dim Hom is variables minus
    rank.  arrows holds (v, w, a_M, a_N) per arrow v -> w, 0-based, and f_v
    is an n_dims[v] x m_dims[v] block, row-major, blocks in vertex order."""
    offs = [0]
    for a, b in zip(m_dims, n_dims):
        offs.append(offs[-1] + a * b)
    total = offs[-1]
    rows = []
    for v, w, ma, na in arrows:
        mv, mw = m_dims[v], m_dims[w]
        # one equation per (row r of N_w, column c of M_v)
        for r in range(n_dims[w]):
            for c in range(mv):
                row = [0] * total
                for s in range(mw):
                    if ma[s][c]:
                        row[offs[w] + r * mw + s] += ma[s][c]
                for t in range(n_dims[v]):
                    if na[r][t]:
                        row[offs[v] + t * mv + c] -= na[r][t]
                if any(row):
                    rows.append(row)
    return rows, total


def _unit(line):
    """The index of line's one nonzero entry, which must be 1, or None."""
    assert line.count(1) <= 1 and set(line) <= {0, 1}, \
        "not a partial shift: %r" % (line,)
    return line.index(1) if 1 in line else None


def intertwiner_dim(m_dims, n_dims, arrows):
    """dim Hom(M, N) for intertwiner_system's inputs, with no elimination.

    Each column of an a_M and each row of an a_N must hold at most one
    nonzero entry, a 1 (asserted).  Then the equation of (row r of N_w,
    column c of M_v) reads f_w[r][s] = f_v[t][c], a side being 0 when column
    c of a_M or row r of a_N is zero.  Union-find joins the unknowns and a
    node for 0 along these equations, and dim Hom is the number of classes
    without that node: the unknowns less the joins that merged two classes.
    """
    offs = [0]
    for a, b in zip(m_dims, n_dims):
        offs.append(offs[-1] + a * b)
    total = offs[-1]
    root = list(range(total + 1))  # node total stands for 0

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    dim = total
    for v, w, ma, na in arrows:
        mv, mw = m_dims[v], m_dims[w]
        cols = [_unit(col) for col in zip(*ma)] if mw else [None] * mv
        for r in range(n_dims[w]):
            t = _unit(na[r])
            for c, s in enumerate(cols):
                x = find(total if s is None else offs[w] + r * mw + s)
                y = find(total if t is None else offs[v] + t * mv + c)
                if x != y:
                    root[x] = y
                    dim -= 1
    return dim
