"""Independent cross-check for the Hom/Ext counting formulas.

A uniserial is realized as a representation of the quiver: one coordinate
slot per composition factor, arrows acting as index shifts.  Hom spaces are
intertwiner kernels, found by generic exact elimination.  Ext^1(M, N) is a
dimension count for an explicitly constructed projective presentation
0 -> K -> P_0 -> M -> 0: since Ext^1(P_0, N) = 0, the sequence

    0 -> Hom(M, N) -> Hom(P_0, N) -> Hom(K, N) -> Ext^1(M, N) -> 0

is exact (Assem-Simson-Skowronski, Elements of the Representation Theory of
Associative Algebras I, IV.2 and A.4).  Nothing here shares a formula with
homology.py: the closed-form image-length count and the syzygy index
arithmetic never appear.

Every matrix the oracle eliminates has integer entries; only the arrow maps
of a kernel are found by an exact `solve`, and they are checked to be
integral.  Within one algebra the oracle keeps one object per distinct
representation: each new one, a uniserial's or a kernel's, is replaced by
the first built with the same vertex dimensions and arrow matrices, so a
kernel comes back as the very object of the uniserial it equals.  Hom
dimensions are memoised on pairs of these objects.  Everything is kept only
until a call for another algebra.
"""

from functools import wraps

from .core import projective
from .linalg import kernel_basis, mat_mul, rank, solve


class MatrixRep:
    """A quiver representation: dims per vertex, one matrix per arrow v -> v-1."""

    def __init__(self, alg, dims, mats):
        self.alg = alg
        self.dims = dims          # list, entry v-1 = dim at vertex v
        self.mats = mats          # dict v -> matrix of the arrow out of v

    @classmethod
    def of_uniserial(cls, alg, u):
        n = alg.n
        slots_at = [[] for _ in range(n)]
        for j in range(u.length):
            slots_at[alg.normalize(u.top - j) - 1].append(j)
        dims = [len(s) for s in slots_at]
        pos = {}
        for v in range(1, n + 1):
            for a, j in enumerate(slots_at[v - 1]):
                pos[j] = a
        mats = {}
        for v, w in _arrows(alg):
            m = [[0] * dims[v - 1] for _ in range(dims[w - 1])]
            for j in slots_at[v - 1]:
                if j + 1 < u.length:
                    m[pos[j + 1]][pos[j]] = 1
            mats[v] = m
        return cls(alg, dims, mats)


class _OneAlgebraMemo:
    """Memo for functions f(alg, *args), holding one algebra's entries at a time.

    Every value depends on its algebra, and a sweep finishes one algebra
    before it starts the next, so the first call for another algebra empties
    the table.  It never holds more than one algebra's representations,
    presentations and Hom dimensions, and callers must not mutate what it
    returns.
    """

    def __init__(self):
        self.alg = None
        self.table = {}

    def __call__(self, fn):
        @wraps(fn)
        def memoised(alg, *args):
            if alg is not self.alg and alg != self.alg:
                self.alg, self.table = alg, {}
            key = (fn.__name__,) + args
            value = self.table.get(key)
            if value is None:
                value = self.table[key] = fn(alg, *args)
            return value
        return memoised


_memo = _OneAlgebraMemo()


def _content_key(rep):
    return ("_content", tuple(rep.dims),
            tuple(tuple(map(tuple, rep.mats[v])) for v, _ in _arrows(rep.alg)))


def _unique(rep):
    """The first representation built with rep's dims and arrow matrices.

    Call it only inside a memoised function of rep.alg, so that the memo's
    table is that algebra's.
    """
    return _memo.table.setdefault(_content_key(rep), rep)


@_memo
def _rep(alg, u):
    return _unique(MatrixRep.of_uniserial(alg, u))


@_memo
def _arrows(alg):
    """(v, w) for each arrow v -> w = v - 1 of the quiver."""
    first = 1 if alg.kind == "cyclic" else 2
    return [(v, alg.normalize(v - 1)) for v in range(first, alg.n + 1)]


def _intertwiner_system(m_rep, n_rep):
    """Rows of the linear system cutting out Hom(M, N) inside prod Hom(M_v, N_v)."""
    md, nd = m_rep.dims, n_rep.dims
    # f_v is an nd[v-1] x md[v-1] block of variables, row-major from offs[v-1]
    offs = [0]
    for a, b in zip(md, nd):
        offs.append(offs[-1] + a * b)
    total = offs[-1]
    rows = []
    for v, w in _arrows(m_rep.alg):
        ma = m_rep.mats[v]
        na = n_rep.mats[v]
        # f_w @ M(a) - N(a) @ f_v = 0, one equation per (row in N_w, col in M_v)
        for r in range(nd[w - 1]):
            for c in range(md[v - 1]):
                row = [0] * total
                for s in range(md[w - 1]):
                    if ma[s][c]:
                        row[offs[w - 1] + r * md[w - 1] + s] += ma[s][c]
                for t in range(nd[v - 1]):
                    if na[r][t]:
                        row[offs[v - 1] + t * md[v - 1] + c] -= na[r][t]
                if any(row):
                    rows.append(row)
    return rows, total


@_memo
def _hom(alg, m_rep, n_rep):
    """dim Hom(M, N): variables minus the rank of the intertwiner system."""
    rows, total = _intertwiner_system(m_rep, n_rep)
    return total - rank(rows) if total else 0


def oracle_hom_dim(alg, u, v):
    """dim Hom(u, v) via intertwiner rank, never via image-length counting."""
    if u is None or v is None:
        return 0
    return _hom(alg, _rep(alg, u), _rep(alg, v))


@_memo
def _presentation(alg, u):
    """Explicit kernel K of the cover P(top u) ->> u, with inclusion matrices."""
    cover = projective(alg, u.top)
    p0 = _rep(alg, cover)
    # projection sends P_0 slot j to M slot j for j < len(u); rebuild the
    # per-vertex matrices from slot bookkeeping
    p0_slots = [[] for _ in range(alg.n)]
    for j in range(cover.length):
        p0_slots[alg.normalize(cover.top - j) - 1].append(j)
    m_slots = [[] for _ in range(alg.n)]
    for j in range(u.length):
        m_slots[alg.normalize(u.top - j) - 1].append(j)
    incl = {}
    kdims = []
    for v in range(1, alg.n + 1):
        pi = [[1 if pj == mj else 0 for pj in p0_slots[v - 1]] for mj in m_slots[v - 1]]
        basis = kernel_basis(pi, len(p0_slots[v - 1]))
        incl[v] = [list(col) for col in zip(*basis)] if basis else [[] for _ in p0_slots[v - 1]]
        kdims.append(len(basis))
    kmats = {}
    for v, w in _arrows(alg):
        img = mat_mul(p0.mats[v], incl[v]) if kdims[v - 1] else \
            [[] for _ in range(len(p0.mats[v]))]
        cols = []
        for c in range(kdims[v - 1]):
            column = [img[r][c] for r in range(len(img))]
            x = solve(incl[w], column) if incl[w] and len(incl[w][0]) else \
                ([] if all(e == 0 for e in column) else None)
            assert x is not None, "kernel is not arrow-stable; presentation is broken"
            assert all(e.denominator == 1 for e in x), \
                "kernel arrow map is not integral; presentation is broken"
            cols.append([int(e) for e in x])
        kmats[v] = [[cols[c][r] for c in range(kdims[v - 1])] for r in range(kdims[w - 1])]
    return _unique(MatrixRep(alg, kdims, kmats)), incl


def oracle_ext1_dim(alg, u, v):
    """dim Ext^1(u, v) = dim Hom(K, N) - dim Hom(P_0, N) + dim Hom(u, N) for
    the explicit presentation 0 -> K -> P_0 -> u -> 0."""
    if u is None or v is None:
        return 0
    k_rep, _ = _presentation(alg, u)
    p0_rep, m_rep, n_rep = _rep(alg, projective(alg, u.top)), _rep(alg, u), _rep(alg, v)
    e = _hom(alg, k_rep, n_rep) - _hom(alg, p0_rep, n_rep) + _hom(alg, m_rep, n_rep)
    assert e >= 0
    return e
