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

The tables are kept per quiver (kind, n) and never emptied, and their keys
are exact: a uniserial's representation reads only the quiver and its
(top, length), and A-mod = rep(Q, I) is a full subcategory of rep(Q)
(ibid. III.1), so Hom between A-modules is Hom of quiver representations.
The algebra enters only through the cover P_0 = M(top u, c_top), so dim
Hom(u, v) is keyed by (kind, n, top u, len u, top v, len v), and dim
Ext^1(u, v) and the presentation of u also by c_top.

On a cyclic quiver a miss turns the pair (u, v) by the rotation
sigma: i -> i - top u + 1, so that u's top is 1, and stores the answer under
the caller's own key.  The rotation is exact: sigma is an automorphism of
the quiver, so Hom(sigma M, sigma N) = Hom(M, N), and the presentation of
sigma u is sigma applied to that of u, with the same c_top (ibid. III.1 and
IV.2).  It only relabels vertices and shares no formula with homology.py.
"""

from .core import Uniserial
from .linalg import intertwiner_system, kernel_basis, mat_mul, rank, solve


class _Quiver:
    """The quiver (kind, n) of an algebra and the oracle's tables over it."""

    def __init__(self, alg):
        first = 1 if alg.kind == "cyclic" else 2
        # (v, w) for each arrow v -> w = v - 1
        self.arrows = [(v, alg.normalize(v - 1)) for v in range(first, alg.n + 1)]
        self.reps = {}           # (top, length) -> MatrixRep
        self.contents = {}       # (dims, arrow matrices) -> MatrixRep
        self.presentations = {}  # (top, length, c_top) -> (K, incl, P_0, u) reps
        self.homs = {}           # (MatrixRep, MatrixRep) -> dim Hom

    def unique(self, rep):
        """The first representation built with rep's dims and arrow matrices."""
        key = (tuple(rep.dims),
               tuple(tuple(map(tuple, rep.mats[v])) for v, _ in self.arrows))
        return self.contents.setdefault(key, rep)


_quivers = {}  # (kind, n) -> _Quiver
# the answers, keyed by the quiver first: (kind, n, top u, len u, top v, len v)
# -> dim Hom(u, v), and (kind, n, top u, len u, c_top, top v, len v)
# -> dim Ext^1(u, v)
_hom_dims = {}
_ext1_dims = {}


def _quiver(alg):
    q = _quivers.get((alg.kind, alg.n))
    if q is None:
        q = _quivers[alg.kind, alg.n] = _Quiver(alg)
    return q


def _slots(alg, u):
    """Slot numbers j (0 at the top) of u's composition factors, per vertex."""
    slots_at = [[] for _ in range(alg.n)]
    for j in range(u.length):
        slots_at[alg.normalize(u.top - j) - 1].append(j)
    return slots_at


class MatrixRep:
    """A quiver representation: dims per vertex, one matrix per arrow v -> v-1."""

    def __init__(self, quiver, dims, mats):
        self.quiver = quiver      # the _Quiver it lives on
        self.dims = dims          # list, entry v-1 = dim at vertex v
        self.mats = mats          # dict v -> matrix of the arrow out of v

    @classmethod
    def of_uniserial(cls, quiver, alg, u):
        slots_at = _slots(alg, u)
        dims = [len(s) for s in slots_at]
        pos = {j: a for slots in slots_at for a, j in enumerate(slots)}
        mats = {}
        for v, w in quiver.arrows:
            m = [[0] * dims[v - 1] for _ in range(dims[w - 1])]
            for j in slots_at[v - 1]:
                if j + 1 < u.length:
                    m[pos[j + 1]][pos[j]] = 1
            mats[v] = m
        return cls(quiver, dims, mats)


def _rep(q, alg, u):
    rep = q.reps.get((u.top, u.length))
    if rep is None:
        rep = q.reps[u.top, u.length] = q.unique(MatrixRep.of_uniserial(q, alg, u))
    return rep


def _hom(m_rep, n_rep):
    """dim Hom(M, N): variables minus the rank of the intertwiner system."""
    homs = m_rep.quiver.homs
    d = homs.get((m_rep, n_rep))
    if d is None:
        rows, total = intertwiner_system(m_rep.dims, n_rep.dims, [
            (v - 1, w - 1, m_rep.mats[v], n_rep.mats[v])
            for v, w in m_rep.quiver.arrows])
        d = homs[m_rep, n_rep] = total - rank(rows) if total else 0
    return d


def _turn(alg, u, v):
    """(u, v) turned by the rotation i -> i - top u + 1 of a cyclic quiver,
    so that u's top is 1; on a linear quiver, (u, v) as they are."""
    if alg.kind != "cyclic":
        return u, v
    return Uniserial(1, u.length), Uniserial((v.top - u.top) % alg.n + 1, v.length)


def oracle_hom_dim(alg, u, v):
    """dim Hom(u, v) via intertwiner rank, never via image-length counting."""
    if u is None or v is None:
        return 0
    key = (alg.kind, alg.n, u.top, u.length, v.top, v.length)
    d = _hom_dims.get(key)
    if d is None:
        q = _quiver(alg)
        u, v = _turn(alg, u, v)
        d = _hom_dims[key] = _hom(_rep(q, alg, u), _rep(q, alg, v))
    return d


def _presentation(q, alg, u, c_top):
    """(K, incl, P_0, u): the representations of the explicit kernel K of the
    cover P_0 = M(top u, c_top) ->> u, of P_0 and of u, with K's inclusion
    matrices."""
    key = (u.top, u.length, c_top)
    found = q.presentations.get(key)
    if found is not None:
        return found
    cover = Uniserial(u.top, c_top)
    p0 = _rep(q, alg, cover)
    # projection sends P_0 slot j to M slot j for j < len(u); rebuild the
    # per-vertex matrices from slot bookkeeping
    p0_slots, m_slots = _slots(alg, cover), _slots(alg, u)
    incl, kdims = {}, []
    for v in range(1, alg.n + 1):
        pi = [[1 if pj == mj else 0 for pj in p0_slots[v - 1]] for mj in m_slots[v - 1]]
        basis = kernel_basis(pi, len(p0_slots[v - 1]))
        incl[v] = [list(col) for col in zip(*basis)] if basis else [[] for _ in p0_slots[v - 1]]
        kdims.append(len(basis))
    kmats = {}
    for v, w in q.arrows:
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
    return q.presentations.setdefault(
        key, (q.unique(MatrixRep(q, kdims, kmats)), incl, p0, _rep(q, alg, u)))


def oracle_ext1_dim(alg, u, v):
    """dim Ext^1(u, v) = dim Hom(K, N) - dim Hom(P_0, N) + dim Hom(u, N) for
    the explicit presentation 0 -> K -> P_0 -> u -> 0."""
    if u is None or v is None:
        return 0
    c_top = alg.c[u.top - 1]
    key = (alg.kind, alg.n, u.top, u.length, c_top, v.top, v.length)
    e = _ext1_dims.get(key)
    if e is None:
        q = _quiver(alg)
        u, v = _turn(alg, u, v)
        k_rep, _, p0_rep, m_rep = _presentation(q, alg, u, c_top)
        n_rep = _rep(q, alg, v)
        e = _hom(k_rep, n_rep) - _hom(p0_rep, n_rep) + _hom(m_rep, n_rep)
        assert e >= 0
        _ext1_dims[key] = e
    return e
