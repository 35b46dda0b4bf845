"""Independent cross-check for the Hom/Ext counting formulas.

A uniserial is realized as a representation of the quiver: one coordinate
slot per composition factor, arrows acting as index shifts.  dim Hom is
read off the intertwiner equations f_w a_M = a_N f_v.  Every matrix here is a
partial shift: a uniserial's arrows move slot j to slot j + 1, a
presentation's kernel takes submatrices of its cover's, and rotations only
relabel vertices.  So each equation reads x = y or x = 0, and
`linalg.intertwiner_dim` counts the classes of unknowns that meet no x = 0
instead of eliminating; it asserts the partial-shift form.
Ext^1(M, N) is a dimension count for an explicitly constructed projective
presentation 0 -> K -> P_0 -> M -> 0: since Ext^1(P_0, N) = 0, the sequence

    0 -> Hom(M, N) -> Hom(P_0, N) -> Hom(K, N) -> Ext^1(M, N) -> 0

is exact (Assem-Simson-Skowronski, Elements of the Representation Theory of
Associative Algebras I, IV.2 and A.4).  The cover P_0 -> M sends P_0's slot
j to M's slot j for j < len(M) and kills the others, so K is read off P_0's
matrices: at each vertex it is spanned by P_0's slots j >= len(M), and its
arrow maps are the submatrices of P_0's on those slots, checked to map K
into K.  A presentation is kept as K's representation alone; P_0 and M are
uniserials, kept by (top, length), and the count needs no inclusion map.
Nothing here shares a formula with homology.py: the closed-form image-length
count and the syzygy index arithmetic never appear.

Every algebra with n vertices lives on one quiver, the cyclic quiver with
n vertices, and the tables are kept per n and never emptied.  A-mod =
rep(Q, I) is a full subcategory of rep(Q) (ibid. III.1), so Hom between
A-modules is Hom of quiver representations.  A linear algebra's quiver
lacks the arrow 1 -> n, and extending its representations by zero on that
arrow is fully faithful: the new equation reads 0 = 0.  So a uniserial's
representation reads only n and its (top, length), and the algebra enters
only through the cover P_0 = M(top u, c_top).

The rotation sigma: i -> i - top u + 1 is an automorphism of the cyclic
quiver, so Hom(sigma M, sigma N) = Hom(M, N), and the presentation of
sigma u is sigma applied to that of u, with the same c_top (ibid. III.1 and
IV.2).  So dim Hom(u, v) is keyed by rotation class,
(n, len u, (top v - top u) mod n, len v), and dim Ext^1(u, v) also by
c_top after len u, by integer arithmetic alone, for both kinds; a miss
counts the pair turned so that u's top is 1.  The rotation only relabels
vertices and shares no formula with homology.py.  An Ext^1 miss
reads dim Hom(P_0, N) by Yoneda, Hom(P_i, N) = e_i N, as N's dimension at
P_0's top i, and dim Hom(u, N) from the Hom table; only Hom(K, N) is counted.
The table of Hom between representations uses the same fact once more: a
miss moves the pair (M, N) by the rotation that takes M to the member of
least content (dims, then arrow matrices) of its rotation class, found by
rotating M's matrices, and counts only when that pair is new.  So the
K-pairs of different presentations share their counts too.
"""

from operator import mul

from .core import Uniserial
from .linalg import intertwiner_dim


class _Quiver:
    """The cyclic quiver with n vertices and the oracle's tables over it."""

    def __init__(self, n):
        # (v, w) for each arrow v -> w = v - 1 mod n
        self.arrows = [(v, (v - 2) % n + 1) for v in range(1, n + 1)]
        self.reps = {}           # (top, length) -> MatrixRep
        self.contents = {}       # (dims, arrow matrices) -> MatrixRep
        self.presentations = {}  # (top, length, c_top) -> K's MatrixRep
        self.homs = {}           # (MatrixRep, MatrixRep) -> dim Hom
        self.rotations = {}      # MatrixRep -> (s, its rotations)

    def _content(self, rep):
        return (tuple(rep.dims),
                tuple(tuple(map(tuple, rep.mats[v])) for v, _ in self.arrows))

    def unique(self, rep):
        """The first representation built with rep's dims and arrow matrices."""
        return self.contents.setdefault(self._content(rep), rep)

    def turns(self, rep):
        """(s, rots) for a representation: rots[t] is rep moved by the
        rotation i -> i + t, unique'd by content, and rots[s] is the one of
        least content (dims first, then arrow matrices)."""
        found = self.rotations.get(rep)
        if found is None:
            n = len(rep.dims)
            keys, rots = [], []
            for t in range(n):
                # the arrow out of vertex v becomes the arrow out of v + t
                moved = MatrixRep(self, rep.dims[n - t:] + rep.dims[:n - t],
                                  {v: rep.mats[(v - 1 - t) % n + 1]
                                   for v in range(1, n + 1)})
                keys.append(self._content(moved))
                rots.append(self.contents.setdefault(keys[-1], moved))
            found = self.rotations[rep] = (keys.index(min(keys)), rots)
        return found


_quivers = {}  # n -> _Quiver
# the answers, keyed by the quiver first: (n, len u, [c_top,]
# (top v - top u) mod n, len v) -> dim Hom(u, v) [dim Ext^1(u, v) with c_top]
_hom_dims = {}
_ext1_dims = {}


def _quiver(alg):
    q = _quivers.get(alg.n)
    if q is None:
        q = _quivers[alg.n] = _Quiver(alg.n)
    return q


def _slots(alg, u):
    """Slot numbers j (0 at the top) of u's composition factors, per vertex."""
    slots_at = [[] for _ in range(alg.n)]
    for j in range(u.length):
        slots_at[(u.top - j - 1) % alg.n].append(j)
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
    """dim Hom(M, N) by `intertwiner_dim`, called only when there are unknowns.

    A miss moves the pair by the rotation that takes M to the least-content
    member of its rotation class, counts that pair only if it is new, and
    keeps the answer under both pairs."""
    q = m_rep.quiver
    d = q.homs.get((m_rep, n_rep))
    if d is None:
        s, m_rots = q.turns(m_rep)
        pair = m_rots[s], q.turns(n_rep)[1][s]
        d = q.homs.get(pair)
        if d is None:
            m, k = pair
            d = 0
            if any(map(mul, m.dims, k.dims)):
                d = intertwiner_dim(m.dims, k.dims, [
                    (v - 1, w - 1, m.mats[v], k.mats[v]) for v, w in q.arrows])
            q.homs[pair] = d
        q.homs[m_rep, n_rep] = d
    return d


def _turn(alg, u, v):
    """(u, v) turned by the rotation i -> i - top u + 1, so that u's top is 1."""
    return Uniserial(1, u.length), Uniserial((v.top - u.top) % alg.n + 1, v.length)


def oracle_hom_dim(alg, u, v):
    """dim Hom(u, v) from intertwiner equations, not image-length counting."""
    if u is None or v is None:
        return 0
    key = (alg.n, u.length, (v.top - u.top) % alg.n, v.length)
    d = _hom_dims.get(key)
    if d is None:
        q = _quiver(alg)
        u, v = _turn(alg, u, v)
        d = _hom_dims[key] = _hom(_rep(q, alg, u), _rep(q, alg, v))
    return d


def _presentation(q, alg, u, c_top):
    """The representation of the explicit kernel K of the cover
    P_0 = M(top u, c_top) ->> u.

    The cover sends P_0's slot j to u's slot j for j < len(u) and kills the
    rest, so K is spanned, at each vertex, by P_0's slots j >= len(u), and
    its arrow maps are the submatrices of P_0's on those slots."""
    key = (u.top, u.length, c_top)
    k_rep = q.presentations.get(key)
    if k_rep is not None:
        return k_rep
    cover = Uniserial(u.top, c_top)
    p0 = _rep(q, alg, cover)
    # K's basis at each vertex: the positions there of P_0's slots j >= len(u)
    kept = [[a for a, j in enumerate(slots) if j >= u.length]
            for slots in _slots(alg, cover)]
    kmats = {}
    for v, w in q.arrows:
        m = p0.mats[v]
        # the arrow sends K_v into K_w: zero off K's rows in K's columns
        assert not any(m[a][b] for a in range(len(m)) if a not in kept[w - 1]
                       for b in kept[v - 1]), \
            "kernel is not arrow-stable; presentation is broken"
        kmats[v] = [[m[a][b] for b in kept[v - 1]] for a in kept[w - 1]]
    return q.presentations.setdefault(
        key, q.unique(MatrixRep(q, [len(k) for k in kept], kmats)))


def oracle_ext1_dim(alg, u, v):
    """dim Ext^1(u, v) = dim Hom(K, N) - dim Hom(P_0, N) + dim Hom(u, N) for
    the explicit presentation 0 -> K -> P_0 -> u -> 0."""
    if u is None or v is None:
        return 0
    c_top = alg.c[u.top - 1]
    key = (alg.n, u.length, c_top, (v.top - u.top) % alg.n, v.length)
    e = _ext1_dims.get(key)
    if e is None:
        q = _quiver(alg)
        hom_un = oracle_hom_dim(alg, u, v)
        u, v = _turn(alg, u, v)
        n_rep = _rep(q, alg, v)
        # dim Hom(P_0, N) = dim e_i N, N's dimension at P_0's top i
        e = _hom(_presentation(q, alg, u, c_top), n_rep) - n_rep.dims[u.top - 1] + hom_un
        assert e >= 0
        _ext1_dims[key] = e
    return e
