"""Hom spaces, syzygies, and homological dimensions for uniserial modules.

A nonzero map M(i,k_u) -> M(j,l_v) factors as quotient-of-source onto
submodule-of-target; its isomorphism class is pinned by the image length k,
which must satisfy k = top(u) - top(v) + len(v) modulo n (exactly, in the
linear case) and 1 <= k <= min(len u, len v).  These canonical maps form a
basis of the Hom space, and compositions of canonical maps are canonical with
structure constant 1 (or zero), so all Hom/Ext arithmetic is integral.
_hom_count counts the image lengths in one step and hom_basis lists them,
two derivations of the same number.  Ext^1(W, v) is its own one-step
count, _ext1_count: the maps Omega W -> v that do not extend to the cover
of W.  The matrix oracle, the alternating sum of three Hom counts and the
restriction of hom_basis along Omega W check it in the tests.  The
counting layer works on (top, length) ints; a Uniserial is built only where
a public function returns one.

Injective and dominant dimensions are read over the opposite algebra through
the duality D (core.dual): id_A(M) = pd_{A^op}(DM) (Assem-Simson-Skowronski
I, A.4), and the coresolution that domdim counts is the dual of the
resolution of DM there.  So no dimension walk needs an injective envelope;
only cosyzygy reads one.
"""

from functools import total_ordering

from .core import (
    INF,
    Uniserial,
    dual,
    indecomposables,
    injective,
    opposite,
    projective,
    socle_vertex,
    summands,
)


# --- hom spaces --------------------------------------------------------------

@total_ordering
class HomMap:
    """Canonical map between uniserials, recorded by its image length k.

    Equality, hash and order go by the tuple (source, target, k), and order
    is defined between HomMaps only.
    """

    __slots__ = ("source", "target", "k")

    def __init__(self, source, target, k):
        self.source = source
        self.target = target
        self.k = k

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.k) == (other.source, other.target, other.k)
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.k))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.k) < (other.source, other.target, other.k)
        return NotImplemented

    def __repr__(self):
        return "Hom[%r -> %r, k=%d]" % (self.source, self.target, self.k)


def _first_image_length(n, cyclic, top_u, len_u, top_v, len_v):
    """Smallest admissible image length of a map M(top_u, len_u) ->
    M(top_v, len_v), or 0 if there is none."""
    k = top_u - top_v + len_v
    if cyclic:
        k = (k - 1) % n + 1
    return k if 1 <= k <= (len_u if len_u < len_v else len_v) else 0


def _hom_count(n, cyclic, top_u, len_u, top_v, len_v):
    """dim Hom(M(top_u, len_u), M(top_v, len_v)): the number of image
    lengths j in 1..m, m = min(len_u, len_v), with j = k mod n for
    k = top_u - top_v + len_v, in one step.  The first such j is
    (k - 1) % n + 1, so there are (m + n - 1 - (k - 1) % n) // n of them,
    0 when the first exceeds m.  In the linear case j = k exactly, so there
    is at most one."""
    k = top_u - top_v + len_v
    m = len_u if len_u < len_v else len_v
    if cyclic:
        return (m + n - 1 - (k - 1) % n) // n
    return 1 if 1 <= k <= m else 0


def hom_dim(alg, u, v):
    """dim Hom(u, v); zero modules give 0."""
    if u is None or v is None:
        return 0
    return _hom_count(alg.n, alg.kind == "cyclic", u.top, u.length, v.top, v.length)


def hom_basis(alg, u, v):
    """The canonical maps u -> v, ordered by ascending image length: the
    lengths _hom_count counts."""
    if u is None or v is None:
        return []
    k = _first_image_length(alg.n, alg.kind == "cyclic", u.top, u.length, v.top, v.length)
    if k == 0:
        return []
    return [HomMap(u, v, j) for j in range(k, min(u.length, v.length) + 1, alg.n)]


def identity_hom(alg, u):
    return HomMap(u, u, u.length)


def compose(alg, f, g):
    """g after f, for f: u -> v and g: v -> w; None encodes the zero map.
    A nonzero composite of canonical maps is canonical (see the tests)."""
    if f is None or g is None:
        return None
    assert f.target == g.source, "compose needs target(f) == source(g)"
    k = f.k + g.k - f.target.length
    return HomMap(f.source, g.target, k) if k > 0 else None


# --- syzygies ----------------------------------------------------------------

def _syzygy_pair(n, c, top, length):
    """(top, length) of the syzygy M(top - length, c_top - length) of
    M(top, length), or None when that module is projective.  The top is
    taken mod n; a linear non-projective has length < c_top <= top, so its
    syzygy's top already lies in 1..n-1."""
    c_top = c[top - 1]
    if length == c_top:
        return None
    return (top - length - 1) % n + 1, c_top - length


def syzygy(alg, u):
    """Kernel of the projective cover P(top u) -> u; None iff u is projective."""
    if u is None:
        return None
    w = _syzygy_pair(alg.n, alg.c, u.top, u.length)
    return None if w is None else Uniserial(*w)


def cosyzygy(alg, u):
    """Cokernel of u -> I(soc u); None iff u is injective."""
    if u is None:
        return None
    env = injective(alg, socle_vertex(alg, u))
    if env.length == u.length:
        return None
    return Uniserial(env.top, env.length - u.length)


def _first_syzygy(alg, u, test):
    """Least i >= 0 with test(Omega^i u), or INF when the syzygy walk from u
    reaches zero or repeats a module first."""
    seen = set()
    while u is not None and u not in seen:
        if test(u):
            return len(seen)
        seen.add(u)
        u = syzygy(alg, u)
    return INF


def _walk_dims(alg, pairs):
    """{(top, length): projective dimension} for the given (top, length)
    pairs and every pair met on their syzygy walks.

    Walks share results, and a walk that returns to a module on its own path
    never ends, so every module on that path gets INF.
    """
    n, c = alg.n, alg.c
    memo = {}
    for w in pairs:
        path = {}    # insertion-ordered set of the pairs walked so far
        while w not in memo and w not in path:
            nxt = _syzygy_pair(n, c, *w)
            if nxt is None:
                memo[w] = 0
            else:
                path[w] = None
                w = nxt
        base = memo.get(w, INF)
        for j, wj in enumerate(path):
            memo[wj] = base + (len(path) - j)
    return memo


def pdim(alg, m):
    """Projective dimension of a module or direct sum (0 for the zero module)."""
    pairs = [(u.top, u.length) for u in summands(m)]
    walk = _walk_dims(alg, pairs)
    return max((walk[w] for w in pairs), default=0)


def idim(alg, m):
    """Injective dimension (0 for the zero module): the projective dimension
    of the dual over the opposite algebra."""
    return pdim(opposite(alg), [dual(alg, u) for u in summands(m)])


def pdim_table(alg):
    """pdim of every indecomposable at once, sharing the syzygy walks."""
    mods = indecomposables(alg)
    walk = _walk_dims(alg, [(u.top, u.length) for u in mods])
    return {u: walk[u.top, u.length] for u in mods}


def idim_table(alg):
    """idim of every indecomposable: pdim_table over the opposite, read back
    through the dual."""
    op = opposite(alg)
    return {dual(op, w): d for w, d in pdim_table(op).items()}


def simples(alg):
    return [Uniserial(i, 1) for i in range(1, alg.n + 1)]


def _projectives(alg):
    return [projective(alg, i) for i in range(1, alg.n + 1)]


def gldim(alg):
    """Global dimension: the maximum of pdim over the simple modules."""
    return pdim(alg, simples(alg))


# --- dominant dimension ------------------------------------------------------

def domdim_module(alg, u):
    """Number of leading projective-injective terms of the minimal injective
    coresolution of u; INF when the coresolution stays projective-injective.

    By duality that coresolution is the dual of the minimal projective
    resolution of D u over the opposite, so the walk follows syzygies there
    and counts covers P(i) that are injective, c_{i+1} <= c_i over the
    opposite (with c_{n+1} = 0 in the linear case).  A zero syzygy or a
    repeated module means the resolution stays projective-injective.
    """
    op = opposite(alg)
    return _first_syzygy(op, dual(alg, u),
                         lambda w: op.c_at(w.top + 1) > op.c_at(w.top))


def domdim(alg):
    """min over the indecomposable projectives; INF iff selfinjective."""
    return min(domdim_module(alg, p) for p in _projectives(alg))


def gorenstein_dim(alg):
    """(injective dimension of the left regular module, same on the right,
    their common value when both are finite else None).  That finite sides
    agree is checked by the structural suite.

    By duality these are the projective dimensions of the duals of the
    projectives: over the opposite for the left side, and here, where the
    duals of the opposite's projectives are the injectives, for the right.
    """
    op = opposite(alg)
    id_left = pdim(op, [dual(alg, p) for p in _projectives(alg)])
    id_right = pdim(alg, [dual(op, p) for p in _projectives(op)])
    if id_left != INF and id_right != INF:
        return id_left, id_right, id_left
    return id_left, id_right, None


# --- ext groups --------------------------------------------------------------

def _ext1_count(n, cyclic, c_top, top, length, top_v, len_v):
    """dim Ext^1(W, v) for W = M(top, length) with cover P(top) of length
    c_top, and v = M(top_v, len_v), in one step.

    Restricting along Omega W in P(top) sends the canonical map P(top) -> v
    of image length i to the canonical map Omega W -> v of image length
    i - length, or to zero when i <= length.  So the maps Omega W -> v that
    do not extend to the cover, which span Ext^1(W, v), have the image
    lengths j with lo < j <= hi, lo = max(0, min(c_top, len_v) - length)
    and hi = min(c_top - length, len_v), and j = r for
    r = top - length - top_v + len_v, mod n in the cyclic case.  There are
    (hi - r) // n - (lo - r) // n of them.  A projective W has lo = hi = 0.
    """
    hi = c_top - length
    if len_v < hi:
        hi = len_v
    lo = (c_top if c_top < len_v else len_v) - length
    if lo < 0:
        lo = 0
    r = top - length - top_v + len_v
    if cyclic:
        return (hi - r) // n - (lo - r) // n
    return 1 if lo < r <= hi else 0


def ext_dim(alg, u, v, k):
    """dim Ext^k(u, v) by dimension shifting along syzygies; ValueError when
    k < 0.

    Ext^k(u, v) = Ext^1(W, v) for the (k-1)-st syzygy W of u, and the cover
    0 -> Omega W -> P(top W) -> W -> 0 gives the exact sequence
    0 -> Hom(W, v) -> Hom(P(top W), v) -> Hom(Omega W, v) -> Ext^1(W, v) -> 0
    (Assem-Simson-Skowronski I, IV.2).  _ext1_count counts the cokernel
    directly, the maps Omega W -> v that do not extend to the cover; the
    matrix oracle, the three-term alternating sum of Hom counts, and the
    restriction of hom_basis along Omega W check it in the tests.
    """
    if k < 0:
        raise ValueError("Ext degree must be >= 0, got %d" % k)
    if u is None or v is None:
        return 0
    n, cyclic, c = alg.n, alg.kind == "cyclic", alg.c
    if k == 0:
        return _hom_count(n, cyclic, u.top, u.length, v.top, v.length)
    top, length = u.top, u.length
    for _ in range(k - 1):
        w = _syzygy_pair(n, c, top, length)
        if w is None:
            return 0
        top, length = w
    e = _ext1_count(n, cyclic, c[top - 1], top, length, v.top, v.length)
    assert e >= 0
    return e
