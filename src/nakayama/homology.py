"""Hom spaces, syzygies, and homological dimensions for uniserial modules.

A nonzero map M(i,k_u) -> M(j,l_v) factors as quotient-of-source onto
submodule-of-target; its isomorphism class is pinned by the image length k,
which must satisfy k = top(u) - top(v) + len(v) modulo n (exactly, in the
linear case) and 1 <= k <= min(len u, len v).  These canonical maps form a
basis of the Hom space, and compositions of canonical maps are canonical with
structure constant 1 (or zero), so all Hom/Ext arithmetic is integral.

Projective dimensions come from one walker, _walk_dims: it follows the
syzygy recursion M(i,l) -> M(i-l, c_i-l) until a projective is reached,
sharing results along each path; a module revisited on its own path means an
infinite resolution.  Injective dimensions are projective dimensions over the
opposite algebra, id_A(M) = pd_{A^op}(DM) (Assem-Simson-Skowronski I, A.4), so
no dimension walk needs an injective envelope.  pdim and idim walk only the
summands they are given, pdim_table and idim_table all sum(c)
indecomposables, gldim only the simples and gorenstein_dim only the duals of
the projectives on each side.  Dominant dimension walks injective envelopes
while they stay projective.
"""

from dataclasses import dataclass

from .core import (
    INF,
    Uniserial,
    dual,
    indecomposables,
    injective,
    is_projective,
    opposite,
    projective,
    socle_vertex,
)


# --- hom spaces --------------------------------------------------------------

@dataclass(frozen=True, order=True)
class HomMap:
    """Canonical map between uniserials, recorded by its image length k."""

    source: Uniserial
    target: Uniserial
    k: int

    def __repr__(self):
        return "Hom[%r -> %r, k=%d]" % (self.source, self.target, self.k)


def _first_image_length(alg, u, v):
    """Smallest admissible image length, or 0 if there is none."""
    if alg.kind == "linear":
        k = u.top - v.top + v.length
        return k if 1 <= k <= min(u.length, v.length) else 0
    k = (u.top - v.top + v.length) % alg.n
    if k == 0:
        k = alg.n
    return k if k <= min(u.length, v.length) else 0


def hom_dim(alg, u, v):
    """dim Hom(u, v); zero modules give 0."""
    if u is None or v is None:
        return 0
    k = _first_image_length(alg, u, v)
    if k == 0:
        return 0
    if alg.kind == "linear":
        return 1
    return (min(u.length, v.length) - k) // alg.n + 1


def hom_basis(alg, u, v):
    """The canonical maps u -> v, ordered by ascending image length."""
    if u is None or v is None:
        return []
    k = _first_image_length(alg, u, v)
    if k == 0:
        return []
    step = alg.n if alg.kind == "cyclic" else min(u.length, v.length) + 1
    out = []
    while k <= min(u.length, v.length):
        out.append(HomMap(u, v, k))
        k += step
    return out


def identity_hom(alg, u):
    return HomMap(u, u, u.length)


def is_valid_hom(alg, f):
    if not 1 <= f.k <= min(f.source.length, f.target.length):
        return False
    residue = f.source.top - f.target.top + f.target.length - f.k
    return residue % alg.n == 0 if alg.kind == "cyclic" else residue == 0


def compose(alg, f, g):
    """g after f, for f: u -> v and g: v -> w; None encodes the zero map."""
    if f is None or g is None:
        return None
    assert f.target == g.source, "compose needs target(f) == source(g)"
    k = f.k + g.k - f.target.length
    if k <= 0:
        return None
    out = HomMap(f.source, g.target, k)
    assert is_valid_hom(alg, out)
    return out


# --- syzygies ----------------------------------------------------------------

def syzygy(alg, u):
    """Kernel of the projective cover P(top u) -> u; None iff u is projective."""
    if u is None or is_projective(alg, u):
        return None
    c = alg.c[u.top - 1]
    return Uniserial(alg.normalize(u.top - u.length), c - u.length)


def cosyzygy(alg, u):
    """Cokernel of u -> I(soc u); None iff u is injective."""
    if u is None:
        return None
    env = injective(alg, socle_vertex(alg, u))
    if env.length == u.length:
        return None
    return Uniserial(env.top, env.length - u.length)


def _summands(m):
    if m is None:
        return []
    if isinstance(m, Uniserial):
        return [m]
    return list(m)


def _walk_dims(alg, modules):
    """{module: its projective dimension} for the given modules and every
    module met on their syzygy walks.

    Walks share results, and a walk that returns to a module on its own path
    never ends, so every module on that path gets INF.
    """
    memo = {}
    for w in modules:
        path = {}    # insertion-ordered set of the modules walked so far
        while w not in memo and w not in path:
            if is_projective(alg, w):
                memo[w] = 0
            else:
                path[w] = None
                w = syzygy(alg, w)
        base = memo.get(w, INF)
        for j, wj in enumerate(path):
            memo[wj] = base + (len(path) - j)
    return memo


def pdim(alg, m):
    """Projective dimension of a module or direct sum (0 for the zero module)."""
    mods = _summands(m)
    walk = _walk_dims(alg, mods)
    return max((walk[u] for u in mods), default=0)


def idim(alg, m):
    """Injective dimension (0 for the zero module): the projective dimension
    of the dual over the opposite algebra."""
    return pdim(opposite(alg), [dual(alg, u) for u in _summands(m)])


def pdim_table(alg):
    """pdim of every indecomposable at once, sharing the syzygy walks."""
    return _walk_dims(alg, indecomposables(alg))


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
    coresolution of u; INF when the coresolution stays projective-injective."""
    count = 0
    seen = set()
    w = u
    while True:
        if w is None:
            return INF
        env = injective(alg, socle_vertex(alg, w))
        if not is_projective(alg, env):
            return count
        count += 1
        if w in seen:
            return INF
        seen.add(w)
        w = None if env.length == w.length else Uniserial(env.top, env.length - w.length)


def domdim(alg):
    """min over the indecomposable projectives; INF iff selfinjective."""
    vals = [domdim_module(alg, p) for p in _projectives(alg)]
    finite = [v for v in vals if v != INF]
    return min(finite) if finite else INF


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

def ext_dim(alg, u, v, k):
    """dim Ext^k(u, v) by dimension shifting along syzygies."""
    assert k >= 0
    if u is None or v is None:
        return 0
    if k == 0:
        return hom_dim(alg, u, v)
    w = u
    for _ in range(k - 1):
        w = syzygy(alg, w)
        if w is None:
            return 0
    omega = syzygy(alg, w)
    if omega is None:
        return 0
    e = hom_dim(alg, omega, v) - hom_dim(alg, projective(alg, w.top), v) \
        + hom_dim(alg, w, v)
    assert e >= 0
    return e


def ext_sum(alg, m1, m2, k):
    """dim Ext^k between direct sums."""
    return sum(ext_dim(alg, a, b, k) for a in _summands(m1) for b in _summands(m2))
