"""Tilting and cotilting modules cut out by the projective-injectives.

Q denotes the direct sum of all indecomposable projective-injective modules.
The subcategory of interest consists of the modules generated and cogenerated
by Q; inside it a distinguished tilting module exists precisely when the
dominant dimension is at least 2, which a purely numerical test on the
admissible sequence detects.  Membership, the cotilting module and its
verification are read through the duality D onto the opposite algebra
(core.dual).  This module also provides the classification predicates
(selfinjective, Auslander, minimal Auslander-Gorenstein, ...), the drop
conditions for the global dimension of the endomorphism algebra, and the
Igusa-Todorov functions.

A rotation of a cyclic sequence is a quiver automorphism: it changes no
invariant and relabels the canonical T and C.  So classify keeps the report
of each rotation class met away from its normal form r in _reports, keyed by
r, and never empties it; linear algebras and normal forms never touch it.
"""

from collections import namedtuple

from .core import (
    INF,
    ModuleSum,
    Uniserial,
    basic_sum,
    dim_json,
    dual,
    format_module,
    injective,
    is_injective,
    is_projective,
    make_module,
    opposite,
    projective,
    rotation_normal_form,
    socle_vertex,
    summands,
    tau,
    tau_inv,
)
from .homology import (
    cosyzygy,
    domdim,
    ext_dim,
    gldim,
    gorenstein_dim,
    idim_table,
    pdim,
    syzygy,
)


def split_projective_vertices(alg):
    """Partition the vertices: Q holds i with projective(i) injective."""
    q, p = set(), set()
    for i in range(1, alg.n + 1):
        if alg.c_at(i + 1) <= alg.c_at(i):
            q.add(i)
        else:
            p.add(i)
    return frozenset(q), frozenset(p)


def projective_injectives(alg):
    q, _ = split_projective_vertices(alg)
    return ModuleSum.of(projective(alg, i) for i in sorted(q))


def basic_gen_cogen(alg):
    """The basic generator-cogenerator: all projectives and all injectives."""
    mods = {projective(alg, i) for i in range(1, alg.n + 1)}
    mods |= {injective(alg, j) for j in range(1, alg.n + 1)}
    return ModuleSum.of(sorted(mods))


def _subcat_split(alg):
    """(q, p, member): split_projective_vertices(alg) and the membership
    test of in_tilting_subcat for one indecomposable, from one split of the
    algebra and one of its opposite."""
    q, p = split_projective_vertices(alg)
    q_op, _ = split_projective_vertices(opposite(alg))
    return q, p, lambda u: u.top in q and dual(alg, u).top in q_op


def in_tilting_subcat(alg, m):
    """Whether m is generated and cogenerated by the projective-injectives.

    Concretely, each summand u has its top in Q (its cover is injective),
    and D u has its top in Q of the opposite (the envelope of u is projective).
    """
    _, _, member = _subcat_split(alg)
    return all(member(u) for u in summands(m))


def syzygy_correspondence(alg):
    """The map u -> syzygy(u) on {u in the subcategory : pd u = 1}.

    Returns (X, the map, whether it is a bijection onto the non-injective
    projectives), X in the order of indecomposables(alg).  That it maps X
    injectively into the projectives is checked by the tilting suite.

    X is listed by vertex: its tops lie in Q, and pd M(i, l) = 1 exactly when
    l < c_i and the syzygy M(i - l, c_i - l) is projective, c_{i-l} = c_i - l.
    Since c_{j-1} >= c_j - 1, those l form a run 1, 2, ... that ends before n,
    so the cost is O(n^2) whatever the size of the c_i.
    """
    q, p, member = _subcat_split(alg)
    x = []
    for i in sorted(q):
        c = alg.c_at(i)
        l = 1
        while l < c and alg.c_at(i - l) == c - l:
            u = Uniserial(i, l)
            if member(u):
                x.append(u)
            l += 1
    omega = {u: syzygy(alg, u) for u in x}
    return x, omega, set(omega.values()) == {projective(alg, i) for i in p}


def tilting_criterion(alg):
    """Numerical test equivalent to domdim >= 2: every split vertex i (with
    c_{i+1} = c_i + 1) must be of the form j - c_j for some vertex j whose
    projective is injective."""
    q, p = split_projective_vertices(alg)
    if alg.kind == "cyclic":
        return p <= {alg.normalize(j - alg.c_at(j)) for j in q}
    return p <= {j - alg.c_at(j) for j in q}


def _gap_to_q(alg, i, q):
    # smallest k >= 1 with i + k landing in q
    for k in range(1, alg.n + 1):
        j = alg.normalize(i + k) if alg.kind == "cyclic" else i + k
        if j in q:
            return k
    raise AssertionError("no projective-injective vertex ahead of %d" % i)


def canonical_tilting(alg):
    """The distinguished tilting module, or None when domdim < 2.

    Summands: the projective-injectives, plus one module of length delta(i)
    with socle i+1 for each split vertex i.
    """
    if not tilting_criterion(alg):
        return None
    q, p = split_projective_vertices(alg)
    parts = [projective(alg, j) for j in sorted(q)]
    for i in sorted(p):
        d = _gap_to_q(alg, i, q)
        parts.append(make_module(alg, i + d, d))
    return ModuleSum.of(parts)


def _tilting(alg):
    """The canonical tilting module; ValueError when domdim < 2."""
    t = canonical_tilting(alg)
    if t is None:
        raise ValueError("no canonical tilting module: dominant dimension < 2")
    return t


def canonical_cotilting(alg):
    """The distinguished cotilting module, or None when domdim < 2: the dual
    of the canonical tilting module of the opposite (domdim is symmetric)."""
    op = opposite(alg)
    t = canonical_tilting(op)
    return None if t is None else ModuleSum.of(dual(op, u) for u in t)


def verify_tilting(alg, m):
    """pd <= 1 on every summand, Ext^1 vanishes on all ordered pairs, and
    the number of summands is n, tested in that order."""
    if not isinstance(m, ModuleSum):
        raise ValueError("expected a ModuleSum")
    basic_sum(m)
    if pdim(alg, m) > 1:
        return False
    if any(ext_dim(alg, u, v, 1) != 0 for u in m for v in m):
        return False
    return len(m) == alg.n


def verify_cotilting(alg, m):
    """verify_tilting of D m over the opposite: id_A = pd_{A^op} o D, and D
    turns Ext^1_A(u, v) into Ext^1_{A^op}(D v, D u)."""
    if not isinstance(m, ModuleSum):
        raise ValueError("expected a ModuleSum")
    return verify_tilting(opposite(alg), ModuleSum.of(dual(alg, u) for u in m))


class ClassificationReport(namedtuple("ClassificationReport", (
        "kind", "c", "gldim", "domdim", "id_left", "id_right",
        "gdim",            # common injective dimension, None when a side is infinite
        "selfinjective", "auslander",
        "m_auslander",     # maximal m, INF, or None
        "one_aus_gorenstein", "dtr_selfinjective", "tilting_exists",
        "t_c", "c_c", "tilting_cotilting"))):
    __slots__ = ()

    def json_dict(self):
        def mods(m):
            return [format_module(u) for u in m] if m is not None else None

        return {
            "kind": self.kind,
            "c": list(self.c),
            "gldim": dim_json(self.gldim),
            "domdim": dim_json(self.domdim),
            "id_left": dim_json(self.id_left),
            "id_right": dim_json(self.id_right),
            "gdim": dim_json(self.gdim) if self.gdim is not None else None,
            "selfinjective": self.selfinjective,
            "auslander": self.auslander,
            "m_auslander": (dim_json(self.m_auslander)
                            if self.m_auslander is not None else None),
            "one_aus_gorenstein": self.one_aus_gorenstein,
            "dtr_selfinjective": self.dtr_selfinjective,
            "tilting_exists": self.tilting_exists,
            "t_c": mods(self.t_c),
            "c_c": mods(self.c_c),
            "tilting_cotilting": self.tilting_cotilting,
        }


_reports = {}  # rotation normal form r -> the report of cyclic:r


def _rotated(rep, c, t):
    """rep for the sequence c: each summand M(i, l) of t_c and c_c moves to M(i + t, l)."""
    def move(m):
        return None if m is None else ModuleSum.of(
            Uniserial((u.top + t - 1) % len(c) + 1, u.length) for u in m)

    return rep._replace(c=c, t_c=move(rep.t_c), c_c=move(rep.c_c))


def classify(alg):
    """The ClassificationReport of alg; a cyclic sequence other than its
    rotation normal form is answered from its class's report in _reports."""
    r, t = rotation_normal_form(alg.c) if alg.kind == "cyclic" else (None, 0)
    if not t:
        return _classify(alg)
    if r not in _reports:
        rep = _classify(alg)
        _reports[r] = _rotated(rep, r, -t)
        return rep
    return _rotated(_reports[r], alg.c, t)


def _classify(alg):
    gl = gldim(alg)
    dd = domdim(alg)
    id_left, id_right, common = gorenstein_dim(alg)
    _, p = split_projective_vertices(alg)
    selfinjective = not p

    auslander = gl <= 2 <= dd
    one_ag = id_left <= 2 <= dd
    dtr = id_left == 2 and dd == 2
    if gl == INF:
        m_aus = None
    elif dd == INF:
        m_aus = INF
    elif max(gl, 2) <= dd:
        m_aus = dd - 1
    else:
        m_aus = None

    crit = tilting_criterion(alg)
    t_c = canonical_tilting(alg)
    c_c = canonical_cotilting(alg)
    tilting_cotilting = bool(crit and verify_cotilting(alg, t_c))

    return ClassificationReport(
        kind=alg.kind, c=alg.c, gldim=gl, domdim=dd,
        id_left=id_left, id_right=id_right, gdim=common,
        selfinjective=selfinjective, auslander=auslander, m_auslander=m_aus,
        one_aus_gorenstein=one_ag, dtr_selfinjective=dtr,
        tilting_exists=crit, t_c=t_c, c_c=c_c,
        tilting_cotilting=tilting_cotilting,
    )


def pd_tau_tilting(alg, t):
    """max pd of tau(u) over the non-projective summands of the canonical
    tilting module t; 0 when every summand is projective."""
    return pdim(alg, [tau(alg, u) for u in t if not is_projective(alg, u)])


def gldim_drop_conditions(alg, t):
    """Four equivalent tests for gldim End(t) < gldim, evaluated independently.

    Keys: 'pd' (pd tau T < d), 'ext' (Ext^d(tau T, S) = 0 for the simples S
    of injective dimension d), 'cover' (tau-inverse of the (d-1)-st cosyzygy
    of such S has projective-injective cover), 'nu' (the terminal coresolution
    term of such S is the injective at a vertex with injective projective).
    The drop suite checks that they agree.  d = 0 returns all true.
    """
    d = gldim(alg)
    if d == INF:
        raise ValueError("global dimension must be finite")
    keys = ("pd", "ext", "cover", "nu")
    if d == 0:
        return dict.fromkeys(keys, True)

    deep = [s for s, i in idim_table(alg).items() if s.length == 1 and i == d]
    tau_parts = [tau(alg, u) for u in t if not is_projective(alg, u)]

    cond_pd = pdim(alg, tau_parts) < d
    cond_ext = all(ext_dim(alg, w, s, d) == 0 for w in tau_parts for s in deep)

    cond_cover = True
    cond_nu = True
    for s in deep:
        w = s
        for _ in range(d - 1):
            w = cosyzygy(alg, w)
            assert w is not None
        v = tau_inv(alg, w)
        assert v is not None  # id w = 1, so w is not injective
        if not is_injective(alg, projective(alg, v.top)):
            cond_cover = False
        last = cosyzygy(alg, w)
        assert last is not None and is_injective(alg, last)
        if not is_injective(alg, projective(alg, socle_vertex(alg, last))):
            cond_nu = False

    return dict(zip(keys, (cond_pd, cond_ext, cond_cover, cond_nu)))


def igusa_todorov(alg, m):
    """The functions (phi, psi) of a module.

    The walk follows the set of non-projective i-th syzygies of the
    summands; distinct uniserials have distinct classes, so its size is the
    rank of the syzygy image of the class group.  Each set is the image of
    the last, so sizes never grow and are constant from a repeated set on.
    phi is the first step at that eventual size; psi adds the largest finite
    pd over that step's set.
    """
    state = frozenset(u for u in summands(m) if not is_projective(alg, u))
    states = []
    while state not in states:
        states.append(state)
        state = frozenset(w for w in (syzygy(alg, u) for u in state)
                          if not is_projective(alg, w))
    phi = next(i for i, st in enumerate(states) if len(st) == len(state))
    finite = [d for d in (pdim(alg, u) for u in states[phi]) if d != INF]
    return phi, phi + max(finite, default=0)
