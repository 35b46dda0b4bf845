"""Tilting and cotilting modules cut out by the projective-injectives.

Q denotes the direct sum of all indecomposable projective-injective modules,
and the set of vertices j with P_j injective; the others are split.  The
subcategory of interest consists of the modules generated and cogenerated by
Q; inside it a distinguished tilting module exists precisely when the
dominant dimension is at least 2.  Both are read off the sequence through
H = {h_j = j - c_j} (P_j has socle S_{h_j + 1}), which gives the criterion
and membership, and the runs of _runs, which give the summands of T and X.
The cotilting module and its verification are read through the duality D
onto the opposite algebra (core.dual).  This module also provides the
classification predicates (selfinjective, Auslander, minimal
Auslander-Gorenstein, ...), the drop conditions for the global dimension of
the endomorphism algebra, and the Igusa-Todorov functions.

A rotation of a cyclic sequence is a quiver automorphism: it changes no
invariant and relabels the canonical T and C.  So classify keeps the report
of each rotation class it meets in _reports, keyed by the normal form r and
relabeled to cyclic:r, answers every later rotation of the class from it,
and never empties it; linear algebras never touch it.
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
    idim,
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


def _h_class(alg, x):
    """The integer x as a possible value of h, taken mod n into 1..n."""
    return (x - 1) % alg.n + 1


def _h_values(alg):
    """H = {h_j = j - c_j : 1 <= j <= n}, taken mod n."""
    return {_h_class(alg, j - c) for j, c in enumerate(alg.c, 1)}


def _runs(alg, q):
    """The runs M(j, l): j in q, l = 1, 2, ... while l < c_j and c_{j-l} = c_j - l.

    pd M(j, l) = 1 iff l < c_j and the syzygy M(j - l, c_j - l) is
    projective, so these are the modules of pd 1 with top in Q, in the order
    of indecomposables(alg).  The run of j walks back over the split
    vertices just before j, so it meets each split vertex i once, as
    M(i + d, d) with syzygy P_i, i + d the first vertex of Q after i.
    """
    for j in sorted(q):
        c = alg.c_at(j)
        l = 1
        while l < c and alg.c_at(j - l) == c - l:
            yield Uniserial(j, l)
            l += 1


def _subcat_split(alg):
    """(q, p, member): the split and in_tilting_subcat's test on one indecomposable."""
    q, p = split_projective_vertices(alg)
    h = _h_values(alg)
    return q, p, lambda u: u.top in q and _h_class(alg, u.top - u.length) in h


def in_tilting_subcat(alg, m):
    """Whether m is generated and cogenerated by the projective-injectives.

    Each summand u = M(i, l) has its top i in Q (its cover is injective)
    and i - l in H: its envelope I(S_{i-l+1}) is projective iff it is a P_j,
    j in Q, with h_j = i - l, and each value of h is h_j for some j in Q.
    """
    _, _, member = _subcat_split(alg)
    return all(member(u) for u in summands(m))


def syzygy_correspondence(alg):
    """The map u -> syzygy(u) on {u in the subcategory : pd u = 1}.

    Returns (X, the map, whether it is a bijection onto the non-injective
    projectives).  X is the runs (_runs) in the subcategory, in the order of
    indecomposables(alg).  That it maps X injectively into the projectives
    is checked by the tilting suite.
    """
    q, p, member = _subcat_split(alg)
    x = [u for u in _runs(alg, q) if member(u)]
    omega = {u: syzygy(alg, u) for u in x}
    return x, omega, set(omega.values()) == {projective(alg, i) for i in p}


def tilting_criterion(alg):
    """Numerical test equivalent to domdim >= 2: every split vertex is a
    value of h, p <= H.

    The classical form asks for h_j with j in Q; it is the same test.
    c_{j+1} <= c_j + 1, so the lifted h never decreases, and it stays put
    from j to j + 1 exactly when j is split.  So each value of h is taken
    last at a j where h moves on, a j in Q, since h gains n per turn.
    """
    _, p = split_projective_vertices(alg)
    return p <= _h_values(alg)


def canonical_tilting(alg):
    """The distinguished tilting module, or None when domdim < 2: the
    projective-injectives plus the runs, one M(i + d, d) per split vertex i."""
    if not tilting_criterion(alg):
        return None
    q, _ = split_projective_vertices(alg)
    return ModuleSum.of([projective(alg, j) for j in sorted(q)] + list(_runs(alg, q)))


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
    """The ClassificationReport of alg.  A cyclic algebra is computed only
    for the first rotation met of its class; the report is kept in _reports
    and every later rotation, the normal form too, is answered from it."""
    if alg.kind != "cyclic":
        return _classify(alg)
    r, t = rotation_normal_form(alg.c)
    rep = _reports.get(r)
    if rep is None:
        rep = _classify(alg)
        _reports[r] = _rotated(rep, r, -t) if t else rep
        return rep
    return _rotated(rep, alg.c, t) if t else rep


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
    # T is basic tilting with n summands, so cotilting iff id T <= 1
    tilting_cotilting = crit and idim(alg, t_c) <= 1

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
