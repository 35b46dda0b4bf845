"""Tilting and cotilting modules cut out by the projective-injectives.

Q denotes the direct sum of all indecomposable projective-injective modules.
The subcategory of interest consists of the modules generated and cogenerated
by Q; inside it a distinguished tilting module exists precisely when the
dominant dimension is at least 2, which a purely numerical test on the
admissible sequence detects.  This module also provides the classification
predicates (selfinjective, Auslander, minimal Auslander-Gorenstein, ...), the
drop conditions for the global dimension of the endomorphism algebra, and the
Igusa-Todorov functions.
"""

from dataclasses import dataclass

from .core import (
    INF,
    ModuleSum,
    Uniserial,
    dim_json,
    format_module,
    injective,
    is_injective,
    is_projective,
    make_module,
    projective,
    socle_vertex,
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
    pdim,
    simples,
    syzygy,
)
from .linalg import rank


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


def in_tilting_subcat(alg, m):
    """Whether m is generated and cogenerated by the projective-injectives.

    Concretely: the projective cover of each summand is injective and its
    injective envelope is projective.
    """
    if m is None:
        return True
    summands = m.summands if isinstance(m, ModuleSum) else (m,)
    return all(
        is_injective(alg, projective(alg, u.top))
        and is_projective(alg, injective(alg, socle_vertex(alg, u)))
        for u in summands
    )


def syzygy_correspondence(alg):
    """The map u -> syzygy(u) on {u in the subcategory : pd u = 1}.

    Returns (X, the map, whether it is a bijection onto the non-injective
    projectives), X in the order of indecomposables(alg).  Injectivity of the
    map always holds and is asserted.

    X is listed by vertex: its tops lie in Q, and pd M(i, l) = 1 exactly when
    l < c_i and the syzygy M(i - l, c_i - l) is projective, c_{i-l} = c_i - l.
    Since c_{j-1} >= c_j - 1, those l form a run 1, 2, ... that ends before n,
    so the cost is O(n^2) whatever the size of the c_i.
    """
    q, _ = split_projective_vertices(alg)
    x = []
    for i in sorted(q):
        c = alg.c_at(i)
        l = 1
        while l < c and alg.c_at(i - l) == c - l:
            u = Uniserial(i, l)
            if in_tilting_subcat(alg, u):
                x.append(u)
            l += 1
    omega = {}
    for u in x:
        w = syzygy(alg, u)
        assert w is not None and is_projective(alg, w)
        omega[u] = w
    assert len(set(omega.values())) == len(omega)
    target = {projective(alg, i) for i in range(1, alg.n + 1)
              if not is_injective(alg, projective(alg, i))}
    return x, omega, set(omega.values()) == target


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


def canonical_cotilting(alg):
    """The distinguished cotilting module, or None when domdim < 2."""
    if not tilting_criterion(alg):
        return None
    q, _ = split_projective_vertices(alg)
    parts = [projective(alg, j) for j in sorted(q)]
    for j in range(1, alg.n + 1):
        env = injective(alg, j)
        if not is_projective(alg, env):
            parts.append(syzygy(alg, env))
    return ModuleSum.of(parts)


def _check_summand_count(alg, m):
    if not isinstance(m, ModuleSum):
        raise ValueError("expected a ModuleSum")
    if not m.is_basic():
        raise ValueError("summands must be multiplicity-free")


def verify_tilting(alg, m):
    """pd <= 1 on every summand, Ext^1 vanishes on all ordered pairs, and
    the number of summands is n."""
    _check_summand_count(alg, m)
    if pdim(alg, m) > 1:
        return False
    if any(ext_dim(alg, u, v, 1) != 0 for u in m for v in m):
        return False
    return len(m) == alg.n


def verify_cotilting(alg, m):
    _check_summand_count(alg, m)
    if idim(alg, m) > 1:
        return False
    if any(ext_dim(alg, u, v, 1) != 0 for u in m for v in m):
        return False
    return len(m) == alg.n


@dataclass(frozen=True)
class ClassificationReport:
    kind: str
    c: tuple
    gldim: object
    domdim: object
    id_left: object
    id_right: object
    gdim: object          # common injective dimension, None when a side is infinite
    selfinjective: bool
    auslander: bool
    m_auslander: object   # maximal m, INF, or None
    one_aus_gorenstein: bool
    dtr_selfinjective: bool
    tilting_exists: bool
    t_c: object
    c_c: object
    tilting_cotilting: bool

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


def classify(alg):
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


def pd_tau_tilting(alg):
    """max pd of tau(u) over the non-projective summands of the canonical
    tilting module; 0 when every summand is projective."""
    t = canonical_tilting(alg)
    if t is None:
        raise ValueError("no canonical tilting module: dominant dimension < 2")
    vals = []
    for u in t:
        if is_projective(alg, u):
            continue
        w = tau(alg, u)
        assert w is not None
        vals.append(pdim(alg, w))
    return max(vals) if vals else 0


def gldim_drop_conditions(alg):
    """Four equivalent tests for gldim End < gldim, evaluated independently.

    Keys: 'pd' (pd tau T < d), 'ext' (Ext^d(tau T, S) = 0 for the simples S
    of injective dimension d), 'cover' (tau-inverse of the (d-1)-st cosyzygy
    of such S has projective-injective cover), 'nu' (the terminal coresolution
    term of such S is the injective at a vertex with injective projective).
    Equivalence is asserted.  d = 0 returns all true.
    """
    d = gldim(alg)
    if d == INF:
        raise ValueError("global dimension must be finite")
    t = canonical_tilting(alg)
    if t is None:
        raise ValueError("no canonical tilting module: dominant dimension < 2")
    keys = ("pd", "ext", "cover", "nu")
    if d == 0:
        return dict.fromkeys(keys, True)

    deep = [s for s in simples(alg) if idim(alg, s) == d]
    tau_parts = [tau(alg, u) for u in t if not is_projective(alg, u)]

    cond_pd = pd_tau_tilting(alg) < d
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

    out = dict(zip(keys, (cond_pd, cond_ext, cond_cover, cond_nu)))
    assert len(set(out.values())) == 1
    return out


class K0Vector:
    """Element of the free abelian group on the non-projective uniserials."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = {u: c for u, c in coefficients.items() if c}

    @classmethod
    def of_module(cls, alg, m):
        coeffs = {}
        if m is not None:
            summands = m.summands if isinstance(m, ModuleSum) else (m,)
            for u in summands:
                if not is_projective(alg, u):
                    coeffs[u] = coeffs.get(u, 0) + 1
        return cls(coeffs)

    def __add__(self, other):
        out = dict(self.coefficients)
        for u, c in other.coefficients.items():
            out[u] = out.get(u, 0) + c
        return K0Vector(out)

    def __eq__(self, other):
        return isinstance(other, K0Vector) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(frozenset(self.coefficients.items()))

    def is_zero(self):
        return not self.coefficients


def k0_rank(vectors):
    support = sorted({u for v in vectors for u in v.coefficients})
    col = {u: j for j, u in enumerate(support)}
    rows = []
    for v in vectors:
        row = [0] * len(support)
        for u, c in v.coefficients.items():
            row[col[u]] = c
        rows.append(row)
    return rank(rows)


def igusa_todorov(alg, m):
    """The functions (phi, psi) of a module.

    phi is the first step from which the rank of the syzygy image of the
    class group stays at its eventual value; psi adds the largest finite
    projective dimension among the summands after phi syzygies.
    """
    if not isinstance(m, ModuleSum):
        m = ModuleSum.of([m])
    track = list(m.summands)
    states = []
    seen = {}
    state = frozenset(u for u in track if not is_projective(alg, u))
    while state not in seen:
        seen[state] = len(states)
        states.append(state)
        state = frozenset(w for w in (syzygy(alg, u) for u in state)
                          if w is not None and not is_projective(alg, w))
    cycle_start = seen[state]
    ranks = [k0_rank([K0Vector.of_module(alg, u) for u in st]) for st in states]
    assert all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1))
    eventual = ranks[cycle_start]
    assert all(r == eventual for r in ranks[cycle_start:])
    phi = next(i for i, r in enumerate(ranks) if r == eventual)

    current = list(track)
    for _ in range(phi):
        current = [syzygy(alg, u) if u is not None else None for u in current]
    finite = [pdim(alg, u) for u in current
              if u is not None and pdim(alg, u) != INF]
    psi = phi + (max(finite) if finite else 0)
    return phi, psi
