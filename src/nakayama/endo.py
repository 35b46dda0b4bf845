"""Endomorphism algebras of module sums as explicit structure-constant data.

Convention, fixed once: for canonical maps f: X_a -> X_b and g: X_b -> X_c
the algebra product f * g is the composite "f then g" (g after f).  This is
the opposite of the composition ring, chosen so that the Hom(X, -) spaces
below are left modules via g . phi = phi after g.  Products of canonical
maps are canonical or zero, so every structure constant is 0 or 1 and module
actions are column maps (each basis vector goes to a basis vector or to 0).

All ranks and kernels are exact rational computations.
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    INF,
    ModuleSum,
    Uniserial,
    format_module,
    injective,
    is_injective,
    projective,
)
from .homology import (
    compose,
    ext_dim,
    gldim,
    hom_basis,
    identity_hom,
    pdim,
    syzygy,
)
from .linalg import kernel_basis, rank, reduced_kernel
from .tilting import canonical_tilting, pd_tau_tilting


@dataclass(frozen=True)
class OverCap:
    """Honest sentinel for a resolution that ran past the step cap."""

    cap: int

    def __str__(self):
        return ">%d" % self.cap


class StructureConstantAlgebra:
    """End(X) with the reversed product, on the canonical Hom bases.

    basis[i] is a HomMap between summands of X; table[i][j] is the basis
    index of basis[i] * basis[j], or None when the product is zero or the
    targets do not line up.
    """

    def __init__(self, alg, x):
        if isinstance(x, Uniserial):
            x = ModuleSum.of([x])
        if not x.is_basic():
            raise ValueError("summands must be multiplicity-free")
        if len(x) == 0:
            raise ValueError("the zero module has no unit")
        self.alg = alg
        self.summands = x.summands
        self.basis = tuple(
            f for a in self.summands for b in self.summands
            for f in hom_basis(alg, a, b))
        self.index = {f: i for i, f in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.idempotents = tuple(
            self.index[identity_hom(alg, a)] for a in self.summands)
        self.table = []
        for f in self.basis:
            row = []
            for g in self.basis:
                if f.target != g.source:
                    row.append(None)
                else:
                    h = compose(alg, f, g)
                    row.append(self.index[h] if h is not None else None)
            self.table.append(row)
        self._validate()

    def _validate(self):
        t = self.table
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    ij = t[i][j]
                    jk = t[j][k]
                    left = t[ij][k] if ij is not None else None
                    right = t[i][jk] if jk is not None else None
                    assert left == right, "associativity fails at basis triple"
        idem = set(self.idempotents)
        for e in idem:
            for f in idem:
                assert t[e][f] == (e if e == f else None)
        for i, f in enumerate(self.basis):
            src = self.index[identity_hom(self.alg, f.source)]
            tgt = self.index[identity_hom(self.alg, f.target)]
            for e in idem:
                assert t[e][i] == (i if e == src else None)
                assert t[i][e] == (i if e == tgt else None)

    def summand_position(self, u):
        return self.summands.index(u)

    def json_dict(self):
        triples = [[i, j, tgt, 1]
                   for i, row in enumerate(self.table)
                   for j, tgt in enumerate(row) if tgt is not None]
        return {
            "dim": self.dim,
            "idempotents": list(self.idempotents),
            "basis": [[format_module(f.source), format_module(f.target), f.k]
                      for f in self.basis],
            "table": triples,
        }


def end_algebra(alg, x):
    return StructureConstantAlgebra(alg, x)


class AlgebraModule:
    """Left module on a canonical Hom basis; actions are column maps.

    labels[j] is a HomMap from some summand of X into the underlying module;
    cols[i][j] gives the index of basis[i] . labels[j], or None for zero.
    Unit decomposition and compatibility with the full multiplication table
    are validated at construction.
    """

    def __init__(self, algebra, labels, cols):
        self.algebra = algebra
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.cols = cols
        self._validate()

    def _validate(self):
        a = self.algebra
        src = [a.summand_position(phi.source) for phi in self.labels]
        for pos, e in enumerate(a.idempotents):
            for j in range(self.dim):
                want = j if src[j] == pos else None
                assert self.cols[e][j] == want, "unit decomposition broken"
        for i in range(a.dim):
            for j in range(a.dim):
                ij = a.table[i][j]
                for m in range(self.dim):
                    step = self.cols[j][m]
                    composite = self.cols[i][step] if step is not None else None
                    direct = self.cols[ij][m] if ij is not None else None
                    assert composite == direct, "action ignores the table"

    def action_matrix(self, i):
        mat = [[0] * self.dim for _ in range(self.dim)]
        for j, tgt in enumerate(self.cols[i]):
            if tgt is not None:
                mat[tgt][j] = 1
        return mat

    def block_of(self, j):
        """Index of the summand of X the j-th basis map starts from."""
        return self.algebra.summand_position(self.labels[j].source)


def hom_module(algebra, m):
    """Hom(X, m) as a left module over End(X) with the reversed product."""
    alg = algebra.alg
    if m is None:
        m = ModuleSum.of([])
    if isinstance(m, Uniserial):
        m = ModuleSum.of([m])
    if not m.is_basic():
        raise ValueError("summands must be multiplicity-free")
    labels = [phi for a in algebra.summands for c in m.summands
              for phi in hom_basis(alg, a, c)]
    index = {phi: j for j, phi in enumerate(labels)}
    cols = []
    for g in algebra.basis:
        col = []
        for phi in labels:
            if g.target != phi.source:
                col.append(None)
            else:
                h = compose(alg, g, phi)
                col.append(index[h] if h is not None else None)
        cols.append(col)
    return AlgebraModule(algebra, labels, cols)


def regular_module(algebra):
    return hom_module(algebra, ModuleSum.of(algebra.summands))


def simple_modules(algebra):
    """One simple per summand: the idempotent acts by 1, all else by 0."""
    out = []
    for pos, a in enumerate(algebra.summands):
        e = algebra.idempotents[pos]
        labels = [identity_hom(algebra.alg, a)]
        cols = [[0] if i == e else [None] for i in range(algebra.dim)]
        out.append(AlgebraModule(algebra, labels, cols))
    return out


def radical_and_simples(algebra):
    """Radical as the kernel of the trace form of left multiplication.

    Over the rationals the radical is exactly the radical of the form
    (x, y) -> trace(L_{x*y}).  For canonical Hom bases this must come out as
    the span of the non-identity basis maps, which is asserted.
    """
    n = algebra.dim
    t = algebra.table
    tr = [sum(1 for j in range(n) if t[z][j] == j) for z in range(n)]
    gram = [[tr[t[i][j]] if t[i][j] is not None else 0 for j in range(n)]
            for i in range(n)]
    rad = kernel_basis(gram, n)
    idem = set(algebra.idempotents)
    assert len(rad) == n - len(algebra.summands)
    for i in range(n):
        if i in idem:
            assert gram[i][i] != 0
        else:
            assert not any(gram[i])  # non-identity rows vanish identically
    return rad, simple_modules(algebra)


class _Span:
    """Incremental row space over the rationals."""

    def __init__(self):
        self.rows = []   # reduced, each with leading pivot position

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for pivot, row in self.rows:
            if v[pivot]:
                coef = v[pivot]
                v = [a - coef * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self._reduce(vec)
        for pivot, x in enumerate(v):
            if x:
                self.rows.append((pivot, [a / x for a in v]))
                return True
        return False

    def copy(self):
        out = _Span()
        out.rows = list(self.rows)
        return out


def syzygy_step(algebra, dim, mats):
    """Kernel of a minimal projective cover, as (dimension, action matrices).

    mats may be rational; columns of mats[i] are the images of the basis
    vectors under the i-th algebra basis element.  The kernel is reduced once;
    the coordinates of each image sit at its free columns, and its pivot
    entries are checked against them, so every image is tested exactly for
    membership in the kernel.
    """
    if dim == 0:
        return 0, []
    idem = set(algebra.idempotents)
    rad = _Span()
    for i in range(algebra.dim):
        if i in idem:
            continue
        for col in zip(*mats[i]):
            if any(col):
                rad.add(col)
    gens = []
    for pos, e in enumerate(algebra.idempotents):
        span = rad.copy()
        for u in zip(*mats[e]):
            if any(u) and span.add(u):
                gens.append((pos, u))
    summand_pos = {u: pos for pos, u in enumerate(algebra.summands)}
    col_indices = [[] for _ in algebra.summands]
    for i, f in enumerate(algebra.basis):
        col_indices[summand_pos[f.target]].append(i)
    # cover[c] = (algebra basis index, generator number); generators are
    # pairwise distinct vectors (independent within one idempotent block,
    # zero products across blocks), so numbers stand in for the vectors
    cover = [(i, k) for k, (pos, _) in enumerate(gens) for i in col_indices[pos]]
    theta = [[0] * len(cover) for _ in range(dim)]
    support = [[(j, x) for j, x in enumerate(u) if x] for _, u in gens]
    for c, (i, k) in enumerate(cover):
        for r in range(dim):
            theta[r][c] = sum(mats[i][r][j] * x for j, x in support[k])
    red, pivots, kernel = reduced_kernel(theta, len(cover))
    kd = len(kernel)
    if kd == 0:
        return 0, []
    scale = [(f, vec[f]) for f, vec in kernel.items()]
    sparse = [[(p, x) for p, x in enumerate(vec) if x] for vec in kernel.values()]
    position = {}
    for c, key in enumerate(cover):
        position.setdefault(key, c)
    new_mats = []
    for g in range(algebra.dim):
        product = algebra.table[g]
        cols = []
        for vec in sparse:
            out = {}
            for p, x in vec:
                i, k = cover[p]
                t = product[i]
                if t is not None:
                    q = position[t, k]
                    out[q] = out.get(q, 0) + x
            at_free = [(f, x) for f, x in out.items() if f in kernel]
            for r, p in enumerate(pivots):
                row = red[r]
                assert out.get(p, 0) == -sum(row[f] * x for f, x in at_free), \
                    "cover kernel is not action-stable"
            cols.append([Fraction(out[f], s) if f in out else 0
                         for f, s in scale])
        new_mats.append([list(row) for row in zip(*cols)])
    return kd, new_mats


def resolution_dims(algebra, module, cap=30):
    """Dimensions of the iterated syzygies, starting with the module itself;
    stops at zero or after cap steps."""
    if cap < 1:
        raise ValueError("cap must be positive")
    d = module.dim
    mats = [module.action_matrix(i) for i in range(algebra.dim)]
    dims = [d]
    for _ in range(cap):
        if d == 0:
            break
        d, mats = syzygy_step(algebra, d, mats)
        dims.append(d)
    return dims


def pd_over(algebra, module, cap=30):
    """Projective dimension by explicit minimal resolutions; OverCap(cap)
    when the resolution has not terminated after cap syzygies."""
    if cap < 1:
        raise ValueError("cap must be positive")
    dims = resolution_dims(algebra, module, cap + 1)
    if dims[-1]:
        return OverCap(cap)
    # dims ends with the first zero syzygy; the zero module has pd 0
    return max(len(dims) - 2, 0)


def gldim_over(algebra, cap=30):
    vals = [pd_over(algebra, s, cap) for s in simple_modules(algebra)]
    for v in vals:
        if isinstance(v, OverCap):
            return v
    return max(vals) if vals else 0


def drop_check(alg, cap=30):
    """Both sides of the global-dimension drop equivalence, independently.

    Returns {gldim, gldim_endo, pd_tau, holds}; holds is None when the
    endo-side resolution ran over the cap.
    """
    gl = gldim(alg)
    if gl == INF:
        raise ValueError("global dimension must be finite")
    t = canonical_tilting(alg)
    if t is None:
        raise ValueError("no canonical tilting module: dominant dimension < 2")
    return _drop_record(gl, gldim_over(end_algebra(alg, t), cap),
                        pd_tau_tilting(alg))


def _drop_record(gl, glb, pdt):
    """The drop_check record for gldim gl, gldim of End(T) glb and pd tau pdt."""
    if isinstance(glb, OverCap):
        holds = None
    else:
        assert gl - 1 <= glb <= gl
        holds = (glb < gl) == (pdt < gl)
    return {"gldim": gl, "gldim_endo": glb, "pd_tau": pdt, "holds": holds}


def _first_nonvanishing_ext(alg, a, b):
    """Least i >= 1 with Ext^i(a, b) nonzero, INF if none (cycle-detected)."""
    w = a
    seen = set()
    i = 1
    while w is not None and w not in seen:
        seen.add(w)
        if ext_dim(alg, w, b, 1) != 0:
            return i
        w = syzygy(alg, w)
        i += 1
    return INF


def mueller_domdim(alg, x):
    """Dominant dimension of End(x) via the Ext-vanishing run of x.

    x must be a basic generator-cogenerator; the value is 2 plus the length
    of the maximal initial run of vanishing Ext^i(x, x), infinite when the
    vanishing persists around every syzygy cycle.
    """
    if isinstance(x, Uniserial):
        x = ModuleSum.of([x])
    if not x.is_basic():
        raise ValueError("summands must be multiplicity-free")
    have = set(x.summands)
    for i in range(1, alg.n + 1):
        if projective(alg, i) not in have or injective(alg, i) not in have:
            raise ValueError("generator-cogenerator required: "
                             "every projective and injective must appear")
    first = INF
    for a in x:
        for b in x:
            first = min(first, _first_nonvanishing_ext(alg, a, b))
    return 2 + (first - 1) if first != INF else INF


def module_endomorphisms(algebra, module):
    """Dimension of the endomorphism ring of a module, by solving the
    commutant equations blockwise over the idempotent decomposition."""
    nblocks = len(algebra.summands)
    blocks = [[] for _ in range(nblocks)]
    for j in range(module.dim):
        blocks[module.block_of(j)].append(j)
    sizes = [len(b) for b in blocks]
    offs = []
    total = 0
    for s in sizes:
        offs.append(total)
        total += s * s
    if total == 0:
        return 0
    pos_in_block = {}
    for bi, members in enumerate(blocks):
        for p, j in enumerate(members):
            pos_in_block[j] = p

    rows = []
    for gi, g in enumerate(algebra.basis):
        s = algebra.summand_position(g.source)
        t = algebra.summand_position(g.target)
        # the action of g maps block t into block s
        act = [[0] * sizes[t] for _ in range(sizes[s])]
        col = module.cols[gi]
        for j in blocks[t]:
            tgt = col[j]
            if tgt is not None:
                act[pos_in_block[tgt]][pos_in_block[j]] = 1
        for r in range(sizes[s]):
            for c in range(sizes[t]):
                row = [0] * total
                for k in range(sizes[s]):
                    if act[k][c]:
                        row[offs[s] + r * sizes[s] + k] += act[k][c]
                for k in range(sizes[t]):
                    if act[r][k]:
                        row[offs[t] + k * sizes[t] + c] -= act[r][k]
                if any(row):
                    rows.append(row)
    return total - rank(rows)


def projdim_key_check(alg, m, cap=30):
    """Whether pd over End(T) of Hom(T, m) equals pd(m) - 1, for the
    canonical tilting module T and m covered by a projective-injective.
    None when the resolution overran the cap."""
    t = canonical_tilting(alg)
    if t is None:
        raise ValueError("no canonical tilting module: dominant dimension < 2")
    if not is_injective(alg, projective(alg, m.top)):
        raise ValueError("module is not generated by the projective-injectives")
    p = pdim(alg, m)
    if p == INF or p < 1:
        raise ValueError("projective dimension must be finite and positive")
    b = end_algebra(alg, t)
    over = pd_over(b, hom_module(b, m), cap)
    if isinstance(over, OverCap):
        return None
    return over == p - 1
