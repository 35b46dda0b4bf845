"""Endomorphism algebras of module sums as explicit structure-constant data.

Convention, fixed once: for canonical maps f: X_a -> X_b and g: X_b -> X_c
the algebra product f * g is the composite "f then g" (g after f).  This is
the opposite of the composition ring, chosen so that the Hom(X, -) spaces
below are left modules via g . phi = phi after g.  Products of canonical
maps are canonical or zero, so every structure constant is 0 or 1 and module
actions are column maps (each basis vector goes to a basis vector or to 0).

The basis runs over pairs of summands, source first: into[pos] lists the
basis maps that end at summand pos, and source_range[pos] is the contiguous
range of those that start there.

Construction checks only the inputs, each module's unit decomposition and
the pattern of each table: zero off composable pairs, and each product or
action running from the first source to the last target.  Associativity,
units and the module axioms are checked by the `endo` suite
(checks.broken_module_axiom): products add image lengths, which is
associative, and a wrong composite already fails the basis lookup.

Resolutions carry each module action as sparse columns: entry j of the i-th
action is the image of basis vector j as {row: coefficient}, zeros not
stored ({} for a zero image).  A map acts as zero unless it ends in a block
the module occupies, and all such maps share one zero row.  Shared rows are
read-only: nothing here mutates an action row or column once built.
End(X) is basic and minimal resolutions are unique up to isomorphism
(ASS I, I.5 and III.2), so a syzygy of dimension 1 is a simple whose
resolution is stored once per algebra.  The syzygy of the simple S_p is
Omega(S_p) = rad P_p, the span of the non-identity maps into p, so it is
read off the product table; only the syzygies of other modules are found
by elimination.  By Nakayama's lemma (ASS I, I.3) the kernel of a cover P
of M has dimension dim P - dim M, so a projective M needs no elimination
and every other kernel is checked against that count.  Ranks and kernels
are exact.
"""

from .core import (
    INF,
    basic_sum,
    format_module,
    injective,
    is_injective,
    projective,
)
from .homology import (
    _first_syzygy,
    compose,
    ext_dim,
    gldim,
    hom_basis,
    identity_hom,
    pdim,
)
from .linalg import (
    intertwiner_system,
    kernel_basis,
    pivot_columns,
    rank,
    reduced_kernel,
)
from .tilting import _tilting, pd_tau_tilting


class OverCap:
    """Honest sentinel for a resolution that ran past the step cap."""

    __slots__ = ("cap",)

    def __init__(self, cap):
        self.cap = cap

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.cap == other.cap
        return NotImplemented

    def __hash__(self):
        return hash((self.cap,))

    def __repr__(self):
        return "OverCap(cap=%r)" % (self.cap,)

    def __str__(self):
        return ">%d" % self.cap


def _product_table(alg, lefts, rights, index):
    """Row per f in lefts: for each g in rights, the index of "f then g",
    or None when f does not end where g starts or the composite is zero.
    Only the g that start where f ends are composed."""
    by_source = {}
    for j, g in enumerate(rights):
        by_source.setdefault(g.source, []).append((j, g))
    table = []
    for f in lefts:
        row = [None] * len(rights)
        for j, g in by_source.get(f.target, ()):
            h = compose(alg, f, g)
            if h is not None:
                row[j] = index[h]
        table.append(row)
    return table


class StructureConstantAlgebra:
    """End(X) with the reversed product, on the canonical Hom bases.

    basis[i] is a HomMap between summands of X; table[i][j] is the basis
    index of basis[i] * basis[j], or None when the product is zero or the
    targets do not line up.  into[pos] is the tuple of basis indices of the
    maps that end at summand pos, and source_range[pos] the range of those
    that start there.  Construction checks that the table is zero off
    composable pairs and that products run from source to target; the
    `endo` suite checks associativity and units.
    """

    def __init__(self, alg, x):
        x = basic_sum(x)
        if len(x) == 0:
            raise ValueError("the zero module has no unit")
        self.alg = alg
        self.summands = x.summands
        self.basis = tuple(
            f for a in self.summands for b in self.summands
            for f in hom_basis(alg, a, b))
        self.index = {f: i for i, f in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._pos = pos = {u: p for p, u in enumerate(self.summands)}
        # summand positions of the source and of the target of each basis map
        self.source_pos = tuple(pos[f.source] for f in self.basis)
        self.target_pos = tuple(pos[f.target] for f in self.basis)
        into = [[] for _ in self.summands]
        for i, p in enumerate(self.target_pos):
            into[p].append(i)
        self.into = tuple(tuple(maps) for maps in into)
        # the basis runs over pairs of summands source first, so the maps out
        # of each summand are one contiguous run
        ranges, lo = [], 0
        for p in range(len(self.summands)):
            hi = lo + self.source_pos.count(p)
            ranges.append(range(lo, hi))
            lo = hi
        self.source_range = tuple(ranges)
        self.idempotents = tuple(
            self.index[identity_hom(alg, a)] for a in self.summands)
        self.table = _product_table(alg, self.basis, self.basis, self.index)
        # syzygy dimensions of the simple of each block, from the simple
        # (dimension 1) to the first zero, as resolution_dims finds them
        self.simple_dims = {}
        self._validate()

    def _validate(self):
        t = self.table
        src, tgt = self.source_pos, self.target_pos
        n = self.dim
        for i, row in enumerate(t):
            # i composes only with the maps that start where it ends
            r = self.source_range[tgt[i]]
            block = row[r.start:r.stop]
            assert row.count(None) == n - len(block) + block.count(None), \
                "product of maps that do not compose"
            for j, ij in zip(r, block):
                if ij is not None:
                    assert src[ij] == src[i] and tgt[ij] == tgt[j], \
                        "product has the wrong source or target"

    def summand_position(self, u):
        return self._pos[u]

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
    cols[i][j] gives the index of basis[i] . labels[j], or None for zero;
    action_matrix(i) gives the same map as sparse columns.
    Construction checks the unit decomposition and that cols is zero unless
    basis[i] ends where labels[j] starts (the result then starts where
    basis[i] does); the `endo` suite checks the module axioms.
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
        bsrc, btgt = a.source_pos, a.target_pos
        zero = [None] * self.dim
        for i in range(a.dim):
            if self.cols[i] == zero:
                continue
            for m, im in enumerate(self.cols[i]):
                if im is not None:
                    assert btgt[i] == src[m], "action of a map that does not compose"
                    assert src[im] == bsrc[i], "action lands in the wrong block"

    def action_matrix(self, i):
        """The action of basis[i] as sparse columns: entry j is {} when
        basis[i] . labels[j] is zero and {index: 1} otherwise."""
        return [{} if t is None else {t: 1} for t in self.cols[i]]

    def block_of(self, j):
        """Index of the summand of X the j-th basis map starts from."""
        return self.algebra.summand_position(self.labels[j].source)


def hom_module(algebra, m):
    """Hom(X, m) as a left module over End(X) with the reversed product."""
    alg = algebra.alg
    m = basic_sum(m)
    labels = [phi for a in algebra.summands for c in m.summands
              for phi in hom_basis(alg, a, c)]
    index = {phi: j for j, phi in enumerate(labels)}
    return AlgebraModule(algebra, labels,
                         _product_table(alg, algebra.basis, labels, index))


def regular_module(algebra):
    """End(X) over itself: its action table is the product table."""
    return AlgebraModule(algebra, algebra.basis, algebra.table)


def simple_modules(algebra):
    """One simple per summand: the idempotent acts by 1, all else by 0;
    every other map shares one read-only all-None column row."""
    zero = [None]
    out = []
    for pos, a in enumerate(algebra.summands):
        cols = [zero] * algebra.dim
        cols[algebra.idempotents[pos]] = [0]
        out.append(AlgebraModule(algebra, [identity_hom(algebra.alg, a)], cols))
    return out


def radical_and_simples(algebra):
    """Radical as the kernel of the trace form of left multiplication.

    Over the rationals the radical is exactly the radical of the form
    (x, y) -> trace(L_{x*y}).  For canonical Hom bases this must come out as
    the span of the non-identity basis maps, which the endo suite checks.
    """
    n = algebra.dim
    t = algebra.table
    tr = [sum(1 for j in range(n) if t[z][j] == j) for z in range(n)]
    gram = [[tr[t[i][j]] if t[i][j] is not None else 0 for j in range(n)]
            for i in range(n)]
    return kernel_basis(gram, n), simple_modules(algebra)


def syzygy_step(algebra, dim, mats):
    """Kernel of a minimal projective cover, as (dimension, action columns).

    mats[i][j] is the image of basis vector j under the i-th algebra basis
    element as a sparse column {row: coefficient}; coefficients may be
    rational, zeros are not stored and a zero image is {}.  mats is only
    read, so rows may be shared.  The result's actions have the same form,
    each coordinate an int unless it is non-integral; every map that acts on
    the kernel as zero shares one zero row.  Only the maps into the blocks
    that the module and the kernel occupy are visited.  The cover's
    generators are chosen by one fraction-free pivot pass over the radical
    columns followed by the idempotent blocks; they span M / rad M, so by
    Nakayama's lemma the kernel has dimension len(cover) - dim, which skips
    the elimination for a projective M and checks every other kernel.
    The kernel is reduced once; the coordinates of each image sit at its
    free columns, and its pivot entries are checked against them, so every
    nonzero image is tested exactly for membership in the kernel.
    """
    if dim == 0:
        return 0, []
    into = algebra.into
    # a radical map acts as zero outside the block it ends at, and a block
    # holds vectors iff its idempotent has a nonzero column
    vecs = [col for pos, e in enumerate(algebra.idempotents) if any(mats[e])
            for i in into[pos] if i != e
            for col in mats[i] if col]
    nrad = len(vecs)
    blocks = [(pos, u) for pos, e in enumerate(algebra.idempotents)
              for u in mats[e] if u]
    vecs += [u for _, u in blocks]
    dense = [[0] * len(vecs) for _ in range(dim)]
    for c, col in enumerate(vecs):
        for r, x in col.items():
            dense[r][c] = x
    # a column u of block e is a pivot iff u is not in rad M + the columns
    # before it.  rad M is the direct sum of the e' rad M and u lies in eM, so
    # the earlier blocks' columns (in the other e'M) never matter: block e
    # keeps the u outside rad M + its own earlier columns
    gens = [blocks[c - nrad] for c in pivot_columns(dense) if c >= nrad]
    # cover[c] = (algebra basis index, generator number); generators are
    # pairwise distinct vectors (independent within one idempotent block,
    # zero products across blocks), so numbers stand in for the vectors
    cover = [(i, k) for k, (pos, _) in enumerate(gens) for i in into[pos]]
    if len(cover) == dim:
        return 0, []
    theta = [[0] * len(cover) for _ in range(dim)]
    for c, (i, k) in enumerate(cover):
        act = mats[i]
        for j, x in gens[k][1].items():
            for r, y in act[j].items():
                theta[r][c] += y * x
    red, pivots, kernel = reduced_kernel(theta, len(cover))
    kd = len(kernel)
    assert kd == len(cover) - dim, "the cover's generators do not generate"
    # kernel vector number and scale of each free column
    coord = {f: (c, vec[f]) for c, (f, vec) in enumerate(kernel.items())}
    position = {}
    for c, key in enumerate(cover):
        position.setdefault(key, c)
    # g . cover[p] is zero unless g ends where cover[p]'s map starts, so each
    # kernel vector is filed, entry by entry, under the blocks its maps start at
    starts = [algebra.source_pos[i] for i, _ in cover]
    filed = [[] for _ in algebra.summands]
    for c, vec in enumerate(kernel.values()):
        parts = {}
        for p, x in enumerate(vec):
            if x:
                parts.setdefault(starts[p], []).append((p, x))
        for pos, part in parts.items():
            filed[pos].append((c, part))
    # every g that meets no filed entry acts as zero and shares this row;
    # only the maps into blocks with filed entries get rows of their own
    zero = [{} for _ in range(kd)]
    new_mats = [zero] * algebra.dim
    for pos, touched in enumerate(filed):
        if not touched:
            continue
        for g in into[pos]:
            product = algebra.table[g]
            cols = [{} for _ in range(kd)]
            for c, part in touched:
                out = {}
                for p, x in part:
                    i, k = cover[p]
                    t = product[i]
                    if t is not None:
                        q = position[t, k]
                        out[q] = out.get(q, 0) + x
                if out:
                    at_free = [(f, x) for f, x in out.items() if f in coord]
                    for r, p in enumerate(pivots):
                        row = red[r]
                        assert row[p] * out.get(p, 0) == -sum(
                            row[f] * x for f, x in at_free), \
                            "cover kernel is not action-stable"
                    col = cols[c]
                    for f, x in at_free:
                        if x:
                            v, s = coord[f]
                            if x % s == 0:
                                col[v] = x // s
                            else:  # lazy, so `import nakayama` skips fractions
                                from fractions import Fraction
                                col[v] = Fraction(x, s)
            new_mats[g] = cols
    return kd, new_mats


def _radical_step(algebra, pos):
    """syzygy_step on the simple of block pos, read off the table: its first
    syzygy is rad P_pos, on the non-identity maps into pos in `into` order,
    and g acts on map i as the product g * i.  Only the maps into the blocks
    those maps start at get rows of their own."""
    e = algebra.idempotents[pos]
    rad = {i: c for c, i in enumerate(i for i in algebra.into[pos] if i != e)}
    if not rad:
        return 0, []
    mats = [[{} for _ in rad]] * algebra.dim
    for q in {algebra.source_pos[i] for i in rad}:
        for g in algebra.into[q]:
            row = algebra.table[g]
            try:
                mats[g] = [{} if row[i] is None else {rad[row[i]]: 1}
                           for i in rad]
            except KeyError:  # a product landed outside rad P_pos
                raise AssertionError("cover kernel is not action-stable") from None
    return len(rad), mats


def _walk(algebra, module, cap):
    """(dims, period) of the syzygy walk from the module, as resolution_dims
    describes it, unpadded: period is 0, or the period the walk repeats
    after dims once a simple is met twice.  A simple met is the simple of
    the block its idempotent acts on; one that ended at zero is spliced in.
    The syzygy of a simple S_p is rad P_p, read off the product table by
    _radical_step; only the other modules run syzygy_step."""
    d = module.dim
    # a map acts as zero unless it ends in a block the module occupies (the
    # module's validated pattern); all those maps share one zero row
    mats = [[{} for _ in range(d)]] * algebra.dim
    for pos in {module.block_of(j) for j in range(d)}:
        for i in algebra.into[pos]:
            mats[i] = module.action_matrix(i)
    known = algebra.simple_dims
    met = {}   # block of each simple on this walk -> its index in dims
    dims = []
    while True:
        if d == 1:
            pos = next(p for p, e in enumerate(algebra.idempotents)
                       if mats[e][0])
            if pos in known:
                dims += known[pos]
                break
            if pos in met:
                # the walk repeats what followed the first meeting
                return dims, len(dims) - met[pos]
            met[pos] = len(dims)
        dims.append(d)
        if d == 0 or len(dims) > cap:
            break
        if d == 1:
            d, mats = _radical_step(algebra, pos)
        else:
            d, mats = syzygy_step(algebra, d, mats)
    if dims[-1] == 0:
        for pos, at in met.items():
            known[pos] = dims[at:]
    return dims[:cap + 1], 0


def resolution_dims(algebra, module, cap=30):
    """Dimensions of the iterated syzygies, starting with the module itself;
    stops at zero or after cap steps.  A syzygy of dimension 1 is a simple,
    and a simple met twice makes the walk periodic up to the cap."""
    if cap < 1:
        raise ValueError("cap must be positive")
    dims, period = _walk(algebra, module, cap)
    while period and len(dims) <= cap:
        dims.append(dims[-period])
    return dims


def pd_over(algebra, module, cap=30):
    """Projective dimension by explicit minimal resolutions; OverCap(cap)
    when the resolution is periodic or runs past cap syzygies."""
    if cap < 1:
        raise ValueError("cap must be positive")
    dims, period = _walk(algebra, module, cap + 1)
    if period or dims[-1]:
        return OverCap(cap)
    # dims ends with the first zero syzygy; the zero module has pd 0
    return max(len(dims) - 2, 0)


def gldim_over(algebra, cap=30):
    top = 0
    for s in simple_modules(algebra):
        v = pd_over(algebra, s, cap)
        if isinstance(v, OverCap):
            return v
        top = max(top, v)
    return top


def drop_check(alg, cap=30):
    """Both sides of the global-dimension drop equivalence, independently.

    Returns {gldim, gldim_endo, pd_tau, holds}; holds is None when the
    endo-side resolution ran over the cap.
    """
    gl = gldim(alg)
    if gl == INF:
        raise ValueError("global dimension must be finite")
    t = _tilting(alg)
    return _drop_record(gl, gldim_over(end_algebra(alg, t), cap),
                        pd_tau_tilting(alg, t))


def _drop_record(gl, glb, pdt):
    """The drop_check record for gldim gl, gldim of End(T) glb and pd tau pdt."""
    holds = None if isinstance(glb, OverCap) else (glb < gl) == (pdt < gl)
    return {"gldim": gl, "gldim_endo": glb, "pd_tau": pdt, "holds": holds}


def mueller_domdim(alg, x):
    """Dominant dimension of End(x) via the Ext-vanishing run of x.

    x must be a basic generator-cogenerator; the value is 2 plus the length
    of the maximal initial run of vanishing Ext^i(x, x), infinite when the
    vanishing persists around every syzygy cycle.
    """
    x = basic_sum(x)
    have = set(x.summands)
    for i in range(1, alg.n + 1):
        if projective(alg, i) not in have or injective(alg, i) not in have:
            raise ValueError("generator-cogenerator required: "
                             "every projective and injective must appear")
    # Ext^i(a, b) = Ext^1(Omega^(i-1) a, b), so the run of vanishing
    # Ext^i(a, b), i >= 1, is the least i >= 0 with Ext^1(Omega^i a, b) != 0
    return 2 + min(_first_syzygy(alg, a, lambda w: ext_dim(alg, w, b, 1) != 0)
                   for a in x for b in x)


def module_endomorphisms(algebra, module):
    """dim Hom(M, M) by linalg.intertwiner_system: a vertex per summand block
    of X, and an arrow per basis map, from the block it ends at into the
    block it starts at (its action on M)."""
    blocks = [[] for _ in algebra.summands]
    for j in range(module.dim):
        blocks[module.block_of(j)].append(j)
    sizes = [len(b) for b in blocks]
    pos_in_block = {j: p for members in blocks for p, j in enumerate(members)}
    arrows = []
    for gi in range(algebra.dim):
        s, t = algebra.source_pos[gi], algebra.target_pos[gi]
        act = [[0] * sizes[t] for _ in range(sizes[s])]
        for j in blocks[t]:
            tgt = module.cols[gi][j]
            if tgt is not None:
                act[pos_in_block[tgt]][pos_in_block[j]] = 1
        arrows.append((t, s, act, act))
    rows, total = intertwiner_system(sizes, sizes, arrows)
    return total - rank(rows)


def projdim_key_check(b, t, m, cap=30):
    """Whether pd over b = End(T) of Hom(T, m) equals pd(m) - 1, for t the
    canonical tilting module T of b.alg as `canonical_tilting` gives it (None
    when there is none) and m covered by a projective-injective.  None when
    the resolution overran the cap."""
    alg = b.alg
    if t is None:
        raise ValueError("no canonical tilting module: dominant dimension < 2")
    if b.summands != t.summands:
        raise ValueError("expected End(T) of the canonical tilting module T")
    if not is_injective(alg, projective(alg, m.top)):
        raise ValueError("module is not generated by the projective-injectives")
    p = pdim(alg, m)
    if p == INF or p < 1:
        raise ValueError("projective dimension must be finite and positive")
    over = pd_over(b, hom_module(b, m), cap)
    if isinstance(over, OverCap):
        return None
    return over == p - 1
