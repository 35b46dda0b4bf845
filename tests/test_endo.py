import random

import pytest

from nakayama.core import (
    INF,
    AdmissibleSequence,
    ModuleSum,
    Uniserial,
    injective,
    is_injective,
    is_projective,
    parse_module_sum,
    projective,
    socle_vertex,
)
from nakayama.endo import (
    AlgebraModule,
    OverCap,
    _Span,
    drop_check,
    end_algebra,
    gldim_over,
    hom_module,
    module_endomorphisms,
    mueller_domdim,
    pd_over,
    projdim_key_check,
    radical_and_simples,
    regular_module,
    resolution_dims,
    simple_modules,
    syzygy_step,
)
from nakayama.homology import (
    cosyzygy,
    domdim,
    ext_dim,
    gldim,
    hom_dim,
    idim,
    pdim,
    simples,
)
from nakayama.linalg import kernel_basis, solve
from nakayama.tilting import (
    basic_gen_cogen,
    canonical_tilting,
    pd_tau_tilting,
    projective_injectives,
    tilting_criterion,
)

SHARP = AdmissibleSequence("cyclic", (3, 2, 3, 4, 3))
LIN5 = AdmissibleSequence("linear", (1, 2, 2, 2, 2))
A2 = AdmissibleSequence("linear", (1, 2))
TWO_AUS = AdmissibleSequence("cyclic", (2, 2, 3))


def gen_cogen(alg):
    return ModuleSum.of(sorted(
        {projective(alg, i) for i in range(1, alg.n + 1)}
        | {injective(alg, i) for i in range(1, alg.n + 1)}))


def test_end_algebra_dim_is_pairwise_hom_sum():
    for alg, x in [(A2, gen_cogen(A2)), (SHARP, canonical_tilting(SHARP)),
                   (SHARP, gen_cogen(SHARP))]:
        a = end_algebra(alg, x)
        assert a.dim == sum(hom_dim(alg, u, v) for u in x for v in x)
        assert len(a.idempotents) == len(x)


def test_end_algebra_frozen_dims():
    assert end_algebra(A2, gen_cogen(A2)).dim == 5
    assert end_algebra(SHARP, canonical_tilting(SHARP)).dim == 15
    assert end_algebra(LIN5, canonical_tilting(LIN5)).dim == 10


def test_end_algebra_rejects_bad_input():
    with pytest.raises(ValueError):
        end_algebra(A2, ModuleSum((Uniserial(1, 1), Uniserial(1, 1))))
    with pytest.raises(ValueError):
        end_algebra(A2, ModuleSum.of([]))


def test_single_projective_injective_is_commutative_chain():
    # n = 1, c = 4: End(P) is the truncated polynomial algebra of dim 4
    alg = AdmissibleSequence("cyclic", (4,))
    a = end_algebra(alg, Uniserial(1, 4))
    assert a.dim == 4
    for i in range(4):
        for j in range(4):
            assert a.table[i][j] == a.table[j][i]
    rad, _ = radical_and_simples(a)
    assert len(rad) == 3


def test_sum_of_simples_gives_product_of_fields():
    x = ModuleSum.of(simples(SHARP))
    a = end_algebra(SHARP, x)
    assert a.dim == 5
    rad, simp = radical_and_simples(a)
    assert len(rad) == 0
    assert len(simp) == 5


def test_radical_dims_frozen():
    assert len(radical_and_simples(end_algebra(A2, gen_cogen(A2)))[0]) == 2
    c22 = AdmissibleSequence("cyclic", (2, 2))
    lam = ModuleSum.of([projective(c22, 1), projective(c22, 2)])
    # radical dim = total dim minus one identity per summand
    assert len(radical_and_simples(end_algebra(c22, lam))[0]) == 2
    assert len(radical_and_simples(end_algebra(SHARP, canonical_tilting(SHARP)))[0]) == 10
    assert len(radical_and_simples(end_algebra(LIN5, canonical_tilting(LIN5)))[0]) == 5


def test_simples_are_one_dimensional():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    _, simp = radical_and_simples(a)
    assert [s.dim for s in simp] == [1] * len(a.summands)
    assert all(module_endomorphisms(a, s) == 1 for s in simp)


def test_hom_module_columns_are_projective():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    for u in a.summands:
        col = hom_module(a, u)
        assert col.dim == sum(hom_dim(SHARP, v, u) for v in a.summands)
        assert pd_over(a, col) == 0


def test_hom_module_zero_and_regular():
    a = end_algebra(A2, gen_cogen(A2))
    assert hom_module(a, None).dim == 0
    reg = regular_module(a)
    assert reg.dim == a.dim
    assert module_endomorphisms(a, reg) == a.dim


def test_pd_over_validates_cap():
    a = end_algebra(A2, gen_cogen(A2))
    with pytest.raises(ValueError):
        pd_over(a, regular_module(a), cap=0)
    with pytest.raises(ValueError):
        resolution_dims(a, regular_module(a), cap=-1)


def test_gldim_over_frozen():
    assert gldim_over(end_algebra(A2, gen_cogen(A2))) == 2
    assert gldim_over(end_algebra(LIN5, canonical_tilting(LIN5))) == 3
    assert gldim_over(end_algebra(SHARP, canonical_tilting(SHARP))) == 4


def test_gldim_over_infinite_reports_over_cap():
    c22 = AdmissibleSequence("cyclic", (2, 2))
    lam = ModuleSum.of([projective(c22, 1), projective(c22, 2)])
    g = gldim_over(end_algebra(c22, lam), cap=7)
    assert isinstance(g, OverCap)
    assert str(g) == ">7"


def test_resolution_dims_end_at_zero_for_finite_pd():
    a = end_algebra(LIN5, canonical_tilting(LIN5))
    for s in simple_modules(a):
        dims = resolution_dims(a, s)
        assert dims[0] == 1
        assert dims[-1] == 0
        assert len(dims) - 2 == pd_over(a, s)


def test_syzygy_step_matches_resolution():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    s = simple_modules(a)[0]
    d, mats = s.dim, [s.action_matrix(i) for i in range(a.dim)]
    dims = [d]
    while d:
        d, mats = syzygy_step(a, d, mats)
        dims.append(d)
    assert dims == resolution_dims(a, s)


def _reference_syzygy_step(algebra, dim, mats):
    """syzygy_step with the kernel taken as its cleared integer basis and the
    coordinates of each image found by one exact solve."""
    if dim == 0:
        return 0, []
    idem = set(algebra.idempotents)
    rad = _Span()
    for i in range(algebra.dim):
        if i not in idem:
            for j in range(dim):
                col = [row[j] for row in mats[i]]
                if any(col):
                    rad.add(col)
    cover = []
    for pos, e in enumerate(algebra.idempotents):
        span = rad.copy()
        for j in range(dim):
            u = [row[j] for row in mats[e]]
            if any(u) and span.add(u):
                cover.extend((i, u) for i, f in enumerate(algebra.basis)
                             if f.target == algebra.summands[pos])
    theta = [[sum(mats[i][r][k] * u[k] for k in range(dim)) for i, u in cover]
             for r in range(dim)]
    kernel = kernel_basis(theta, len(cover)) if cover else []
    kd = len(kernel)
    if kd == 0:
        return 0, []
    kcols = [list(col) for col in zip(*kernel)]
    new_mats = []
    for g in range(algebra.dim):
        cols = []
        for vec in kernel:
            out = [0] * len(cover)
            for p, x in enumerate(vec):
                i, u = cover[p]
                t = algebra.table[g][i]
                if x and t is not None:
                    out[cover.index((t, u))] += x
            coords = solve(kcols, out)
            assert coords is not None
            cols.append(coords)
        new_mats.append([[cols[c][r] for c in range(kd)] for r in range(kd)])
    return kd, new_mats


def test_syzygy_step_equals_kernel_basis_and_solve_route():
    # every matrix of every resolution step, entry for entry
    rung = AdmissibleSequence("linear", tuple(min(i, 5) for i in range(1, 13)))
    steps = 0
    for alg in (SHARP, LIN5, rung):
        a = end_algebra(alg, canonical_tilting(alg))
        for s in simple_modules(a):
            d, mats = s.dim, [s.action_matrix(i) for i in range(a.dim)]
            while d:
                want = _reference_syzygy_step(a, d, mats)
                d, mats = syzygy_step(a, d, mats)
                assert (d, mats) == want
                steps += 1
    assert steps == 60


def test_syzygy_step_rejects_a_non_module():
    # doubling one radical action entry of a first syzygy breaks the module
    # axioms, and an image of the cover kernel leaves the kernel
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    s = simple_modules(a)[0]
    d, mats = syzygy_step(a, s.dim, [s.action_matrix(i) for i in range(a.dim)])
    assert d == 4 and mats[12][2][3] == 1
    mats[12][2][3] *= 2
    with pytest.raises(AssertionError, match="action-stable"):
        syzygy_step(a, d, mats)


def test_drop_check_frozen():
    assert drop_check(SHARP) == {
        "gldim": 4, "gldim_endo": 4, "pd_tau": 4, "holds": True}
    assert drop_check(LIN5) == {
        "gldim": 4, "gldim_endo": 3, "pd_tau": 0, "holds": True}
    assert drop_check(TWO_AUS) == {
        "gldim": 3, "gldim_endo": 3, "pd_tau": 3, "holds": True}


def test_drop_check_preconditions():
    with pytest.raises(ValueError):
        drop_check(AdmissibleSequence("cyclic", (2, 2, 2)))  # infinite gldim
    with pytest.raises(ValueError):
        drop_check(AdmissibleSequence("cyclic", (2, 3, 3)))  # no tilting module


def test_drop_check_grid():
    # every finite-gldim algebra with a canonical tilting module satisfies
    # the drop equivalence, and the endo gldim sits in [gldim-1, gldim]
    from itertools import product
    for kind, n, cmax in [("cyclic", 3, 5), ("cyclic", 4, 4), ("linear", 4, 4)]:
        for c in product(range(1, cmax + 1), repeat=n):
            try:
                alg = AdmissibleSequence(kind, c)
            except ValueError:
                continue
            if gldim(alg) == INF or not tilting_criterion(alg):
                continue
            rec = drop_check(alg)
            assert rec["holds"] is True
            assert rec["gldim"] - 1 <= rec["gldim_endo"] <= rec["gldim"]


def test_mueller_frozen():
    assert mueller_domdim(A2, gen_cogen(A2)) == 2
    c22 = AdmissibleSequence("cyclic", (2, 2))
    lam = ModuleSum.of([projective(c22, 1), projective(c22, 2)])
    assert mueller_domdim(c22, lam) == INF
    assert mueller_domdim(SHARP, basic_gen_cogen(SHARP)) == 2


def test_mueller_requires_gen_cogen():
    with pytest.raises(ValueError):
        mueller_domdim(SHARP, canonical_tilting(SHARP))
    with pytest.raises(ValueError):
        mueller_domdim(A2, ModuleSum((Uniserial(2, 2), Uniserial(2, 2))))


def _all_gen_cogens(alg, cap=64):
    base = gen_cogen(alg)
    rest = sorted(set(
        Uniserial(i, l) for i in range(1, alg.n + 1)
        for l in range(1, alg.c[i - 1] + 1)) - set(base.summands))
    out = []
    for mask in range(1 << len(rest)):
        extra = [rest[k] for k in range(len(rest)) if mask >> k & 1]
        out.append(base.union(ModuleSum.of(extra)))
        if len(out) >= cap:
            break
    return out


def test_mueller_hereditary_always_two():
    # non-semisimple hereditary: every generator-cogenerator yields 2
    for n in (2, 3, 4):
        alg = AdmissibleSequence("linear", tuple(range(1, n + 1)))
        for x in _all_gen_cogens(alg):
            assert mueller_domdim(alg, x) == 2


def test_mueller_at_least_two_and_antitone():
    rng = random.Random(7)
    for alg in (SHARP, TWO_AUS, AdmissibleSequence("cyclic", (3, 3, 3))):
        xs = _all_gen_cogens(alg, cap=16)
        for x in xs:
            assert mueller_domdim(alg, x) >= 2
        for _ in range(10):
            x, y = rng.sample(xs, 2)
            big = ModuleSum.of(sorted(set(x.summands) | set(y.summands)))
            assert mueller_domdim(alg, x) >= mueller_domdim(alg, big)


def test_mueller_bounded_by_injective_dim():
    # non-selfinjective with finite left injective dimension m:
    # every generator-cogenerator stays within m + 1
    for alg in (A2, LIN5, TWO_AUS, SHARP):
        m = max(idim(alg, projective(alg, i)) for i in range(1, alg.n + 1))
        assert m != INF
        for x in _all_gen_cogens(alg, cap=8):
            assert mueller_domdim(alg, x) <= m + 1


def test_br_dimension_identity():
    # End over B_C of the projective-injective column sum has the same
    # dimension as End(Q-tilde) over the base algebra
    for alg in (SHARP, LIN5, TWO_AUS):
        b = end_algebra(alg, canonical_tilting(alg))
        q = projective_injectives(alg)
        r = hom_module(b, q)
        want = sum(hom_dim(alg, u, v) for u in q for v in q)
        assert module_endomorphisms(b, r) == want
    q = projective_injectives(SHARP)
    assert sum(hom_dim(SHARP, u, v) for u in q for v in q) == 7


def test_projdim_key_frozen():
    # S_4 is a summand of the canonical tilting module: pd 1 upstairs, 0 over B_C
    assert pdim(SHARP, Uniserial(4, 1)) == 1
    assert projdim_key_check(SHARP, Uniserial(4, 1)) is True
    assert pdim(SHARP, Uniserial(1, 2)) == 2
    assert projdim_key_check(SHARP, Uniserial(1, 2)) is True
    b = end_algebra(SHARP, canonical_tilting(SHARP))
    assert pd_over(b, hom_module(b, Uniserial(1, 2))) == 1


def test_projdim_key_across_grid():
    from itertools import product
    checked = 0
    for kind, n, cmax in [("cyclic", 3, 6), ("cyclic", 4, 4), ("linear", 4, 4)]:
        for c in product(range(1, cmax + 1), repeat=n):
            try:
                alg = AdmissibleSequence(kind, c)
            except ValueError:
                continue
            if not tilting_criterion(alg) or gldim(alg) == INF:
                continue
            for i in range(1, n + 1):
                if not is_injective(alg, projective(alg, i)):
                    continue
                for l in range(1, alg.c[i - 1] + 1):
                    m = Uniserial(i, l)
                    p = pdim(alg, m)
                    if p == INF or p < 1:
                        continue
                    assert projdim_key_check(alg, m) is True
                    checked += 1
    assert checked >= 50


def test_projdim_key_preconditions():
    with pytest.raises(ValueError):
        projdim_key_check(SHARP, Uniserial(4, 4))   # projective: pd 0
    with pytest.raises(ValueError):
        projdim_key_check(SHARP, Uniserial(2, 1))   # cover not injective
    with pytest.raises(ValueError):
        projdim_key_check(AdmissibleSequence("cyclic", (2, 3, 3)), Uniserial(1, 1))


def test_envelope_quotient_dimension_bookkeeping():
    # dim Hom(X, I0(Xj)/Xj) = dim Hom(X, I0(Xj)) - dim Hom(X, Xj) + ext^1(X, Xj)
    # for every non-injective summand; the correction term drops exactly when
    # X is rigid, which makes the plain envelope-quotient description of the
    # canonical tilting summands valid at dimension level.
    cases = [(A2, gen_cogen(A2)), (SHARP, basic_gen_cogen(SHARP)),
             (SHARP, canonical_tilting(SHARP)), (LIN5, canonical_tilting(LIN5)),
             (TWO_AUS, canonical_tilting(TWO_AUS))]
    for alg, x in cases:
        for xj in x:
            if is_injective(alg, xj):
                continue
            env = injective(alg, socle_vertex(alg, xj))
            quot = cosyzygy(alg, xj)
            assert quot is not None
            d_env = sum(hom_dim(alg, a, env) for a in x)
            d_xj = sum(hom_dim(alg, a, xj) for a in x)
            d_q = sum(hom_dim(alg, a, quot) for a in x)
            e1 = sum(ext_dim(alg, a, xj, 1) for a in x)
            assert d_q == d_env - d_xj + e1
            if e1 == 0:
                assert d_q == d_env - d_xj


def test_envelope_quotient_literal_form_can_overshoot():
    # over linear [1,2] with X = Lambda + D(Lambda) the quotient description
    # overshoots the true cosyzygy dimension by ext^1(X, S_1) = 1
    x = gen_cogen(A2)
    s1 = Uniserial(1, 1)
    env = injective(A2, 1)
    d_env = sum(hom_dim(A2, a, env) for a in x)
    d_s1 = sum(hom_dim(A2, a, s1) for a in x)
    d_q = sum(hom_dim(A2, a, cosyzygy(A2, s1)) for a in x)
    assert (d_env, d_s1, d_q) == (2, 1, 2)
    assert sum(ext_dim(A2, a, s1, 1) for a in x) == 1
    assert d_q == d_env - d_s1 + 1


def test_tilting_rigidity_gives_literal_summand_dims():
    # for X = T_C the non-projective-injective summands of the canonical
    # tilting module over End(T_C) have dims Hom(T_C, I0(Xj)) - Hom(T_C, Xj)
    t = canonical_tilting(SHARP)
    got = {}
    for xj in t:
        if is_injective(SHARP, xj):
            continue
        env = injective(SHARP, socle_vertex(SHARP, xj))
        got[xj] = (sum(hom_dim(SHARP, a, env) for a in t)
                   - sum(hom_dim(SHARP, a, xj) for a in t))
        assert got[xj] == sum(hom_dim(SHARP, a, cosyzygy(SHARP, xj)) for a in t)
    assert got == {Uniserial(4, 1): 2, Uniserial(4, 2): 1}


def test_structure_constants_json_shape():
    a = end_algebra(A2, gen_cogen(A2))
    d = a.json_dict()
    assert set(d) == {"dim", "idempotents", "basis", "table"}
    assert d["dim"] == 5
    assert len(d["idempotents"]) == 3
    assert all(len(row) == 3 and isinstance(row[2], int) for row in d["basis"])
    for i, j, tgt, coef in d["table"]:
        assert coef == 1
        assert a.table[i][j] == tgt
    nonzero = sum(1 for row in a.table for v in row if v is not None)
    assert len(d["table"]) == nonzero


def test_module_endomorphisms_of_tilting_columns():
    # End over B_C of the full column module Hom(T_C, T_C) is B_C itself
    b = end_algebra(SHARP, canonical_tilting(SHARP))
    assert module_endomorphisms(b, regular_module(b)) == b.dim
