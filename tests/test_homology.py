"""Hom/Ext formulas, syzygies, dimension walks, dominant dimension."""

import hashlib
import json
import random

import pytest

from nakayama.checks import grid_algebras
from nakayama.core import (
    INF,
    ModuleSum,
    dim_json,
    format_algebra,
    format_module,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    make_module,
    opposite,
    projective,
    socle_vertex,
    validate,
)
from nakayama.homology import (
    HomMap,
    _first_syzygy,
    compose,
    cosyzygy,
    domdim,
    domdim_module,
    ext_dim,
    gldim,
    gorenstein_dim,
    hom_basis,
    hom_dim,
    identity_hom,
    idim,
    idim_table,
    pdim,
    pdim_table,
    simples,
    syzygy,
)

SHARP = validate("cyclic", [3, 2, 3, 4, 3])
RAD2 = validate("linear", [1, 2, 2, 2, 2])

GRID = [
    SHARP,
    RAD2,
    validate("cyclic", [2, 2]),
    validate("cyclic", [2, 2, 3]),
    validate("cyclic", [3, 2, 2, 3, 3]),
    validate("cyclic", [3, 4, 4]),
    validate("cyclic", [7, 7, 7]),
    validate("linear", [1, 2, 3, 4]),
    validate("linear", [1]),
    validate("cyclic", [4]),
]


def test_hom_dim_frozen():
    assert hom_dim(SHARP, projective(SHARP, 4), projective(SHARP, 1)) == 1
    assert hom_dim(SHARP, make_module(SHARP, 4, 4), make_module(SHARP, 4, 4)) == 1
    # selfinjective with lengths past n: multiplicity above 1 shows up
    big = validate("cyclic", [7, 7, 7])
    assert hom_dim(big, make_module(big, 1, 7), make_module(big, 1, 7)) == 3
    assert hom_dim(SHARP, None, projective(SHARP, 1)) == 0


def test_hom_basis_structure():
    for alg in GRID:
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                basis = hom_basis(alg, u, v)
                assert len(basis) == hom_dim(alg, u, v)
                ks = [f.k for f in basis]
                assert ks == sorted(ks) and len(set(ks)) == len(ks)
                for f in basis:
                    assert 1 <= f.k <= min(u.length, v.length)


def _composite(alg, f, g):
    """compose(alg, f, g), checked to be zero or a canonical basis map."""
    h = compose(alg, f, g)
    assert h is None or h in hom_basis(alg, f.source, g.target), (alg, f, g)
    return h


def test_identity_and_composition_laws():
    rng = random.Random(5)
    for alg in GRID:
        mods = indecomposables(alg)
        for u in mods:
            e = identity_hom(alg, u)
            assert e.k == u.length
            for f in hom_basis(alg, u, rng.choice(mods)):
                assert _composite(alg, e, f) == f
                for g in hom_basis(alg, f.target, rng.choice(mods)):
                    _composite(alg, f, g)
            for f in hom_basis(alg, rng.choice(mods), u):
                assert _composite(alg, f, e) == f


def test_composition_associative():
    rng = random.Random(11)
    for alg in GRID:
        mods = indecomposables(alg)
        for _ in range(200):
            u, v, w, x = (rng.choice(mods) for _ in range(4))
            fs, gs, hs = hom_basis(alg, u, v), hom_basis(alg, v, w), hom_basis(alg, w, x)
            if not (fs and gs and hs):
                continue
            f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
            fg, gh = _composite(alg, f, g), _composite(alg, g, h)
            left = _composite(alg, fg, h) if fg else None
            right = _composite(alg, f, gh) if gh else None
            assert left == right


def test_compose_can_vanish():
    alg = validate("cyclic", [2, 2])
    f = hom_basis(alg, make_module(alg, 1, 2), make_module(alg, 2, 2))[0]
    g = hom_basis(alg, make_module(alg, 2, 2), make_module(alg, 1, 2))[0]
    assert f.k == g.k == 1
    assert compose(alg, f, g) is None  # image lands in the kernel


def test_syzygy_values_and_dimension_count():
    assert syzygy(SHARP, make_module(SHARP, 2, 1)) == make_module(SHARP, 1, 1)
    assert syzygy(SHARP, make_module(SHARP, 1, 1)) == make_module(SHARP, 5, 2)
    assert syzygy(SHARP, projective(SHARP, 2)) is None
    for alg in GRID:
        for u in indecomposables(alg):
            w = syzygy(alg, u)
            assert (w is None) == is_projective(alg, u)
            if w is not None:
                cover = projective(alg, u.top)
                assert w.length == cover.length - u.length
                assert socle_vertex(alg, w) == socle_vertex(alg, cover)


def test_cosyzygy_values_and_duality_with_syzygy():
    assert cosyzygy(SHARP, make_module(SHARP, 4, 2)) == make_module(SHARP, 5, 1)
    assert cosyzygy(SHARP, make_module(SHARP, 5, 1)) == make_module(SHARP, 1, 1)
    for alg in GRID:
        for u in indecomposables(alg):
            w = cosyzygy(alg, u)
            assert (w is None) == is_injective(alg, u)
            if w is not None:
                env = injective(alg, socle_vertex(alg, u))
                assert w.length == env.length - u.length
                assert w.top == env.top


def test_pdim_frozen_chain():
    # S_2 -> S_1 -> M(5,2) -> S_3 -> P_2 takes four steps
    assert pdim(SHARP, make_module(SHARP, 2, 1)) == 4
    assert pdim(SHARP, projective(SHARP, 3)) == 0
    assert pdim(SHARP, make_module(SHARP, 3, 1)) == 1
    assert idim(SHARP, make_module(SHARP, 4, 2)) == 3
    assert pdim(SHARP, None) == 0 and idim(SHARP, None) == 0


def test_pdim_infinite_on_syzygy_cycle():
    alg = validate("cyclic", [3, 2, 2, 3, 3])
    assert pdim(alg, make_module(alg, 1, 1)) == INF
    assert gldim(alg) == INF


def test_first_syzygy_is_inf_on_walks_that_end_or_repeat():
    seen = []

    def never(w):
        seen.append(w)
        return False

    # S_2 -> S_1 -> M(5,2) -> S_3 -> P_2 -> 0 ends before the test holds
    s2 = make_module(SHARP, 2, 1)
    assert _first_syzygy(SHARP, s2, never) == INF
    assert seen == [s2, make_module(SHARP, 1, 1), make_module(SHARP, 5, 2),
                    make_module(SHARP, 3, 1), projective(SHARP, 2)]
    assert _first_syzygy(SHARP, s2, lambda w: w.length == 2) == 2
    assert _first_syzygy(SHARP, None, lambda w: True) == INF
    # S_1 over cyclic:3,2,2,3,3 has a periodic walk; it stops at the repeat
    alg = validate("cyclic", [3, 2, 2, 3, 3])
    seen.clear()
    assert _first_syzygy(alg, make_module(alg, 1, 1), never) == INF
    assert len(set(seen)) == len(seen) > 1 and syzygy(alg, seen[-1]) in seen


def test_dimension_tables_match_single_walks():
    for alg in GRID:
        pt, it = pdim_table(alg), idim_table(alg)
        for u in indecomposables(alg):
            assert pt[u] == pdim(alg, u)
            assert it[u] == idim(alg, u)


def test_gldim_frozen():
    assert gldim(SHARP) == 4
    assert gldim(RAD2) == 4
    assert gldim(validate("cyclic", [2, 2, 3])) == 3
    assert gldim(validate("cyclic", [2, 2])) == INF  # selfinjective, not semisimple
    assert gldim(validate("linear", [1])) == 0


def test_gldim_is_max_over_simples():
    for alg in GRID:
        want = max(pdim(alg, s) for s in simples(alg))
        assert gldim(alg) == want


def test_domdim_frozen():
    # over SHARP the envelope of P_2 runs M(4,4), M(5,3), then M(1,2) which
    # is injective but not projective
    assert domdim_module(SHARP, projective(SHARP, 2)) == 2
    assert domdim(SHARP) == 2
    assert domdim(RAD2) == 4
    assert domdim(validate("cyclic", [2, 2, 3])) == 3
    assert domdim(validate("cyclic", [3, 2, 2, 3, 3])) == 2
    assert domdim(validate("cyclic", [3, 4, 4])) == 4


def test_domdim_digest_over_the_n5_grid():
    # domdim_module of every indecomposable of every algebra of the grid; the
    # digest was taken from the walk along injective envelopes, before the
    # walk moved to syzygies of the dual over the opposite
    rows = [[format_algebra(alg),
             [[format_module(u), dim_json(domdim_module(alg, u))]
              for u in indecomposables(alg)]]
            for alg in grid_algebras(5, 8)]
    assert len(rows) == 916 and sum(len(r[1]) for r in rows) == 20605
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "3f0e1100607b0dd5a0fe01ba0482efbb354dd257447af449d1edfc643e5273b0")


def test_domdim_asks_for_no_injective_envelope(monkeypatch):
    import nakayama.homology

    calls = []

    def counted(alg, j):
        calls.append((alg, j))
        return injective(alg, j)

    monkeypatch.setattr(nakayama.homology, "injective", counted)
    for alg in grid_algebras(4, 6):
        domdim(alg)
    assert calls == []


def test_domdim_infinite_iff_selfinjective():
    for alg in GRID:
        selfinj = all(is_injective(alg, projective(alg, i)) for i in range(1, alg.n + 1))
        assert (domdim(alg) == INF) == selfinj


def test_gorenstein_frozen():
    assert gorenstein_dim(SHARP) == (4, 4, 4)
    assert gorenstein_dim(validate("cyclic", [3, 2, 2, 3, 3])) == (2, 2, 2)
    assert gorenstein_dim(validate("cyclic", [2, 2])) == (0, 0, 0)
    assert gorenstein_dim(validate("linear", [1])) == (0, 0, 0)


def test_gorenstein_sides_agree_when_finite():
    for alg in GRID:
        left, right, common = gorenstein_dim(alg)
        if left != INF and right != INF:
            assert left == right == common
        else:
            assert common is None or common == left == right


def test_ext_frozen():
    s = lambda i: make_module(SHARP, i, 1)
    assert ext_dim(SHARP, s(3), s(2), 1) == 1
    lin = validate("linear", [1, 2])
    assert ext_dim(lin, make_module(lin, 2, 1), make_module(lin, 1, 1), 1) == 1
    assert ext_dim(SHARP, projective(SHARP, 1), s(2), 1) == 0
    assert ext_dim(SHARP, s(2), injective(SHARP, 2), 1) == 0
    assert ext_dim(SHARP, s(2), s(2), 0) == 1


def test_ext_vanishes_past_pdim():
    for alg in GRID:
        if gldim(alg) == INF:
            continue
        for u in indecomposables(alg):
            d = pdim(alg, u)
            for v in simples(alg):
                assert ext_dim(alg, u, v, d + 1) == 0
                assert ext_dim(alg, u, v, d + 3) == 0


def test_pdim_detected_by_ext_against_simples():
    # pd u = max k with Ext^k(u, -) nonzero on some simple
    for alg in GRID:
        if gldim(alg) == INF:
            continue
        for u in indecomposables(alg):
            top = max((k for k in range(gldim(alg) + 1)
                       for v in simples(alg) if ext_dim(alg, u, v, k) > 0),
                      default=0)
            assert top == pdim(alg, u)


def _reference_ext(alg, u, v, k):
    """dim Ext^k(u, v), k >= 1, by a walk that checks is_projective before
    each syzygy step: a reference for ext_dim, which relies on syzygy
    returning None exactly on projectives."""
    w = u
    for _ in range(k - 1):
        if is_projective(alg, w):
            return 0
        w = syzygy(alg, w)
    if is_projective(alg, w):
        return 0
    return hom_dim(alg, syzygy(alg, w), v) - hom_dim(alg, projective(alg, w.top), v) \
        + hom_dim(alg, w, v)


def test_ext_matches_the_projectivity_checking_walk():
    for alg in grid_algebras(4, 6):
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                for k in (1, 2, 3):
                    assert ext_dim(alg, u, v, k) == _reference_ext(alg, u, v, k), \
                        (alg, u, v, k)


def _ext1_by_restriction(alg, w, v):
    """dim Ext^1(w, v) from the argument behind ext_dim's count: the
    canonical maps Omega w -> v less the distinct nonzero restrictions
    along Omega w in P(top w) of the maps P(top w) -> v."""
    omega = syzygy(alg, w)
    if omega is None:
        return 0
    cover = projective(alg, w.top)
    incl = HomMap(omega, cover, omega.length)
    restricted = {compose(alg, incl, f) for f in hom_basis(alg, cover, v)} - {None}
    return len(hom_basis(alg, omega, v)) - len(restricted)


def test_ext1_matches_the_maps_that_do_not_extend_to_the_cover():
    pairs = 0
    for alg in grid_algebras(4, 6):
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                assert ext_dim(alg, u, v, 1) == _ext1_by_restriction(alg, u, v), \
                    (alg, u, v)
                pairs += 1
    assert pairs == 39155


def test_ext_rejects_a_negative_degree():
    alg = validate("cyclic", [2, 2])
    with pytest.raises(ValueError, match="got -1"):
        ext_dim(alg, make_module(alg, 1, 1), make_module(alg, 2, 1), -1)
    with pytest.raises(ValueError, match="got -2"):
        ext_dim(alg, None, None, -2)


def _dual(alg, op, u):
    soc = socle_vertex(alg, u)
    star = op.n + 1 - soc if alg.kind == "linear" else 1 - soc
    return make_module(op, star, u.length)


def test_duality_against_opposite():
    for alg in GRID:
        op = opposite(alg)
        mods = indecomposables(alg)
        for u in mods:
            du = _dual(alg, op, u)
            assert pdim(alg, u) == idim(op, du)
            assert idim(alg, u) == pdim(op, du)
        rng = random.Random(alg.n)
        for _ in range(60):
            u, v = rng.choice(mods), rng.choice(mods)
            assert hom_dim(alg, u, v) == hom_dim(op, _dual(alg, op, v), _dual(alg, op, u))
            assert ext_dim(alg, u, v, 1) == ext_dim(op, _dual(alg, op, v), _dual(alg, op, u), 1)


def _reference_idim(alg, modules):
    """{module: injective dimension} for the given modules and every module
    met on their walks along cosyzygies through injective envelopes.

    Independent of dual and opposite, so it checks the duality route that
    idim, idim_table and gorenstein_dim take.
    """
    memo = {}
    for w in modules:
        path = {}
        while w not in memo and w not in path:
            if is_injective(alg, w):
                memo[w] = 0
            else:
                path[w] = None
                w = cosyzygy(alg, w)
        base = memo.get(w, INF)
        for j, wj in enumerate(path):
            memo[wj] = base + (len(path) - j)
    return memo


def _projectives(alg):
    return [projective(alg, i) for i in range(1, alg.n + 1)]


def test_injective_dimensions_match_the_cosyzygy_walk():
    for alg in grid_algebras(6, 9):
        mods = indecomposables(alg)
        ref = _reference_idim(alg, mods)
        assert idim_table(alg) == ref, alg
        for u in mods:
            assert idim(alg, u) == ref[u], (alg, u)
        id_left = max(ref[p] for p in _projectives(alg))
        assert idim(alg, ModuleSum.of(_projectives(alg))) == id_left, alg
        op = opposite(alg)
        op_ref = _reference_idim(op, _projectives(op))
        id_right = max(op_ref[p] for p in _projectives(op))
        common = id_left if INF not in (id_left, id_right) else None
        assert gorenstein_dim(alg) == (id_left, id_right, common), alg


def _table_rows(table):
    return sorted([u.top, u.length, dim_json(d)] for u, d in table.items())


def test_counting_digest_over_the_n5_grid():
    # One row per algebra: its pdim_table and idim_table as sorted
    # [top, length, dim] rows, the sum of hom_dim over all ordered pairs of
    # indecomposables, and the same sums of ext_dim for k = 1, 2, 3.  The
    # digest was taken from the Uniserial-level formulas, before the Hom
    # count and the syzygy walks moved to plain ints.
    rows = []
    for alg in grid_algebras(5, 8):
        mods = indecomposables(alg)
        hom = sum(hom_dim(alg, u, v) for u in mods for v in mods)
        ext = [sum(ext_dim(alg, u, v, k) for u in mods for v in mods)
               for k in (1, 2, 3)]
        rows.append([format_algebra(alg), _table_rows(pdim_table(alg)),
                     _table_rows(idim_table(alg)), hom, ext])
    assert len(rows) == 916
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "f34b6af81598de2a578bc089f48ee333e9aad941b9d42ae705ebe9a094dd6c81")


def test_hom_dim_counts_the_hom_basis():
    for alg in grid_algebras(4, 6):
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                assert hom_dim(alg, u, v) == len(hom_basis(alg, u, v)), (alg, u, v)


def _brute_hom_count(alg, u, v):
    """Image lengths 1 <= k <= min(len u, len v) with
    k = top u - top v + len v, mod n for a cyclic algebra, exactly for a
    linear one, counted one k at a time."""
    want = u.top - v.top + v.length
    ks = range(1, min(u.length, v.length) + 1)
    if alg.kind == "cyclic":
        return sum((k - want) % alg.n == 0 for k in ks)
    return sum(k == want for k in ks)


def test_hom_dim_closed_form_matches_a_direct_count_on_large_c():
    # the grid, and its cyclic algebras lifted by n*t, where lengths pass
    # n several times and the wrap of the first image length matters
    grid = grid_algebras(4, 6)
    algs = grid + [validate("cyclic", [x + alg.n * t for x in alg.c])
                   for alg in grid if alg.kind == "cyclic" for t in (1, 2, 3)]
    # hom_dim reads only the quiver (kind, n), and on each quiver one of the
    # algebras has every module of the others, so its pairs cover them all
    widest = {}
    for alg in algs:
        w = widest.get((alg.kind, alg.n))
        if w is None or sum(alg.c) > sum(w.c):
            widest[alg.kind, alg.n] = alg
    mods = {key: set(indecomposables(alg)) for key, alg in widest.items()}
    assert all(set(indecomposables(alg)) <= mods[alg.kind, alg.n] for alg in algs)
    dims = set()
    for key, alg in widest.items():
        for u in mods[key]:
            for v in mods[key]:
                d = hom_dim(alg, u, v)
                assert d == _brute_hom_count(alg, u, v), (alg, u, v)
                dims.add(d)
    assert dims == set(range(10))


def test_hom_map_ordering_and_repr():
    f = HomMap(make_module(SHARP, 4, 4), make_module(SHARP, 1, 3), 1)
    assert repr(f) == "Hom[M(4,4) -> M(1,3), k=1]"
    with pytest.raises(AssertionError):
        compose(SHARP, f, HomMap(make_module(SHARP, 2, 2), make_module(SHARP, 2, 1), 1))
