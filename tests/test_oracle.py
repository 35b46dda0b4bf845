"""Matrix-representation cross-checks for the counting formulas.

The oracle builds explicit quiver representations and computes Hom as an
intertwiner kernel and Ext^1 as a dimension count along the Hom exact
sequence of an explicit projective presentation, so a bug in the closed-form
counts in homology.py cannot hide here.  `_reference_ext1` keeps the
cokernel route, Hom(P_0, N) restricted to the kernel, as a reference for
that count.
"""

import random

from nakayama.checks import grid_algebras
from nakayama.core import indecomposables, is_projective, projective, validate
from nakayama.homology import ext_dim, hom_dim, syzygy
from nakayama.linalg import intertwiner_system, kernel_basis, rank
from nakayama.oracle import (
    MatrixRep,
    oracle_ext1_dim,
    oracle_hom_dim,
    _presentation,
    _quiver,
    _rep,
    _slots,
)

EXHAUSTIVE = [
    validate("cyclic", [3, 2, 3, 4, 3]),
    validate("linear", [1, 2, 2, 2, 2]),
    validate("cyclic", [2, 2]),
    validate("cyclic", [2, 2, 3]),
    validate("cyclic", [3, 4, 4]),
    validate("cyclic", [7, 7, 7]),
    validate("linear", [1, 2, 3, 4]),
    validate("linear", [1]),
    validate("cyclic", [4]),
]


def _system(m_rep, n_rep):
    """The intertwiner system of Hom(M, N) for two representations on one quiver."""
    return intertwiner_system(m_rep.dims, n_rep.dims, [
        (v - 1, w - 1, m_rep.mats[v], n_rep.mats[v]) for v, w in m_rep.quiver.arrows])


def _mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _inclusion(alg, u):
    """Per vertex v, the 0/1 matrix of K_v in P_0,v for the cover
    P_0 = P_top ->> u: K is spanned by P_0's slots j >= len(u)."""
    out = {}
    for v, slots in enumerate(_slots(alg, projective(alg, u.top)), 1):
        kept = [a for a, j in enumerate(slots) if j >= u.length]
        out[v] = [[int(a == b) for b in kept] for a in range(len(slots))]
    return out


def _reference_ext1(alg, u, v):
    """dim Ext^1(u, v) as coker(Hom(P_0, N) -> Hom(K, N)) for the explicit
    presentation 0 -> K -> P_0 -> u -> 0."""
    if u is None or v is None:
        return 0
    q = _quiver(alg)
    k_rep = _presentation(q, alg, u, alg.c[u.top - 1])
    n_rep = _rep(q, alg, v)
    rows, total = _system(k_rep, n_rep)
    hom_kn = total - rank(rows) if total else 0
    if hom_kn == 0:
        return 0
    rows, total = _system(_rep(q, alg, projective(alg, u.top)), n_rep)
    basis = kernel_basis(rows, total) if total else []
    incl = _inclusion(alg, u)
    res_rows = []
    for f in basis:
        # unpack f into per-vertex blocks and restrict along the inclusion
        row = []
        off = 0
        for w in range(1, alg.n + 1):
            nv = n_rep.dims[w - 1]
            pv = len(incl[w])
            block = [f[off + r * pv: off + (r + 1) * pv] for r in range(nv)]
            off += nv * pv
            kd = k_rep.dims[w - 1]
            restricted = _mat_mul(block, incl[w]) if nv and kd else [[0] * kd for _ in range(nv)]
            for r in range(nv):
                row.extend(restricted[r])
        res_rows.append(row)
    image_rank = rank(res_rows) if res_rows else 0
    e = hom_kn - image_rank
    assert e >= 0
    return e


def test_rep_dimensions():
    alg = validate("cyclic", [3, 2, 3, 4, 3])
    rep = MatrixRep.of_uniserial(_quiver(alg), alg, projective(alg, 4))  # M(4,4)
    assert sum(rep.dims) == 4
    assert rep.dims == [1, 1, 1, 1, 0]
    big = validate("cyclic", [7, 7, 7])
    rep = MatrixRep.of_uniserial(_quiver(big), big, projective(big, 1))
    assert rep.dims == [3, 2, 2]  # length 7 wraps the cycle twice


def test_hom_matches_oracle_exhaustively():
    for alg in EXHAUSTIVE:
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                assert hom_dim(alg, u, v) == oracle_hom_dim(alg, u, v), (alg, u, v)


def test_ext1_matches_oracle_exhaustively():
    for alg in EXHAUSTIVE:
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                assert ext_dim(alg, u, v, 1) == oracle_ext1_dim(alg, u, v), (alg, u, v)


def test_agreement_on_random_larger_algebras():
    rng = random.Random(2024)
    checked = 0
    while checked < 8:
        n = rng.randint(2, 7)
        c = [rng.randint(2, 9)]
        for _ in range(n - 1):
            c.append(rng.randint(2, min(9, c[-1] + 1)))
        if c[0] > c[-1] + 1:
            continue  # wrap constraint
        alg = validate("cyclic", c)
        mods = indecomposables(alg)
        for _ in range(40):
            u, v = rng.choice(mods), rng.choice(mods)
            assert hom_dim(alg, u, v) == oracle_hom_dim(alg, u, v)
            assert ext_dim(alg, u, v, 1) == oracle_ext1_dim(alg, u, v)
        checked += 1


def test_presentation_kernel_is_the_syzygy():
    # the explicitly computed kernel must have the vertex dimensions of the
    # uniserial the index formula names
    for alg in EXHAUSTIVE:
        q = _quiver(alg)
        for u in indecomposables(alg):
            if is_projective(alg, u):
                continue
            k_rep = _presentation(q, alg, u, alg.c[u.top - 1])
            w = syzygy(alg, u)
            want = MatrixRep.of_uniserial(q, alg, w)
            assert k_rep.dims == want.dims, (alg, u)


def test_presentation_kernel_is_the_syzygys_object():
    # the kernel is found equal to a uniserial by comparing matrices, and the
    # oracle then hands back that uniserial's own representation
    for alg in EXHAUSTIVE:
        q = _quiver(alg)
        for u in indecomposables(alg):
            if not is_projective(alg, u):
                k_rep = _presentation(q, alg, u, alg.c[u.top - 1])
                assert k_rep is _rep(q, alg, syzygy(alg, u)), (alg, u)


def test_ext1_count_matches_the_cokernel_route():
    for alg in EXHAUSTIVE + grid_algebras(3, 5):
        mods = indecomposables(alg)
        for u in mods:
            for v in mods:
                assert _reference_ext1(alg, u, v) == oracle_ext1_dim(alg, u, v), (alg, u, v)


def test_oracle_none_inputs():
    alg = validate("cyclic", [2, 2])
    assert oracle_hom_dim(alg, None, projective(alg, 1)) == 0
    assert oracle_ext1_dim(alg, projective(alg, 1), None) == 0


def test_oracle_imports_only_core_and_linalg():
    # the oracle must share no formula with homology: inside the package it
    # may import only the module data types and the elimination routines
    import ast
    import nakayama.oracle
    with open(nakayama.oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                inside.add(node.module or "")
            elif (node.module or "").split(".")[0] == "nakayama":
                inside.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            inside |= {a.name.partition(".")[2] for a in node.names
                       if a.name.split(".")[0] == "nakayama"}
    assert inside == {"core", "linalg"}
