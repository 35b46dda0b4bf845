"""Canonical tilting/cotilting modules, classification, drop conditions, IT."""

import itertools
import json
import random

import pytest

from nakayama.checks import grid_algebras
from nakayama.core import (
    INF,
    AdmissibleSequence,
    ModuleSum,
    format_module_sum,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    make_module,
    parse_module_sum,
    projective,
    validate,
)
from nakayama.homology import domdim, ext_dim, gldim, idim, pdim, pdim_table
from nakayama.tilting import (
    ClassificationReport,
    K0Vector,
    basic_gen_cogen,
    canonical_cotilting,
    canonical_tilting,
    classify,
    gldim_drop_conditions,
    igusa_todorov,
    in_tilting_subcat,
    k0_rank,
    pd_tau_tilting,
    projective_injectives,
    split_projective_vertices,
    syzygy_correspondence,
    tilting_criterion,
    verify_cotilting,
    verify_tilting,
)

SHARP = validate("cyclic", [3, 2, 3, 4, 3])
RAD2 = validate("linear", [1, 2, 2, 2, 2])
ONE_AG = validate("cyclic", [3, 2, 2, 3, 3])
TWO_AUS = validate("cyclic", [2, 2, 3])


def _all_algebras(kind, n, cmax):
    lo = 2 if kind == "cyclic" else 1
    for c in itertools.product(range(lo, cmax + 1), repeat=n):
        try:
            yield validate(kind, list(c))
        except ValueError:
            continue


GRID = list(_all_algebras("cyclic", 2, 5)) + list(_all_algebras("cyclic", 3, 5)) \
    + list(_all_algebras("cyclic", 4, 4)) + list(_all_algebras("linear", 3, 3)) \
    + list(_all_algebras("linear", 4, 4)) + [validate("linear", [1]), validate("cyclic", [3])]


def test_vertex_split_frozen():
    q, p = split_projective_vertices(SHARP)
    assert (sorted(q), sorted(p)) == ([1, 4, 5], [2, 3])
    q, p = split_projective_vertices(validate("cyclic", [2, 2, 2]))
    assert sorted(q) == [1, 2, 3] and not p
    q, p = split_projective_vertices(RAD2)
    assert (sorted(q), sorted(p)) == ([2, 3, 4, 5], [1])
    # the boundary vertex of a linear algebra always carries an injective
    for n in (1, 2, 4):
        q, _ = split_projective_vertices(validate("linear", [1] + [2] * (n - 1)))
        assert n in q


def test_membership_frozen():
    assert in_tilting_subcat(SHARP, make_module(SHARP, 4, 2))
    # S_1 is in: cover P_1 and envelope M(4,4) = P_4 are both proj-injective
    assert in_tilting_subcat(SHARP, make_module(SHARP, 1, 1))
    assert not in_tilting_subcat(SHARP, make_module(SHARP, 2, 1))
    assert not in_tilting_subcat(SHARP, make_module(SHARP, 3, 1))
    assert in_tilting_subcat(TWO_AUS, make_module(TWO_AUS, 1, 2))
    for u in projective_injectives(SHARP):
        assert in_tilting_subcat(SHARP, u)
    assert in_tilting_subcat(SHARP, None)


def test_syzygy_correspondence_frozen():
    x, omega, bij = syzygy_correspondence(SHARP)
    assert set(x) == {make_module(SHARP, 4, 2), make_module(SHARP, 4, 1)}
    assert set(omega.values()) == {projective(SHARP, 2), projective(SHARP, 3)}
    assert bij
    x, omega, bij = syzygy_correspondence(validate("cyclic", [2, 2]))
    assert x == [] and bij  # vacuous: no non-injective projectives
    assert not syzygy_correspondence(validate("cyclic", [2, 3, 3]))[2]


def test_syzygy_correspondence_matches_pd_table_definition():
    # X = {u : pd u = 1, u in the subcategory}, read off the full pd table
    for alg in grid_algebras(6, 9):
        pt = pdim_table(alg)
        want = [u for u in indecomposables(alg)
                if pt[u] == 1 and in_tilting_subcat(alg, u)]
        assert syzygy_correspondence(alg)[0] == want, alg


def test_criterion_frozen():
    assert tilting_criterion(SHARP)
    assert tilting_criterion(RAD2)
    assert not tilting_criterion(validate("cyclic", [2, 3, 3]))
    assert tilting_criterion(validate("cyclic", [3, 4, 4]))


def test_canonical_tilting_frozen():
    assert canonical_tilting(SHARP) == parse_module_sum(
        SHARP, "M(1,3) + M(4,1) + M(4,2) + M(4,4) + M(5,3)")
    assert canonical_tilting(validate("cyclic", [2, 3, 3])) is None
    sel = validate("cyclic", [2, 2, 2])
    assert canonical_tilting(sel) == ModuleSum.of(
        projective(sel, i) for i in (1, 2, 3))
    assert canonical_tilting(TWO_AUS) == parse_module_sum(
        TWO_AUS, "M(1,2) + M(3,1) + M(3,3)")
    assert canonical_tilting(RAD2) == parse_module_sum(
        RAD2, "M(2,1) + M(2,2) + M(3,2) + M(4,2) + M(5,2)")


def test_canonical_cotilting_frozen():
    assert canonical_cotilting(SHARP) == parse_module_sum(
        SHARP, "M(1,1) + M(1,3) + M(4,1) + M(4,4) + M(5,3)")
    assert canonical_cotilting(SHARP) != canonical_tilting(SHARP)
    assert canonical_tilting(ONE_AG) == canonical_cotilting(ONE_AG) == \
        parse_module_sum(ONE_AG, "M(1,3) + M(2,2) + M(4,1) + M(4,3) + M(5,3)")


def test_verify_tilting_frozen():
    assert verify_tilting(SHARP, canonical_tilting(SHARP))
    regular = ModuleSum.of(projective(SHARP, i) for i in range(1, 6))
    assert verify_tilting(SHARP, regular)
    assert not verify_cotilting(SHARP, canonical_tilting(SHARP))
    assert verify_cotilting(SHARP, canonical_cotilting(SHARP))
    assert idim(SHARP, make_module(SHARP, 4, 2)) > 1  # why T_C fails as cotilting
    with pytest.raises(ValueError):
        verify_tilting(SHARP, ModuleSum.of([make_module(SHARP, 1, 1)] * 2))
    # dropping a summand breaks the count condition
    short = ModuleSum.of(list(canonical_tilting(SHARP))[:-1])
    assert not verify_tilting(SHARP, short)


def test_main_equivalences_on_grid():
    # criterion <=> domdim >= 2 <=> the syzygy map is a bijection
    # <=> the canonical construction verifies as tilting
    for alg in GRID:
        crit = tilting_criterion(alg)
        assert crit == (domdim(alg) >= 2)
        assert crit == syzygy_correspondence(alg)[2]
        t = canonical_tilting(alg)
        assert (t is None) == (not crit)
        if crit:
            assert verify_tilting(alg, t)
            assert in_tilting_subcat(alg, t)
            c = canonical_cotilting(alg)
            assert verify_cotilting(alg, c)
            assert in_tilting_subcat(alg, c)


def test_tilting_is_proj_injectives_plus_x_set():
    for alg in GRID:
        if not tilting_criterion(alg):
            continue
        x, _, _ = syzygy_correspondence(alg)
        want = sorted(list(projective_injectives(alg)) + list(x))
        assert list(canonical_tilting(alg)) == want


def test_nonprojective_summands_covered_by_proj_injectives():
    for alg in GRID:
        t = canonical_tilting(alg)
        if t is None:
            continue
        for u in t:
            if not is_projective(alg, u):
                assert is_injective(alg, projective(alg, u.top))


def test_subcategory_size_bound():
    for alg in GRID:
        q, _ = split_projective_vertices(alg)
        x, _, _ = syzygy_correspondence(alg)
        assert len(q) + len(x) <= alg.n


def test_classification_frozen():
    rep = classify(SHARP)
    assert rep.gldim == 4 and rep.domdim == 2 and rep.gdim == 4
    assert rep.tilting_exists and not rep.tilting_cotilting
    assert not rep.selfinjective and not rep.auslander
    assert rep.m_auslander is None

    rep = classify(ONE_AG)
    assert rep.one_aus_gorenstein and not rep.auslander
    assert rep.gldim == INF and rep.id_left == 2 == rep.domdim
    assert rep.dtr_selfinjective and rep.tilting_cotilting
    assert rep.t_c == rep.c_c

    rep = classify(TWO_AUS)
    assert rep.m_auslander == 2 and rep.gldim == 3 == rep.domdim

    rep = classify(validate("cyclic", [2, 2]))
    assert rep.selfinjective and rep.domdim == INF and rep.one_aus_gorenstein
    assert rep.m_auslander is None  # gldim infinite kills every m

    rep = classify(validate("linear", [1]))
    assert rep.selfinjective and rep.m_auslander == INF and rep.gdim == 0

    rep = classify(RAD2)
    assert rep.gldim == 4 == rep.domdim and rep.m_auslander == 3
    assert rep.auslander is False


def test_classification_invariants_on_grid():
    for alg in GRID:
        rep = classify(alg)
        assert rep.tilting_exists == (domdim(alg) >= 2)
        assert rep.tilting_cotilting == rep.one_aus_gorenstein
        if rep.auslander:
            assert rep.one_aus_gorenstein
        if rep.one_aus_gorenstein and rep.gldim != INF:
            assert rep.auslander
        if rep.selfinjective:
            assert rep.one_aus_gorenstein and rep.domdim == INF
        # tilting-cotilting means the two canonical modules coincide
        if rep.tilting_cotilting:
            assert rep.t_c == rep.c_c
        elif rep.tilting_exists:
            assert rep.t_c != rep.c_c or not verify_cotilting(alg, rep.t_c)


def test_report_json_shape():
    blob = classify(SHARP).json_dict()
    assert list(blob) == [
        "kind", "c", "gldim", "domdim", "id_left", "id_right", "gdim",
        "selfinjective", "auslander", "m_auslander", "one_aus_gorenstein",
        "dtr_selfinjective", "tilting_exists", "t_c", "c_c", "tilting_cotilting",
    ]
    assert blob["c"] == [3, 2, 3, 4, 3]
    assert blob["t_c"] == ["M(1,3)", "M(4,1)", "M(4,2)", "M(4,4)", "M(5,3)"]
    assert json.loads(json.dumps(blob)) == blob
    blob = classify(validate("cyclic", [2, 3, 3])).json_dict()
    assert blob["t_c"] is None and blob["tilting_exists"] is False
    assert blob["gldim"] == "inf"
    assert blob["gdim"] is None  # not Gorenstein
    blob = classify(validate("linear", [1])).json_dict()
    assert blob["m_auslander"] == "inf" and blob["domdim"] == "inf"


def test_pd_tau_tilting_frozen():
    assert pd_tau_tilting(SHARP) == 4
    assert pd_tau_tilting(RAD2) == 0
    assert pd_tau_tilting(validate("cyclic", [2, 2, 2])) == 0
    with pytest.raises(ValueError):
        pd_tau_tilting(validate("cyclic", [2, 3, 3]))


def test_drop_conditions_frozen():
    assert gldim_drop_conditions(RAD2) == {
        "pd": True, "ext": True, "cover": True, "nu": True}
    assert gldim_drop_conditions(SHARP) == {
        "pd": False, "ext": False, "cover": False, "nu": False}
    assert all(gldim_drop_conditions(validate("linear", [1])).values())
    with pytest.raises(ValueError):
        gldim_drop_conditions(ONE_AG)  # infinite global dimension
    with pytest.raises(ValueError):
        gldim_drop_conditions(validate("cyclic", [2, 3, 3]))


def test_drop_conditions_agree_on_grid():
    for alg in GRID:
        if gldim(alg) == INF or not tilting_criterion(alg):
            continue
        flags = set(gldim_drop_conditions(alg).values())
        assert len(flags) == 1


def test_igusa_todorov_frozen():
    m = ModuleSum.of([make_module(SHARP, 2, 1), make_module(SHARP, 3, 1)])
    assert igusa_todorov(SHARP, m) == (4, 4)
    two = validate("cyclic", [2, 2])
    m = ModuleSum.of([make_module(two, 1, 1), make_module(two, 2, 1)])
    assert igusa_todorov(two, m) == (0, 0)
    assert igusa_todorov(SHARP, projective(SHARP, 1)) == (0, 0)


def test_igusa_todorov_equals_pd_when_finite():
    rng = random.Random(7)
    finite = [alg for alg in GRID if gldim(alg) != INF]
    for _ in range(300):
        alg = rng.choice(finite)
        mods = indecomposables(alg)
        m = ModuleSum.of(rng.sample(mods, k=min(len(mods), rng.randint(1, 4))))
        d = max(pdim(alg, u) for u in m)
        assert igusa_todorov(alg, m) == (d, d)


def test_igusa_todorov_plateau_then_drop():
    # classes can keep their count for a step and still merge later, so the
    # first adjacent equality is not a valid stopping rule; mixing modules
    # whose resolutions die at different depths exercises this
    rng = random.Random(19)
    for _ in range(200):
        alg = rng.choice(GRID)
        mods = indecomposables(alg)
        m = ModuleSum.of(rng.sample(mods, k=min(len(mods), 3)))
        phi, psi = igusa_todorov(alg, m)
        assert 0 <= phi <= psi
        if all(pdim(alg, u) != INF for u in m):
            assert psi == max(pdim(alg, u) for u in m)


def test_k0_vectors():
    u, v = make_module(SHARP, 2, 1), make_module(SHARP, 4, 2)
    a = K0Vector.of_module(SHARP, u)
    b = K0Vector.of_module(SHARP, ModuleSum.of([u, v, v]))
    assert (a + a).coefficients == {u: 2}
    assert b.coefficients == {u: 1, v: 2}
    assert K0Vector.of_module(SHARP, projective(SHARP, 1)).is_zero()
    assert k0_rank([a, b, a + b]) == 2
    assert k0_rank([]) == 0


def test_gen_cogen_contains_all_proj_inj():
    for alg in GRID[:40]:
        g = basic_gen_cogen(alg)
        assert g.is_basic()
        for i in range(1, alg.n + 1):
            assert projective(alg, i) in g.summands
            assert injective(alg, i) in g.summands
