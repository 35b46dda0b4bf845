"""Canonical tilting/cotilting modules, classification, drop conditions, IT."""

import hashlib
import itertools
import json
import random
import sys

import pytest

from nakayama import tilting
from nakayama.checks import grid_algebras
from nakayama.core import (
    INF,
    ModuleSum,
    dual,
    format_algebra,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    make_module,
    opposite,
    parse_module_sum,
    projective,
    socle_vertex,
    validate,
)
from nakayama.endo import mueller_domdim
from nakayama.homology import (
    domdim,
    domdim_module,
    ext_dim,
    gldim,
    idim,
    pdim,
    pdim_table,
    syzygy,
)
from nakayama.sweeps import SweepSpec, sweep
from nakayama.tilting import (
    _classify,
    basic_gen_cogen,
    canonical_cotilting,
    canonical_tilting,
    classify,
    gldim_drop_conditions,
    igusa_todorov,
    in_tilting_subcat,
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


def test_membership_matches_the_opposite_side_definition():
    # the reference reads cogeneration on the opposite: the envelope of u is
    # projective iff D u has an injective cover, that is iff the top of D u
    # is in Q of the opposite; the membership test reads i - l in H instead
    modules = members = 0
    for alg in grid_algebras(4, 6):
        q, _, member = tilting._subcat_split(alg)
        q_op, _ = split_projective_vertices(opposite(alg))
        for u in indecomposables(alg):
            want = u.top in q and dual(alg, u).top in q_op
            assert member(u) == want, (alg, u)
            modules += 1
            members += want
    assert (modules, members) == (2509, 1171)


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


def test_syzygy_correspondence_splits_each_algebra_once(monkeypatch):
    # one split of the algebra and none of its opposite per call, however
    # many candidates are tested for membership
    calls = []
    real_split = split_projective_vertices

    def split(alg):
        calls.append(alg)
        return real_split(alg)

    monkeypatch.setattr(tilting, "split_projective_vertices", split)
    # each member of X was a candidate tested on its own
    most_members = 0
    for alg in grid_algebras(5, 9):
        calls.clear()
        x = syzygy_correspondence(alg)[0]
        assert calls == [alg], (alg, len(calls))
        most_members = max(most_members, len(x))
    assert most_members >= 2


def test_classification_digest_over_the_n6_grid():
    # classify's outputs up to n = 6; the benchmark's pins stop at n = 5
    rows = [classify(alg).json_dict() for alg in grid_algebras(6, 9)]
    text = json.dumps(rows, sort_keys=True)
    assert len(rows) == 3705
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "35b85846098343a899743457a55a5c5c3c10af443e14e28695d1ed4995a2befe")


@pytest.fixture
def computed(monkeypatch):
    """The algebras classify computes itself, starting from an empty table."""
    out = []
    original = tilting._classify

    def counted(alg):
        out.append(alg)
        return original(alg)

    monkeypatch.setattr(tilting, "_reports", {})
    monkeypatch.setattr(tilting, "_classify", counted)
    return out


def test_classify_builds_the_opposite_once(monkeypatch, computed):
    import nakayama.core

    builds = []

    def counted(kind, c):
        builds.append((kind, tuple(c)))
        return validate(kind, c)

    # opposite builds its result through core.validate; classify builds no
    # other algebra, and none when it answers from the table
    monkeypatch.setattr(nakayama.core, "validate", counted)
    paths = set()
    for alg in grid_algebras(4, 6):
        want = [(alg.kind, opposite(validate(alg.kind, alg.c)).c)]
        builds.clear()
        computed.clear()
        classify(alg)
        paths.add(bool(computed))
        if not computed:
            want = []
        assert builds == want, alg
        classify(alg)
        assert builds == want, alg
    assert paths == {True, False}


def test_classify_asks_for_envelopes_only_to_build_the_opposite(monkeypatch, computed):
    import nakayama.core

    calls = []
    original = nakayama.core.injective

    def counted(alg, j):
        calls.append(j)
        return original(alg, j)

    # patch every module's binding, as `from .core import injective` makes one
    for mod in list(sys.modules.values()):
        for attr, value in list(getattr(mod, "__dict__", {}).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    paths = set()
    for alg in grid_algebras(4, 6):
        calls.clear()
        computed.clear()
        classify(alg)
        paths.add(bool(computed))
        # the opposite is read off h_i = i - c_i, with no envelope
        assert calls == [], alg
    assert paths == {True, False}


def test_classify_answers_each_rotation_from_its_class(computed):
    algs = grid_algebras(5, 8)
    random.Random(2017).shuffle(algs)
    for alg in algs:
        got = classify(alg).json_dict()
        want = _classify(validate(alg.kind, alg.c)).json_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), alg
    assert 0 < len(tilting._reports) and len(computed) < len(algs)


def test_classify_of_a_normal_form_ignores_the_table(monkeypatch):
    criteria = []
    original = tilting.tilting_criterion

    def counted(alg):
        criteria.append(alg)
        return original(alg)

    monkeypatch.setattr(tilting, "tilting_criterion", counted)
    monkeypatch.setattr(tilting, "_reports", {})
    classify(validate("cyclic", [4, 4, 3, 3]))
    assert list(tilting._reports) == [(3, 3, 4, 4)]
    criteria.clear()
    classify(validate("cyclic", [3, 3, 4, 4]))
    assert len(criteria) == 3
    monkeypatch.setattr(tilting, "_reports", {})
    rows, _ = sweep(SweepSpec("cyclic", 5, 7, up_to_rotation=True))
    assert rows and tilting._reports == {}


def _injective_by_envelope(alg, u):
    return injective(alg, socle_vertex(alg, u)) == u


def _cotilting_by_syzygies(alg):
    """The projective-injectives plus the syzygies of the other injectives."""
    if not tilting_criterion(alg):
        return None
    parts = list(projective_injectives(alg))
    for j in range(1, alg.n + 1):
        env = injective(alg, j)
        if not is_projective(alg, env):
            parts.append(syzygy(alg, env))
    return ModuleSum.of(parts)


def test_sequence_and_duality_readings_match_the_envelopes():
    # is_injective, in_tilting_subcat and canonical_cotilting read the
    # sequence, H and the opposite; the references walk injective envelopes
    modules = 0
    for alg in grid_algebras(5, 8):
        for u in indecomposables(alg):
            env = injective(alg, socle_vertex(alg, u))
            assert is_injective(alg, u) == (env == u), (alg, u)
            assert in_tilting_subcat(alg, u) == (
                _injective_by_envelope(alg, projective(alg, u.top))
                and is_projective(alg, env)), (alg, u)
            modules += 1
        assert canonical_cotilting(alg) == _cotilting_by_syzygies(alg), alg
    assert modules == 20605


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


def _small_sums(alg):
    """The canonical T and C that exist, and the first n indecomposables."""
    mods = indecomposables(alg)
    sums = [canonical_tilting(alg), canonical_cotilting(alg),
            ModuleSum.of(mods[:alg.n])]
    return [m for m in sums if m is not None]


def test_cotilting_and_domdim_digest_over_the_n4_grid():
    # taken while verify_cotilting tested idim over alg, domdim_module and
    # mueller_domdim walked syzygies each in their own loop
    rows = [(format_algebra(alg),
             str(mueller_domdim(alg, basic_gen_cogen(alg))),
             [str(domdim_module(alg, u)) for u in indecomposables(alg)],
             [verify_cotilting(alg, m) for m in _small_sums(alg)])
            for alg in grid_algebras(4, 6)]
    assert len(rows) == 182
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == \
        "3e8fac87980829f2"


def _cotilting_by_idim(alg, m):
    """The cotilting test over alg itself: id <= 1 on every summand, Ext^1
    vanishes on all ordered pairs, and the number of summands is n."""
    return (idim(alg, m) <= 1
            and all(ext_dim(alg, u, v, 1) == 0 for u in m for v in m)
            and len(m) == alg.n)


def test_cotilting_through_the_dual_matches_the_idim_test():
    seen = set()
    for alg in grid_algebras(4, 6):
        for m in _small_sums(alg):
            want = _cotilting_by_idim(alg, m)
            assert verify_cotilting(alg, m) == want, (alg, m)
            seen.add(want)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="multiplicity-free"):
        verify_cotilting(SHARP, ModuleSum.of([make_module(SHARP, 1, 1)] * 2))
    with pytest.raises(ValueError, match="expected a ModuleSum"):
        verify_cotilting(SHARP, list(canonical_cotilting(SHARP)))


def test_tilting_command_builds_t_once_over_each_side(monkeypatch, capsys):
    # T, and the opposite's T for C; pd tau T and the drop conditions read
    # the T the command holds
    from nakayama import cli
    builds, criteria = [], []
    real_build, real_criterion = canonical_tilting, tilting_criterion

    def build(alg):
        builds.append(alg)
        return real_build(alg)

    def criterion(alg):
        criteria.append(alg)
        return real_criterion(alg)

    # counted through the command's own bindings as well as the module's
    for mod in (tilting, cli):
        monkeypatch.setattr(mod, "canonical_tilting", build)
        monkeypatch.setattr(mod, "tilting_criterion", criterion, raising=False)
    assert cli.main(["tilting", "--linear", "1,2,2,2,2"]) == 0
    assert "criterion: true" in capsys.readouterr().out
    assert builds == [RAD2, opposite(RAD2)] and criteria == builds


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
    assert pd_tau_tilting(SHARP, canonical_tilting(SHARP)) == 4
    assert pd_tau_tilting(RAD2, canonical_tilting(RAD2)) == 0
    c222 = validate("cyclic", [2, 2, 2])
    assert pd_tau_tilting(c222, canonical_tilting(c222)) == 0


def test_drop_conditions_frozen():
    def conditions(alg):
        return gldim_drop_conditions(alg, canonical_tilting(alg))

    assert conditions(RAD2) == {
        "pd": True, "ext": True, "cover": True, "nu": True}
    assert conditions(SHARP) == {
        "pd": False, "ext": False, "cover": False, "nu": False}
    assert all(conditions(validate("linear", [1])).values())
    with pytest.raises(ValueError):
        conditions(ONE_AG)  # infinite global dimension


def test_drop_conditions_agree_on_grid():
    for alg in GRID:
        if gldim(alg) == INF or not tilting_criterion(alg):
            continue
        flags = set(gldim_drop_conditions(alg, canonical_tilting(alg)).values())
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


def test_igusa_todorov_digest_over_the_n4_grid():
    # (phi, psi) of every indecomposable and every pair of distinct ones;
    # the digest was taken from the two-walk version, before psi was read
    # off the walk's own states
    rows = []
    for alg in grid_algebras(4, 6):
        mods = indecomposables(alg)
        rows.append([
            format_algebra(alg),
            [igusa_todorov(alg, u) for u in mods],
            [igusa_todorov(alg, ModuleSum.of(p))
             for p in itertools.combinations(mods, 2)],
        ])
    assert sum(len(r[1]) + len(r[2]) for r in rows) == 20832
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "0f551c5cfa5a9ac1b4a109653ed2d229ebc69b2a27d1157a601c15d404f1766f")


def test_gen_cogen_contains_all_proj_inj():
    for alg in GRID[:40]:
        g = basic_gen_cogen(alg)
        assert g.is_basic()
        for i in range(1, alg.n + 1):
            assert projective(alg, i) in g.summands
            assert injective(alg, i) in g.summands
