"""The matrix oracle's tables: one per cyclic quiver n, shared by the linear
and cyclic algebras on n vertices, answers keyed by n first and by rotation
class ((top v - top u) mod n in place of both tops), so every rotation of an
algebra is answered from the tables its cold pass left; answers free of call
order, the order of the kinds included; answers unchanged by turning a
cyclic pair so that u's top is 1; each Ext^1 answer
equal to a full recount through Hom(P_0, N), which the oracle reads by
Yoneda as N's dimension at P_0's top; every kept rep-pair Hom equal to its
own elimination; one `intertwiner_dim` count per rotation class of a pair; a
quiver lookup only on an answer-table miss; no cover rebuilt once a
presentation is kept; a warm pass answered from the Hom/Ext^1 tables alone;
and the arrow-stability check on a presentation's kernel."""

import random
from collections import defaultdict

import pytest

from nakayama import oracle
from nakayama.checks import grid_algebras
from nakayama.core import Uniserial, indecomposables, validate
from nakayama.homology import ext_dim, hom_dim
from nakayama.linalg import intertwiner_system, rank
from nakayama.oracle import MatrixRep, _presentation, oracle_ext1_dim, oracle_hom_dim


def _answers(calls):
    return [(oracle_hom_dim(alg, u, v), oracle_ext1_dim(alg, u, v))
            for alg, u, v in calls]


def _empty_caches(monkeypatch):
    # fresh tables for this test; the shared ones come back afterwards
    for name in ("_quivers", "_hom_dims", "_ext1_dims"):
        monkeypatch.setattr(oracle, name, {})


def _grid_pass(algs):
    for alg in algs:
        mods = indecomposables(alg)
        _answers([(alg, u, v) for u in mods for v in mods])


def test_answers_do_not_depend_on_call_order(monkeypatch):
    a, b = validate("cyclic", [3, 4, 4]), validate("linear", [1, 2, 3, 3])
    calls = {alg: [(alg, u, v) for u in indecomposables(alg)
                   for v in indecomposables(alg)] for alg in (a, b)}
    want = {call: (hom_dim(*call), ext_dim(*call, 1))
            for alg in (a, b) for call in calls[alg]}
    orders = [
        calls[a] + calls[b],
        calls[b][::-1] + calls[a][::-1],
        [call for pair in zip(calls[a], calls[b]) for call in pair],
    ]
    for order in orders:
        _empty_caches(monkeypatch)
        assert dict(zip(order, _answers(order))) == \
            {call: want[call] for call in order}


def _counting(calls, real):
    def counted(*args):
        calls.append(args)
        return real(*args)
    return counted


@pytest.fixture(scope="module")
def grid_order_pass():
    """One pass over grid_algebras(4, 6) in grid order from empty tables:
    (the algebras, the per-quiver tables it leaves, its Hom and Ext^1 answer
    tables, the arguments of its oracle.intertwiner_dim calls)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _empty_caches(mp)
        mp.setattr(oracle, "intertwiner_dim",
                   _counting(calls, oracle.intertwiner_dim))
        algs = grid_algebras(4, 6)
        _grid_pass(algs)
        return algs, oracle._quivers, oracle._hom_dims, oracle._ext1_dims, calls


def test_tables_are_kept_per_quiver(grid_order_pass):
    algs, quivers, hom_dims, ext1_dims, *_ = grid_order_pass
    assert not [name for name, obj in vars(oracle).items()
                if hasattr(obj, "cache_info")]
    assert set(quivers) == {alg.n for alg in algs}
    for n, q in quivers.items():
        reps = set(q.contents.values())
        assert all(rep.quiver is q for rep in reps)
        assert set(q.reps.values()) <= reps
        assert set(q.presentations.values()) <= reps
        assert q.homs and all(m in reps and k in reps for m, k in q.homs)
        # keys are ints: (top, length) of a uniserial, and (top, length, c_top)
        # of a presentation, whose u = M(top, length) and cover M(top, c_top)
        # have reps of their own, kept with the same top
        assert all(type(x) is int for key in (*q.reps, *q.presentations)
                   for x in key), n
        assert all((top, length) in q.reps and (top, c_top) in q.reps
                   and length <= c_top
                   for top, length, c_top in q.presentations), n
        # a miss is computed from the pair turned so that u's top is 1, so
        # every presentation has top 1
        assert {top for top, _, _ in q.presentations} == {1}, n

        # the answers under this quiver's prefix, keyed by rotation class:
        # (len u, dt, len v) -> dim Hom and (len u, c_top, dt, len v) ->
        # dim Ext^1 with dt = (top v - top u) mod n.  Each is a pair turned
        # so that u's top is 1, and equal to a recount from the reps of that
        # pair with the pass's Hom table set aside
        homs_here = {key[1:]: d for key, d in hom_dims.items() if key[0] == n}
        ext1s_here = {key[1:]: e for key, e in ext1_dims.items() if key[0] == n}
        assert homs_here and ext1s_here, n
        assert all(type(x) is int for key in (*homs_here, *ext1s_here)
                   for x in key), n
        assert all(len(key) == 3 and 0 <= key[1] < n for key in homs_here)
        assert all(len(key) == 4 and 0 <= key[2] < n for key in ext1s_here)
        kept, q.homs = q.homs, {}
        try:
            recount = {(lu, dt, lv): oracle._hom(q.reps[1, lu], q.reps[dt + 1, lv])
                       for lu, dt, lv in homs_here}
            assert homs_here == recount, n
            recount = {}
            for lu, c_top, dt, lv in ext1s_here:
                k = q.presentations[1, lu, c_top]
                p0, m, nv = q.reps[1, c_top], q.reps[1, lu], q.reps[dt + 1, lv]
                recount[lu, c_top, dt, lv] = \
                    oracle._hom(k, nv) - oracle._hom(p0, nv) + oracle._hom(m, nv)
            assert ext1s_here == recount, n
        finally:
            q.homs = kept
    # every answer lies under the prefix of a quiver the pass kept
    assert {key[0] for key in (*hom_dims, *ext1_dims)} == set(quivers)


def test_a_uniserials_representation_depends_only_on_the_quiver():
    seen = defaultdict(dict)  # n -> {u: (dims, mats)}, both kinds
    compared = 0
    for alg in grid_algebras(4, 6):
        table = seen[alg.n]
        for u in indecomposables(alg):
            rep = MatrixRep.of_uniserial(oracle._quiver(alg), alg, u)
            compared += u in table
            assert table.setdefault(u, (rep.dims, rep.mats)) == \
                (rep.dims, rep.mats), (alg, u)
    assert compared > 0


def _own_hom(m_rep, n_rep):
    """dim Hom(M, N) from the pair's own intertwiner system, with no table."""
    rows, total = intertwiner_system(m_rep.dims, n_rep.dims, [
        (v - 1, w - 1, m_rep.mats[v], n_rep.mats[v])
        for v, w in m_rep.quiver.arrows])
    return total - rank(rows) if total else 0


def test_every_kept_rep_pair_hom_is_its_own_elimination(grid_order_pass):
    # pairs whose answer came from a rotated pair's elimination, K-pairs of
    # the presentations included, against an elimination of their own
    _, quivers, *_ = grid_order_pass
    checked = shared = 0
    for n, q in quivers.items():
        for (m, k), d in q.homs.items():
            assert d == _own_hom(m, k), (n, m.dims, k.dims)
            checked += 1
        shared += sum(s != 0 for s, _ in q.rotations.values())
    assert checked and shared


def _system_class(system):
    """The rotation class of one cyclic intertwiner system's inputs: the
    least of the n relabellings of (m_dims, n_dims, arrows) by v -> v + t."""
    m_dims, n_dims, arrows = system
    n = len(m_dims)

    def moved(t):
        return (tuple(m_dims[(i - t) % n] for i in range(n)),
                tuple(n_dims[(i - t) % n] for i in range(n)),
                tuple(sorted(((v + t) % n, (w + t) % n, tuple(map(tuple, ma)),
                              tuple(map(tuple, na)))
                             for v, w, ma, na in arrows)))
    return min(moved(t) for t in range(n))


def test_intertwiner_dim_runs_once_per_distinct_hom(grid_order_pass,
                                                    monkeypatch):
    algs, *_, grid_order_calls = grid_order_pass
    assert len(grid_order_calls) == 345
    # a system is counted only when it has variables, every system is on a
    # cyclic quiver (one arrow per vertex), and no two counted pairs are
    # rotations of each other
    assert all(any(a * b for a, b in zip(args[0], args[1]))
               for args in grid_order_calls)
    assert all(len(args[2]) == len(args[0]) for args in grid_order_calls)
    classes = [_system_class(args) for args in grid_order_calls]
    assert len(set(classes)) == len(classes)
    shuffled = algs[:]
    random.Random(12).shuffle(shuffled)
    calls = []
    _empty_caches(monkeypatch)
    monkeypatch.setattr(oracle, "intertwiner_dim",
                        _counting(calls, oracle.intertwiner_dim))
    _grid_pass(shuffled)
    assert len(calls) == 345
    calls.clear()
    _grid_pass(shuffled)
    assert calls == []


def test_a_linear_first_cold_pass_leaves_the_same_tables(grid_order_pass,
                                                         monkeypatch):
    # grid order meets every cyclic algebra first; here each n's linear
    # algebras come before its cyclic ones, so the linear pairs fill the
    # shared tables that the cyclic pairs then read
    algs, _, hom_dims, ext1_dims, grid_order_calls = grid_order_pass
    linear_first = sorted(algs, key=lambda alg: (alg.n, alg.kind != "linear"))
    assert linear_first[0].kind == "linear"
    _empty_caches(monkeypatch)
    calls = []
    monkeypatch.setattr(oracle, "intertwiner_dim",
                        _counting(calls, oracle.intertwiner_dim))
    for alg in linear_first:
        mods = indecomposables(alg)
        pairs = [(alg, u, v) for u in mods for v in mods]
        assert _answers(pairs) == \
            [(hom_dim(*call), ext_dim(*call, 1)) for call in pairs], alg
    assert (oracle._hom_dims, oracle._ext1_dims) == (hom_dims, ext1_dims)
    assert len(calls) == len(grid_order_calls)


def test_the_rotation_changes_no_answer(monkeypatch):
    # each public answer on a cyclic quiver, computed from the turned pair,
    # against the same pair's own representations and presentation
    _empty_caches(monkeypatch)
    compared = 0
    for alg in grid_algebras(4, 6):
        if alg.kind != "cyclic":
            continue
        q = oracle._quiver(alg)
        mods = indecomposables(alg)
        for u in mods:
            k = _presentation(q, alg, u, alg.c[u.top - 1])
            p0 = oracle._rep(q, alg, Uniserial(u.top, alg.c[u.top - 1]))
            m = oracle._rep(q, alg, u)
            for v in mods:
                nv = oracle._rep(q, alg, v)
                assert oracle_hom_dim(alg, u, v) == oracle._hom(m, nv), (alg, u, v)
                assert oracle_ext1_dim(alg, u, v) == \
                    oracle._hom(k, nv) - oracle._hom(p0, nv) + oracle._hom(m, nv), \
                    (alg, u, v)
                compared += u.top != 1
    assert compared > 0


def _pairs(algs):
    return sum(len(indecomposables(alg)) ** 2 for alg in algs)


def test_a_public_call_looks_its_quiver_up_only_on_a_miss(monkeypatch):
    _empty_caches(monkeypatch)
    lookups = []
    monkeypatch.setattr(oracle, "_quiver", _counting(lookups, oracle._quiver))
    algs = grid_algebras(3, 4)
    _grid_pass(algs)
    # one lookup per new answer, so at most one per public call
    assert len(lookups) == len(oracle._hom_dims) + len(oracle._ext1_dims)
    assert 0 < len(lookups) <= 2 * _pairs(algs)
    lookups.clear()
    _grid_pass(algs)
    assert lookups == []


def test_a_warm_pass_builds_no_cover(monkeypatch):
    _empty_caches(monkeypatch)
    lookups, built = [], []
    monkeypatch.setattr(oracle, "_quiver", _counting(lookups, oracle._quiver))
    # a presentation builds its cover M(top, c_top) as a Uniserial
    monkeypatch.setattr(oracle, "Uniserial", _counting(built, oracle.Uniserial))
    algs = grid_algebras(3, 4)
    _grid_pass(algs)
    covers = {(top, c_top) for q in oracle._quivers.values()
              for top, _, c_top in q.presentations}
    assert covers and covers <= set(built)
    lookups.clear()
    built.clear()
    _grid_pass(algs)
    assert built == []
    assert lookups == []


def test_a_warm_pass_is_answered_from_the_tables(monkeypatch):
    _empty_caches(monkeypatch)
    calls = []
    for name in ("_quiver", "_rep", "_presentation", "intertwiner_dim"):
        monkeypatch.setattr(oracle, name, _counting(calls, getattr(oracle, name)))
    algs = grid_algebras(3, 4)
    _grid_pass(algs)
    assert calls
    calls.clear()
    _grid_pass(algs)
    assert calls == []


def test_a_cold_pass_answers_every_rotation_of_its_algebra(monkeypatch):
    # the answers on a cyclic quiver are keyed by rotation class, so once one
    # algebra's pairs are answered, every rotation of it is answered from the
    # tables: no quiver lookup, no new entry, and each answer still the
    # counting formulas'
    _empty_caches(monkeypatch)
    c = [3, 4, 4, 5, 4]
    _grid_pass([validate("cyclic", c)])
    sizes = len(oracle._hom_dims), len(oracle._ext1_dims)
    assert all(sizes)
    lookups = []
    monkeypatch.setattr(oracle, "_quiver", _counting(lookups, oracle._quiver))
    for t in range(1, len(c)):
        alg = validate("cyclic", c[t:] + c[:t])
        mods = indecomposables(alg)
        calls = [(alg, u, v) for u in mods for v in mods]
        assert _answers(calls) == \
            [(hom_dim(*call), ext_dim(*call, 1)) for call in calls], alg
    assert lookups == []
    assert (len(oracle._hom_dims), len(oracle._ext1_dims)) == sizes


def test_presentation_rejects_a_kernel_that_is_not_arrow_stable(monkeypatch):
    _empty_caches(monkeypatch)
    alg = validate("cyclic", [3, 3])
    q = oracle._quiver(alg)
    u = Uniserial(1, 1)
    # P_1 = M(1, 3) has slots 0, 2 at vertex 1 and slot 1 at vertex 2, and
    # the kernel of P_1 ->> u is slots 1 and 2; an arrow 2 -> 1 that also
    # hits slot 0 leaves that kernel
    p0 = oracle._rep(q, alg, Uniserial(1, 3))
    assert p0.mats[2] == [[0], [1]]
    p0.mats[2][0][0] = 1
    with pytest.raises(AssertionError, match="not arrow-stable"):
        _presentation(q, alg, u, alg.c[u.top - 1])
