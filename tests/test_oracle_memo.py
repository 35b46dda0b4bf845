"""The matrix oracle's tables: one per quiver (kind, n), answers keyed by the
quiver first, answers free of call order, answers unchanged by turning a
cyclic pair so that u's top is 1, rank work bounded by the distinct
rotation classes, a quiver lookup only on an answer-table miss, no cover
rebuilt once a presentation is kept, a warm pass answered from the Hom/Ext^1
tables alone, and the integrality check on a presentation's arrow maps."""

import random
from collections import defaultdict

import pytest

from nakayama import oracle
from nakayama.checks import grid_algebras
from nakayama.core import Uniserial, indecomposables, validate
from nakayama.homology import ext_dim, hom_dim
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
    tables, its number of oracle.rank calls)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _empty_caches(mp)
        mp.setattr(oracle, "rank", _counting(calls, oracle.rank))
        algs = grid_algebras(4, 6)
        _grid_pass(algs)
        return algs, oracle._quivers, oracle._hom_dims, oracle._ext1_dims, len(calls)


def test_tables_are_kept_per_quiver(grid_order_pass):
    algs, quivers, hom_dims, ext1_dims, _ = grid_order_pass
    assert not [name for name, obj in vars(oracle).items()
                if hasattr(obj, "cache_info")]
    assert set(quivers) == {(alg.kind, alg.n) for alg in algs}
    for (kind, n), q in quivers.items():
        reps = set(q.contents.values())
        assert all(rep.quiver is q for rep in reps)
        assert set(q.reps.values()) <= reps
        assert {k for k, _, _, _ in q.presentations.values()} <= reps
        assert q.homs and all(m in reps and k in reps for m, k in q.homs)
        # keys are ints: (top, length) of a uniserial, and (top, length, c_top)
        # of a presentation, whose record holds the reps of u = M(top, length)
        # and of its cover M(top, c_top), which has the same top
        assert all(type(x) is int for key in (*q.reps, *q.presentations)
                   for x in key), (kind, n)
        assert all(m is q.reps[top, length] and p0 is q.reps[top, c_top]
                   and length <= c_top
                   for (top, length, c_top), (_, _, p0, m)
                   in q.presentations.items()), (kind, n)
        # a miss on a cyclic quiver is computed from the pair turned so that
        # u's top is 1, so every presentation there has top 1
        assert kind == "linear" or {top for top, _, _ in q.presentations} == {1}, \
            (kind, n)

        def turned(tu, tv):
            return (1, (tv - tu) % n + 1) if kind == "cyclic" else (tu, tv)

        # the answers under this quiver's prefix:
        # (top u, len u, top v, len v) -> dim Hom and
        # (top u, len u, c_top, top v, len v) -> dim Ext^1, each equal to a
        # recount from the reps of the turned pair with the pass's Hom table
        # set aside
        homs_here = {key[2:]: d for key, d in hom_dims.items()
                     if key[:2] == (kind, n)}
        ext1s_here = {key[2:]: e for key, e in ext1_dims.items()
                      if key[:2] == (kind, n)}
        assert homs_here and ext1s_here, (kind, n)
        assert all(type(x) is int for key in (*homs_here, *ext1s_here)
                   for x in key), (kind, n)
        kept, q.homs = q.homs, {}
        try:
            recount = {}
            for tu, lu, tv, lv in homs_here:
                su, sv = turned(tu, tv)
                recount[tu, lu, tv, lv] = oracle._hom(q.reps[su, lu], q.reps[sv, lv])
            assert homs_here == recount, (kind, n)
            recount = {}
            for tu, lu, c_top, tv, lv in ext1s_here:
                su, sv = turned(tu, tv)
                k, _, p0, m = q.presentations[su, lu, c_top]
                nv = q.reps[sv, lv]
                recount[tu, lu, c_top, tv, lv] = \
                    oracle._hom(k, nv) - oracle._hom(p0, nv) + oracle._hom(m, nv)
            assert ext1s_here == recount, (kind, n)
        finally:
            q.homs = kept
    # every answer lies under the prefix of a quiver the pass kept
    assert {key[:2] for key in (*hom_dims, *ext1_dims)} == set(quivers)


def test_a_uniserials_representation_depends_only_on_the_quiver():
    seen = defaultdict(dict)  # (kind, n) -> {u: (dims, mats)}
    compared = 0
    for alg in grid_algebras(4, 6):
        table = seen[alg.kind, alg.n]
        for u in indecomposables(alg):
            rep = MatrixRep.of_uniserial(oracle._quiver(alg), alg, u)
            compared += u in table
            assert table.setdefault(u, (rep.dims, rep.mats)) == \
                (rep.dims, rep.mats), (alg, u)
    assert compared > 0


def test_rank_runs_once_per_distinct_hom(grid_order_pass, monkeypatch):
    algs, *_, grid_order_calls = grid_order_pass
    assert grid_order_calls == 885
    shuffled = algs[:]
    random.Random(12).shuffle(shuffled)
    calls = []
    _empty_caches(monkeypatch)
    monkeypatch.setattr(oracle, "rank", _counting(calls, oracle.rank))
    _grid_pass(shuffled)
    assert len(calls) == 885
    calls.clear()
    _grid_pass(shuffled)
    assert calls == []


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
            k, _, p0, m = _presentation(q, alg, u, alg.c[u.top - 1])
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
    for name in ("_quiver", "_rep", "_presentation", "rank"):
        monkeypatch.setattr(oracle, name, _counting(calls, getattr(oracle, name)))
    algs = grid_algebras(3, 4)
    _grid_pass(algs)
    assert calls
    calls.clear()
    _grid_pass(algs)
    assert calls == []


def test_presentation_rejects_a_non_integral_arrow_map(monkeypatch):
    real = oracle.solve
    _empty_caches(monkeypatch)
    monkeypatch.setattr(oracle, "solve", lambda mat, rhs: [
        x / 2 for x in real(mat, rhs)])
    alg = validate("cyclic", [3, 3])
    u = Uniserial(1, 1)  # the kernel M(2,2) of P_1 = M(1,3) ->> u has an arrow
    with pytest.raises(AssertionError, match="not integral"):
        _presentation(oracle._quiver(alg), alg, u, alg.c[u.top - 1])
