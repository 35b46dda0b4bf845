"""The matrix oracle's memo: answers free of call order, one algebra held
at a time, and the integrality check on a presentation's arrow maps."""

import pytest

from nakayama import oracle
from nakayama.checks import grid_algebras
from nakayama.core import Uniserial, indecomposables, projective, validate
from nakayama.homology import ext_dim, hom_dim
from nakayama.oracle import _presentation, oracle_ext1_dim, oracle_hom_dim

COLD = validate("cyclic", [2, 2])


def _answers(calls):
    return [(oracle_hom_dim(alg, u, v), oracle_ext1_dim(alg, u, v))
            for alg, u, v in calls]


def _empty_caches():
    # a call for another algebra empties the memo
    _answers([(COLD, projective(COLD, 1), projective(COLD, 2))])


def test_answers_do_not_depend_on_call_order():
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
        _empty_caches()
        assert dict(zip(order, _answers(order))) == \
            {call: want[call] for call in order}


def test_caches_hold_one_algebra():
    algs = grid_algebras(4, 6)
    for alg in algs:
        mods = indecomposables(alg)
        _answers([(alg, u, v) for u in mods for v in mods])
    assert not [name for name, obj in vars(oracle).items()
                if hasattr(obj, "cache_info")]
    last = algs[-1]
    mods = indecomposables(last)
    reps = ({oracle._rep(last, u) for u in mods}
            | {_presentation(last, u)[0] for u in mods})
    assert all(rep.alg == last for rep in reps)
    one_algebra = ({("_arrows",)}
                   | {("_rep", u) for u in mods}
                   | {("_presentation", u) for u in mods}
                   | {("_hom", m, n) for m in reps for n in reps}
                   | {oracle._content_key(rep) for rep in reps})
    assert oracle._memo.alg == last
    assert oracle._memo.table and set(oracle._memo.table) <= one_algebra


def test_presentation_rejects_a_non_integral_arrow_map(monkeypatch):
    real = oracle.solve
    monkeypatch.setattr(oracle, "solve", lambda mat, rhs: [
        x / 2 for x in real(mat, rhs)])
    alg = validate("cyclic", [3, 3])
    u = Uniserial(1, 1)  # the kernel M(2,2) of P_1 = M(1,3) ->> u has an arrow
    _empty_caches()
    with pytest.raises(AssertionError, match="not integral"):
        _presentation(alg, u)
