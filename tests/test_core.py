import re
import time
from itertools import product

import pytest

from nakayama.checks import grid_algebras
from nakayama.core import (
    INF,
    AdmissibleSequence,
    ModuleSum,
    Uniserial,
    basic_sum,
    dim_json,
    format_algebra,
    format_module,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    make_module,
    opposite,
    parse_algebra,
    parse_module,
    parse_module_sum,
    projective,
    rotation_normal_form,
    socle_vertex,
    summands,
    tau,
    tau_inv,
    validate,
)

SHARP = validate("cyclic", [3, 2, 3, 4, 3])
RAD2 = validate("linear", [1, 2, 2, 2, 2])


# --- independent oracles -----------------------------------------------------

def path_count_dimension(alg):
    """Count nonzero paths in the quiver with relations, never reading sum(c).

    A path of length k starting at vertex i is zero iff some tail of it is a
    defining relation, i.e. iff k - j >= c_{i-j} for some 0 <= j <= k.
    """
    total = 0
    for i in range(1, alg.n + 1):
        k = 0
        while True:
            if alg.kind == "linear" and i - k < 1:
                break
            if any(k - j >= alg.c[alg.normalize(i - j) - 1] for j in range(k + 1)):
                break
            total += 1
            k += 1
    return total


def longest_socle_search(alg, j):
    """Injective envelope by brute force over every uniserial with socle j."""
    best = None
    for u in indecomposables(alg):
        if socle_vertex(alg, u) == j:
            if best is None or u.length > best.length:
                best = u
    return best


# --- validate ----------------------------------------------------------------

def test_validate_accepts_and_dimension_matches_path_count():
    for alg in (SHARP, RAD2, validate("cyclic", [2, 2]), validate("linear", [1]),
                validate("cyclic", [4]), validate("linear", [1, 2, 3, 3])):
        assert path_count_dimension(alg) == sum(alg.c)
    assert path_count_dimension(SHARP) == 15


def test_validate_rejects():
    with pytest.raises(ValueError):
        validate("cyclic", [1, 2])
    with pytest.raises(ValueError):
        validate("linear", [1, 3])
    with pytest.raises(ValueError):
        validate("linear", [2, 2])
    with pytest.raises(ValueError):
        validate("cyclic", [2, 4])
    with pytest.raises(ValueError):
        validate("cyclic", [])
    with pytest.raises(ValueError):
        validate("circular", [2, 2])
    # wrap condition c_1 <= c_n + 1
    with pytest.raises(ValueError):
        validate("cyclic", [5, 4, 3])
    # linear forces c_i <= i
    with pytest.raises(ValueError):
        validate("linear", [1, 2, 4])


def test_entries_must_be_integers():
    # int() alone would truncate 2.9 to 2 and build linear:1,2 without a word
    for c, bad in (([1, 2.9], "2.9"), ([2, 2.5, 3], "2.5"), ([1, "2"], "'2'"),
                   ([1, "x"], "'x'"), ([1, None], "None")):
        with pytest.raises(ValueError, match="^sequence entry %s is not an "
                                             "integer$" % re.escape(bad)):
            AdmissibleSequence("linear" if c[0] == 1 else "cyclic", c)
    # an entry equal to its int() is that integer, from any iterable
    assert AdmissibleSequence("linear", [1, 2.0]).c == (1, 2)
    assert validate("cyclic", (x for x in (3, 2, 3))) == validate("cyclic", [3, 2, 3])


def test_n_equals_one():
    k = validate("linear", [1])
    assert indecomposables(k) == [Uniserial(1, 1)]
    truncated = validate("cyclic", [4])
    assert len(indecomposables(truncated)) == 4
    assert is_injective(truncated, Uniserial(1, 4))


# --- indecomposables, projectives, injectives --------------------------------

def test_indecomposables_count_and_distinct():
    for alg in (SHARP, RAD2, validate("cyclic", [2, 3, 3])):
        mods = indecomposables(alg)
        assert len(mods) == sum(alg.c)
        assert len(set(mods)) == len(mods)
        for u in mods:
            assert 1 <= u.length <= alg.c[u.top - 1]


def test_projective_and_socle():
    assert projective(SHARP, 2) == Uniserial(2, 2)
    assert projective(SHARP, 0) == Uniserial(5, 3)  # index wraps
    # soc P_i = S_{i-c_i+1}
    for alg in (SHARP, RAD2):
        for i in range(1, alg.n + 1):
            assert socle_vertex(alg, projective(alg, i)) == alg.normalize(i - alg.c[i - 1] + 1)


def test_injective_matches_exhaustive_search():
    for alg in (SHARP, RAD2, validate("cyclic", [2, 2]), validate("cyclic", [3, 4, 4]),
                validate("linear", [1, 2, 3, 4]), validate("cyclic", [5])):
        for j in range(1, alg.n + 1):
            env = injective(alg, j)
            assert env == longest_socle_search(alg, j)
            assert socle_vertex(alg, env) == j


def test_injective_frozen_values():
    assert injective(SHARP, 1) == Uniserial(4, 4)  # = P_4
    assert injective(SHARP, 5) == Uniserial(1, 2)
    assert injective(RAD2, 5) == Uniserial(5, 1)
    assert injective(RAD2, 1) == Uniserial(2, 2)


def test_projective_injective_flags():
    assert is_projective(SHARP, Uniserial(4, 4))
    assert not is_projective(SHARP, Uniserial(4, 2))
    assert is_injective(SHARP, Uniserial(4, 4))
    assert is_injective(SHARP, Uniserial(1, 3))  # P_1 is injective here
    assert not is_injective(SHARP, Uniserial(2, 2))


def test_lengths_beyond_n_in_cyclic():
    alg = validate("cyclic", [7, 7, 7])  # selfinjective with c > n
    p = projective(alg, 1)
    assert p.length == 7
    assert socle_vertex(alg, p) == alg.normalize(1 - 7 + 1)
    assert is_injective(alg, p)


# --- tau and tau_inv ---------------------------------------------------------

def test_tau_basic():
    assert tau(SHARP, Uniserial(4, 2)) == Uniserial(3, 2)
    assert tau(SHARP, Uniserial(1, 1)) == Uniserial(5, 1)
    for i in range(1, 6):
        assert tau(SHARP, projective(SHARP, i)) is None
        assert tau_inv(SHARP, injective(SHARP, i)) is None


def test_tau_round_trip():
    for alg in (SHARP, RAD2):
        for u in indecomposables(alg):
            t = tau(alg, u)
            if t is not None:
                assert tau_inv(alg, t) == u
            t = tau_inv(alg, u)
            if t is not None:
                assert tau(alg, t) == u


# --- opposite ----------------------------------------------------------------

def test_opposite_values_and_involution():
    assert opposite(SHARP).c == (2, 3, 3, 3, 4)
    assert opposite(RAD2).c == (1, 2, 2, 2, 2)
    # c far above n checks the cyclic start of opposite's sweep
    grid = [validate("cyclic", c) for c in ([2, 2], [2, 2, 3], [3, 4, 4], [3, 2, 2, 3, 3],
                                            [200000, 200000], [7], [40, 41, 39], [60, 59, 60])]
    grid += [validate("linear", c) for c in ([1], [1, 2], [1, 2, 3], [1, 2, 2, 3])]
    for alg in grid + grid_algebras(5, 9):
        n = alg.n
        op = opposite(validate(alg.kind, alg.c))
        assert opposite(op) == alg
        assert sum(op.c) == sum(alg.c)
        # the opposite's projective at i* is as long as I(S_i) here
        star = (lambda i: n + 1 - i) if alg.kind == "linear" else (lambda i: (-i) % n + 1)
        assert [op.c[star(i) - 1] for i in range(1, n + 1)] == \
            [injective(alg, i).length for i in range(1, n + 1)], alg


def test_opposite_costs_order_n():
    # an envelope scan per vertex made this O(n * max c): seconds at n = 20,000
    n = 20000
    for alg in (validate("linear", [min(i, 3) for i in range(1, n + 1)]),
                validate("cyclic", [2] * n)):
        start = time.perf_counter()
        op = opposite(alg)
        assert opposite(validate(alg.kind, op.c)) == alg
        assert time.perf_counter() - start < 1.0, alg.kind


def test_n_and_the_opposite_are_kept_out_of_equality():
    for alg in grid_algebras(4, 6):
        assert vars(alg)["n"] == len(alg.c)   # stored, not recomputed per read
        op = opposite(alg)
        assert opposite(alg) is op
        assert opposite(op) == alg
        fresh = AdmissibleSequence(alg.kind, alg.c)   # no opposite built yet
        assert fresh == alg and hash(fresh) == hash(alg)
        assert repr(fresh) == repr(alg)
        assert format_algebra(fresh) == format_algebra(alg)
        assert len({fresh, alg}) == 1


# --- textual forms -----------------------------------------------------------

def test_algebra_round_trip():
    for text in ("cyclic:3,2,3,4,3", "linear:1,2,2,2,2", "cyclic:2,2", "linear:1"):
        assert format_algebra(parse_algebra(text)) == text
    with pytest.raises(ValueError):
        parse_algebra("3,2,3")
    with pytest.raises(ValueError):
        parse_algebra("cyclic:1,2")


def test_module_round_trip():
    assert format_module(parse_module(SHARP, "M(4,2)")) == "M(4,2)"
    assert parse_module(SHARP, "0") is None
    assert format_module(None) == "0"
    with pytest.raises(ValueError):
        parse_module(SHARP, "M(2,3)")  # longer than P_2
    with pytest.raises(ValueError):
        parse_module(RAD2, "M(1,2)")
    for text in ("M(9,1)", "M(0,1)"):  # vertex outside 1..n of a linear algebra
        with pytest.raises(ValueError, match="no uniserial"):
            parse_module(RAD2, text)
    for text in ("M(1,1,1)", "M(a,b)", "M(1,)", "M(,)", "M(1.5,2)"):
        with pytest.raises(ValueError, match="expected 'M"):
            parse_module(RAD2, text)
    s = parse_module_sum(SHARP, "M(4,2) + M(1,3) + M(4,2)")
    assert format_module(make_module(SHARP, 6, 2)) == "M(1,2)"  # top wraps
    assert repr(s) == "M(1,3) + M(4,2) + M(4,2)"
    assert not s.is_basic()


def test_module_sum_ops():
    a = ModuleSum.of([Uniserial(4, 2), Uniserial(1, 3)])
    assert a.is_basic()
    assert parse_module_sum(SHARP, "0") == ModuleSum(())
    # a "0" part is the zero summand and drops out of a longer sum
    assert parse_module_sum(SHARP, "0+M(1,1)") == ModuleSum.of([Uniserial(1, 1)])
    assert parse_module_sum(SHARP, "M(1,1) + 0 + M(2,1)") == ModuleSum.of(
        [Uniserial(1, 1), Uniserial(2, 1)])
    with pytest.raises(ValueError, match="expected 'M"):
        parse_module_sum(SHARP, "")


# --- extended naturals -------------------------------------------------------

def test_infinity_ordering():
    assert INF > 10 ** 9
    assert not (INF > INF)
    assert INF >= INF and INF == INF
    assert 5 < INF and 5 <= INF and not (INF < 5) and INF != 5
    assert max(3, INF) == INF
    assert INF + 1 == INF and 1 + INF == INF
    assert dim_json(INF) == "inf" and dim_json(4) == 4


def test_basic_sum_reads_every_module_argument_one_way():
    u = Uniserial(2, 3)
    assert basic_sum(None) == ModuleSum(())
    assert basic_sum(u) == ModuleSum.of([u])
    m = ModuleSum.of([u, Uniserial(1, 1)])
    assert basic_sum(m) is m
    with pytest.raises(ValueError, match="multiplicity-free"):
        basic_sum(ModuleSum.of([u, u]))
    assert basic_sum([Uniserial(1, 1), u]) == basic_sum((u, Uniserial(1, 1))) == m
    assert summands(None) == () and summands(u) == (u,)
    assert summands(m) == m.summands and summands([u]) == [u]
    for bad in ("M(2,3)", 5, {u}):
        with pytest.raises(ValueError, match="expected a module or a sum of "
                                             "modules, got %s" % type(bad).__name__):
            basic_sum(bad)


def test_rotation_normal_form_is_the_first_least_rotation():
    # the reference takes the least (rotation, t) pair, so a tie between
    # equal rotations goes to the least t: constant c and (2,3,2,3) have them
    for n in range(1, 7):
        for c in product(range(2, 6), repeat=n):
            cc = c * 2
            assert rotation_normal_form(c) == min((cc[t:t + n], t) for t in range(n))
    assert rotation_normal_form((3, 2, 3, 2)) == ((2, 3, 2, 3), 1)
