"""Report plumbing and small-parameter runs of the property suites."""

import hashlib
import inspect

import pytest

from nakayama.checks import (
    CHECK_FLAGS,
    SUITE_NAMES,
    PropertyResult,
    grid_algebras,
    random_algebras,
    run_suite,
)
from nakayama.cli import main
from nakayama.core import INF, validate
from nakayama.homology import pdim
from nakayama.suites import SUITES
from nakayama.tilting import classify


def test_property_result_lines():
    p = PropertyResult("always true")
    for i in range(5):
        p.record(True, "w%d" % i)
    assert p.ok
    assert p.line() == "always true: ok (5 checked)"

    q = PropertyResult("sometimes false")
    q.record(True, "a")
    q.record(False, "bad case")
    q.record(False, "worse case")
    assert not q.ok
    assert q.first_counterexample == "bad case"
    assert q.line() == \
        "sometimes false: FAIL (2 of 3) first counterexample: bad case"

    # a property that checked nothing proves nothing
    z = PropertyResult("never reached")
    assert not z.ok
    assert z.line() == "never reached: FAIL (nothing checked)"


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="available"):
        run_suite("nonsense")


def test_suite_names_are_the_suites():
    # the names `nakayama check --suite` offers without compiling the suites
    assert list(SUITE_NAMES) == sorted(SUITES)


def test_run_suite_rejects_parameters_the_suite_does_not_take(capsys):
    # named as the flags of `nakayama check`, which is where a user meets it
    with pytest.raises(ValueError, match="takes no flag --samples, --seed; "
                                         "it accepts: --n-max, --c-max"):
        run_suite("oracle", n_max=2, c_max=3, samples=5, seed=9)
    argv = "check --suite oracle --n-max 2 --c-max 3 --cap 1".split()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "suite oracle takes no flag --cap; it accepts: --n-max, --c-max" in err


def test_run_suite_offers_only_flags_that_check_defines(capsys):
    assert main("check --suite tilting --cap 2".split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("suite tilting takes no flag --cap; "
                   "it accepts: --samples, --seed, --n-max, --c-max\n")
    # every suite parameter is a flag of `nakayama check`
    for suite in SUITES.values():
        assert set(inspect.signature(suite).parameters) <= set(CHECK_FLAGS)


def test_grid_algebras_are_valid():
    algs = list(grid_algebras(3, 4))
    assert len(algs) > 0
    for alg in algs:
        validate(alg.kind, alg.c)
    # both kinds appear
    assert {a.kind for a in algs} == {"cyclic", "linear"}


def test_grid_algebras_hold_nothing_below_the_least_entry():
    # linear sequences start at 1 and cyclic ones at 2
    assert grid_algebras(4, 0) == [] and grid_algebras(4, -5) == []
    assert grid_algebras(4, 1) == [validate("linear", [1])]


def test_random_algebras_reproducible():
    # pinned draws; they include cyclic and linear algebras with n = 1
    a = [x.c for x in random_algebras(20, 5, 8, seed=7)]
    assert a == [
        (1, 2), (8,), (2, 2, 3), (1,), (6,), (1,), (7, 7), (2, 2, 3, 2, 2),
        (3, 3, 4, 5, 4), (1, 2, 3, 3, 2), (2, 3), (1, 2, 3), (6,), (1, 2),
        (4, 4, 5, 6), (1,), (7, 6, 7), (1, 2, 3), (3, 4, 3, 3), (1, 2, 2, 3),
    ]
    assert [x.c for x in random_algebras(20, 5, 8, seed=7)] == a


def test_sampled_suites_digest():
    # taken when the tilting suite came to check each distinct algebra once:
    # 830 algebras here, 941 when it rechecked repeated draws
    reports = [run_suite("tilting", samples=200), run_suite("it", samples=100)]
    text = "\n".join(repr(r) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a0138c9dd4de1ac1"


def test_drop_suite_digest():
    # taken when the drop suite came to list its grid: 91 algebras
    text = repr(run_suite("drop", n_max=5, c_max=6))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "db0c44f8189ce0a9"


def test_structural_and_endo_suites_digest():
    # the endo suite's hom-transport property checks all 200 pairs of its
    # fixed domain, with no cap on their number
    reports = [run_suite("structural", n_max=4, c_max=6), run_suite("endo")]
    text = "\n".join(repr(r) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "1b314912e3f1a2e2"


def test_structural_suite_reads_one_pdim_table_per_tilting_algebra(monkeypatch):
    # the per-module dimensions come from one table per algebra that the
    # suite checks past the criterion, not from pdim one module at a time
    from nakayama import suites
    real, tables, singles = suites.pdim_table, [], []
    monkeypatch.setattr(suites, "pdim_table",
                        lambda alg: tables.append(alg) or real(alg))
    monkeypatch.setattr(suites, "pdim",
                        lambda alg, m: singles.append((alg, m)) or pdim(alg, m))
    suites.suite_structural(n_max=4, c_max=6)
    assert tables and singles == []
    assert tables == [alg for alg in grid_algebras(4, 6)
                      if classify(alg).tilting_exists]


def test_suite_tilting_small():
    rep = run_suite("tilting", samples=50, seed=1, n_max=4, c_max=6)
    assert rep.suite == "tilting"
    assert rep.ok
    lines = rep.lines()
    assert len(lines) == 7
    assert all(": ok (" in ln for ln in lines)


@pytest.mark.parametrize("suite, probe, samples, unchecked_at_n1", [
    # with n = 1 every algebra satisfies the criterion, so the tilting
    # suite's exhaustive non-existence check has nothing to check, and says so
    ("tilting", "tilting_criterion", {"samples": 2},
     ["no small tilting module when criterion fails: FAIL (nothing checked)"]),
    # drop lists its grid, calling gldim on every algebra before the criterion
    ("drop", "gldim", {}, []),
], ids=["tilting", "drop"])
def test_suite_checks_no_algebra_beyond_its_bounds(monkeypatch, suite, probe,
                                                   samples, unchecked_at_n1):
    # every algebra the suite checks, grid, samples and any fixed slice,
    # passes through the probe; the draws are made in checks
    from nakayama import checks, suites
    real, seen = getattr(suites, probe), []
    monkeypatch.setattr(suites, probe,
                        lambda alg: seen.append(alg) or real(alg))
    real_draw, draws = checks.random_algebra, []
    monkeypatch.setattr(checks, "random_algebra",
                        lambda *args: draws.append(args) or real_draw(*args))
    real_pd, checked = suites.pd_tau_tilting, []
    monkeypatch.setattr(suites, "pd_tau_tilting",
                        lambda alg, t: checked.append(alg) or real_pd(alg, t))
    rep = run_suite(suite, n_max=2, c_max=3, **samples)
    assert seen and all(alg.n <= 2 and max(alg.c) <= 3 for alg in seen)
    assert max(alg.n for alg in seen) == 2
    assert rep.ok
    # only a suite that takes samples draws; drop checks every algebra of
    # its grid with finite gldim and a tilting module, once, in grid order
    assert bool(draws) == bool(samples)
    if suite == "drop":
        assert checked == [a for a in grid_algebras(2, 3)
                           if real(a) != INF and suites.tilting_criterion(a)]
        assert len(checked) == rep.properties[0].checked == 3
    seen.clear()
    rep = run_suite(suite, n_max=1, c_max=2, **dict.fromkeys(samples, 0))
    assert seen and all(alg.n == 1 and max(alg.c) <= 2 for alg in seen)
    assert [p.line() for p in rep.properties if not p.checked] == unchecked_at_n1
    assert rep.ok == (not unchecked_at_n1)


def test_suite_tilting_checks_each_distinct_algebra_once(monkeypatch):
    # a draw that repeats an algebra of the grid slice or an earlier draw
    # is not checked again, and the order is that of first sight
    from nakayama import suites
    real, seen = suites.syzygy_correspondence, []
    monkeypatch.setattr(suites, "syzygy_correspondence",
                        lambda alg: seen.append(alg) or real(alg))
    rep = run_suite("tilting", samples=50, seed=3, n_max=3, c_max=4)
    algebras = grid_algebras(3, 4) + random_algebras(50, 3, 4, 3)
    assert 0 < len(seen) < len(algebras)
    assert seen == list(dict.fromkeys(algebras))
    assert rep.properties[0].checked == len(seen)


def test_suite_drop_small():
    rep = run_suite("drop", cap=20, n_max=4, c_max=5)
    assert rep.ok
    names = [p.name for p in rep.properties]
    assert "gldim drop equivalence" in names


def test_suite_it_small():
    rep = run_suite("it", samples=30, seed=2, n_max=4, c_max=6)
    assert rep.ok
    assert sum(p.checked for p in rep.properties) >= 30


def test_oracle_witness_names_its_own_kind(monkeypatch):
    # ext^1 goes wrong on n = 1 and hom on n = 2; the grid reaches n = 1
    # first, so a witness shared by both kinds would name ext1 on the hom line
    from nakayama import checks
    hom, ext1 = checks.oracle_hom_dim, checks.oracle_ext1_dim
    monkeypatch.setattr(checks, "oracle_hom_dim",
                        lambda alg, u, v: hom(alg, u, v) + (alg.n == 2))
    monkeypatch.setattr(checks, "oracle_ext1_dim",
                        lambda alg, u, v: ext1(alg, u, v) + (alg.n == 1))
    hom_prop, ext_prop = run_suite("oracle", n_max=2, c_max=3).properties
    assert hom_prop.failed and ext_prop.failed
    assert hom_prop.first_counterexample.startswith("cyclic:2,2 hom ")
    assert ext_prop.first_counterexample.startswith("cyclic:2 ext1 ")


def test_drop_bound_violation_is_reported_not_raised(monkeypatch):
    # an End(T) global dimension one above gldim breaks the bound; the
    # property must record it instead of an assert raising out of the suite
    from nakayama import endo, suites
    from nakayama.homology import gldim
    for mod in (suites, endo):
        monkeypatch.setattr(mod, "gldim_over",
                            lambda algebra, cap=30: gldim(algebra.alg) + 1)
    rep = run_suite("drop", cap=20, n_max=4, c_max=5)
    bounds = next(p for p in rep.properties
                  if p.name == "endo gldim within one of gldim")
    assert bounds.checked and bounds.failed == bounds.checked
    assert bounds.line().startswith("endo gldim within one of gldim: FAIL")
    assert not rep.ok


def _right_side_one_more(real):
    # a classify whose finite right side is one more than its left side
    from nakayama.core import INF

    def broken(alg):
        rep = real(alg)
        if rep.id_right == INF:
            return rep
        return rep._replace(id_right=rep.id_right + 1)
    return broken


@pytest.mark.parametrize("suite, params, target, mutate, name", [
    pytest.param("structural", {"n_max": 2, "c_max": 3}, "classify",
                 _right_side_one_more,
                 "finite one-sided selfinjective dimensions agree", id="sides"),
    pytest.param("structural", {"n_max": 3, "c_max": 4}, "domdim",
                 lambda real: lambda alg: real(alg) + 1,
                 "dominant dimension is opposite-symmetric", id="domdim"),
    pytest.param("tilting", {"samples": 0, "n_max": 2, "c_max": 3},
                 "verify_cotilting", lambda real: lambda alg, c: False,
                 "cotilting verifies when tilting exists", id="cotilting"),
])
def test_a_broken_check_fails_only_its_own_property(monkeypatch, suite, params,
                                                    target, mutate, name):
    # each property is bound to its own check, so breaking one check fails
    # the property named for it and no other
    from nakayama import suites
    monkeypatch.setattr(suites, target, mutate(getattr(suites, target)))
    rep = run_suite(suite, **params)
    assert [p.name for p in rep.properties if p.failed] == [name]


def test_drop_catches_disagreeing_conditions(monkeypatch):
    from nakayama import suites
    monkeypatch.setattr(
        suites, "gldim_drop_conditions",
        lambda alg, t: {"pd": True, "ext": False, "cover": True, "nu": True})
    rep = run_suite("drop", cap=20, n_max=4, c_max=5)
    agree = next(p for p in rep.properties
                 if p.name == "the four drop conditions agree")
    assert agree.checked and agree.failed == agree.checked
    assert not rep.ok


def test_tilting_catches_a_non_injective_syzygy_correspondence(monkeypatch):
    from nakayama import suites
    real = suites.syzygy_correspondence

    def merged(alg):
        # send the first two modules of X to the same projective
        x, omega, bij = real(alg)
        if len(x) >= 2:
            omega = dict(omega)
            omega[x[1]] = omega[x[0]]
        return x, omega, bij

    monkeypatch.setattr(suites, "syzygy_correspondence", merged)
    rep = run_suite("tilting", samples=20, seed=1, n_max=4, c_max=6)
    into = next(p for p in rep.properties if p.name
                == "syzygy correspondence maps X injectively into the projectives")
    assert 0 < into.failed < into.checked
    assert not rep.ok


def test_suites_and_endo_command_build_each_object_once(monkeypatch, capsys):
    # per algebra: at most 6 splits in structural (classify's included, from
    # an empty rotation table), one T in drop, and one End(T) in endo for
    # each algebra that reaches it; `nakayama endo` builds T once
    from nakayama import cli, endo, suites, tilting
    calls = {}

    def count(name, *mods):
        real, calls[name] = getattr(mods[0], name), 0

        def counted(*args, _real=real):
            calls[name] += 1
            return _real(*args)

        for mod in mods:
            monkeypatch.setattr(mod, name, counted)

    count("split_projective_vertices", tilting)
    count("canonical_tilting", tilting, suites, cli)
    count("end_algebra", endo, suites, cli)

    def run(*args, **params):
        calls.update(dict.fromkeys(calls, 0))
        return run_suite(*args, **params).properties

    run("structural", n_max=4, c_max=6)
    assert calls["split_projective_vertices"] <= 6 * len(grid_algebras(4, 6))
    holds = run("drop", cap=20, n_max=4, c_max=5)[0]
    assert calls["canonical_tilting"] == calls["end_algebra"] == holds.checked
    radical = run("endo")[5]
    assert radical.checked == 33
    assert calls["end_algebra"] == 1 + radical.checked
    calls.update(dict.fromkeys(calls, 0))
    assert main(["endo", "--cyclic", "3,2,3,4,3"]) == 0
    assert "holds" in capsys.readouterr().out
    assert calls["canonical_tilting"] == calls["end_algebra"] == 1
