import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from itertools import product
from math import comb

import pytest

import nakayama
from nakayama.checks import run_suite
from nakayama.cli import main
from nakayama.core import (
    AdmissibleSequence,
    parse_algebra,
    parse_module,
    validate,
)
from nakayama.sweeps import (
    CSV_COLUMNS,
    REPORT_KEYS,
    SweepSpec,
    csv_row,
    difference_class_rep,
    generate_sequences,
    is_absolutely_elementary,
    is_elementary,
    min_rotation,
    random_algebra,
    sweep,
)
from nakayama.tilting import classify, tilting_criterion


def test_generation_pin_n2():
    assert list(generate_sequences("cyclic", 2, 3)) == [(2, 2), (2, 3), (3, 2), (3, 3)]


def _admissible(kind, c):
    """The definition, read directly: c_1 = 1 in the linear case, every
    other entry at least 2, and c_{i+1} <= c_i + 1, cyclically if cyclic."""
    n = len(c)
    if kind == "linear" and c[0] != 1:
        return False
    steps = range(n) if kind == "cyclic" else range(n - 1)
    return (all(x >= 2 for x in c[kind == "linear":])
            and all(c[(i + 1) % n] <= c[i] + 1 for i in steps))


@pytest.mark.parametrize("kind", ["cyclic", "linear"])
def test_generation_is_the_filtered_product_in_order(kind):
    # product() runs in lexicographic order, the order generation promises;
    # m = 0 (and m = 1 for cyclic) lies below the least entry
    for n in range(1, 7):
        for m in range((9 if n <= 4 else 6) + 1):
            expected = [c for c in product(range(1, m + 1), repeat=n)
                        if _admissible(kind, c)]
            assert list(generate_sequences(kind, n, m)) == expected, (n, m)


@pytest.mark.parametrize("kind", ["cyclic", "linear"])
@pytest.mark.parametrize("n", [0, -1])
def test_generation_rejects_n_below_one(kind, n):
    with pytest.raises(ValueError, match="n must be at least 1"):
        list(generate_sequences(kind, n, 5))


@pytest.mark.parametrize("kind", ["moebius", "Cyclic", ""])
def test_sequence_helpers_reject_an_unknown_kind(kind):
    # an unknown kind is an error, not read as one of the two kinds, and
    # every entry point names it in the same words
    message = "^kind must be 'cyclic' or 'linear', got %s$" % re.escape(repr(kind))
    for call in (lambda: list(generate_sequences(kind, 2, 3)),
                 lambda: difference_class_rep(kind, (8, 8, 7)),
                 lambda: SweepSpec(kind, 2, 3),
                 lambda: AdmissibleSequence(kind, (2, 2))):
        with pytest.raises(ValueError, match=message):
            call()


def test_generation_respects_wrap():
    for c in generate_sequences("cyclic", 4, 6):
        validate("cyclic", c)
    for c in generate_sequences("linear", 4, 6):
        validate("linear", c)


def test_elementary_classification_n3():
    # all rotation classes of cyclic n=3 admissible sequences that are
    # elementary and admit the canonical tilting module
    spec = SweepSpec(kind="cyclic", n=3, max_c=8, elementary=True,
                     filters=("tilting_exists",), up_to_rotation=True)
    rows, truncated = sweep(spec)
    assert not truncated
    assert [r.c for r in rows] == [
        (2, 2, 2), (2, 2, 3), (3, 3, 3), (3, 3, 4),
        (3, 4, 4), (4, 4, 4), (4, 5, 5)]


def test_absolutely_elementary_classification_n3():
    spec = SweepSpec(kind="cyclic", n=3, max_c=8, absolutely_elementary=True,
                     filters=("tilting_exists",), up_to_rotation=True)
    rows, _ = sweep(spec)
    assert [r.c for r in rows] == [(2, 2, 2), (2, 2, 3)]


@pytest.mark.parametrize("kind", ["cyclic", "linear"])
def test_difference_class_reduction_keeps_the_elementary_sequences(kind):
    # each difference class's least member is its one elementary member, so
    # `elementary` is the difference-class reduction; a linear sequence is its
    # own representative and, c_1 = 1 being its one least entry, its own
    # least rotation
    for n in range(1, 6):
        for c in generate_sequences(kind, n, 8):
            assert is_elementary(c) == (difference_class_rep(kind, c) == c), c
            if kind == "linear":
                assert is_elementary(c) and min_rotation(c) == c, c


def test_class_census_through_sweep():
    # one row per class: cyclic difference classes, whose least rotation has
    # min c <= n + 1 and so every entry <= 2n, and every linear sequence,
    # whose c_i <= i <= n; the paper's two theorems hold on every row
    counts = {}
    for kind, n_max in (("cyclic", 6), ("linear", 8)):
        for n in range(1, n_max + 1):
            rows, _ = sweep(SweepSpec(kind, n, 2 * n if kind == "cyclic" else n,
                                      up_to_rotation=True, elementary=True))
            for r in rows:
                assert r.tilting_exists == (r.domdim >= 2), r.c
                assert r.tilting_cotilting == r.one_aus_gorenstein, r.c
            counts.setdefault(kind, []).append(
                (len(rows), sum(r.tilting_exists for r in rows),
                 sum(r.tilting_cotilting for r in rows)))
    assert [list(x) for x in zip(*counts["cyclic"])] == [
        [1, 4, 12, 40, 130, 480], [1, 3, 7, 17, 39, 107], [1, 3, 5, 9, 12, 22]]
    assert [list(x) for x in zip(*counts["linear"])] == [
        [1, 1, 2, 5, 14, 42, 132, 429], [1, 0, 1, 1, 3, 6, 15, 36],
        [1, 0, 1, 0, 1, 0, 1, 0]]


def test_linear_counts_are_catalan_and_riordan_numbers():
    # the linear algebras with n simples number C_(n-1) = binom(2n-2, n-1)/n,
    # and those passing the tilting criterion the Riordan numbers R_(n-1):
    # R_0 = 1, R_1 = 0, R_m = (m - 1)(2 R_(m-1) + 3 R_(m-2)) / (m + 1)
    riordan = [1, 0]
    for m in range(2, 10):
        riordan.append((m - 1) * (2 * riordan[-1] + 3 * riordan[-2]) // (m + 1))
    for n in range(1, 11):
        seqs = list(generate_sequences("linear", n, n))
        assert len(seqs) == comb(2 * n - 2, n - 1) // n, n
        assert sum(tilting_criterion(validate("linear", c)) for c in seqs) == \
            riordan[n - 1], n


def test_elementary_predicates():
    assert is_elementary((4, 4, 4))
    assert not is_elementary((5, 5, 5))
    assert is_absolutely_elementary((2, 5, 4))
    assert not is_absolutely_elementary((3, 3, 3))


def test_min_rotation_and_difference_class():
    assert min_rotation((3, 2, 3, 4, 3)) == (2, 3, 4, 3, 3)
    assert difference_class_rep("cyclic", (8, 8, 7)) == (5, 5, 4)
    assert difference_class_rep("cyclic", (2, 2, 2)) == (2, 2, 2)
    assert difference_class_rep("linear", (1, 5, 5)) == (1, 5, 5)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(kind="moebius", n=2, max_c=3)
    with pytest.raises(ValueError):
        SweepSpec(kind="cyclic", n=0, max_c=3)
    with pytest.raises(ValueError):
        SweepSpec(kind="cyclic", n=2, max_c=1)
    with pytest.raises(ValueError):
        SweepSpec(kind="cyclic", n=2, max_c=3, filters=("not_a_key",))
    with pytest.raises(ValueError, match="row_cap"):
        SweepSpec(kind="cyclic", n=2, max_c=3, row_cap=-1)


def test_sweep_row_cap_marks_truncation():
    spec = SweepSpec(kind="cyclic", n=3, max_c=4, row_cap=5)
    rows, truncated = sweep(spec)
    assert truncated and len(rows) == 5


@pytest.mark.parametrize("cap", [1, 3])
def test_sweep_classifies_only_up_to_the_row_cap(monkeypatch, cap):
    import nakayama.sweeps

    full, _ = sweep(SweepSpec(kind="cyclic", n=4, max_c=6))
    calls = []

    def counted(alg):
        calls.append(alg)
        return classify(alg)

    monkeypatch.setattr(nakayama.sweeps, "classify", counted)
    rows, truncated = sweep(SweepSpec(kind="cyclic", n=4, max_c=6, row_cap=cap))
    assert len(calls) == cap and truncated
    assert rows == full[:cap] and len(full) > cap


@pytest.mark.parametrize("reductions", [
    (), ("up_to_rotation",), ("elementary",), ("up_to_rotation", "elementary")],
    ids=["none", "rotation", "elementary", "both"])
def test_capped_sweep_draws_only_the_sequences_it_needs(monkeypatch, reductions):
    import nakayama.sweeps

    real = nakayama.sweeps.generate_sequences
    drawn = []

    def counted(*args):
        for c in real(*args):
            drawn.append(c)
            yield c

    monkeypatch.setattr(nakayama.sweeps, "generate_sequences", counted)
    spec = SweepSpec(kind="cyclic", n=5, max_c=7, filters=("tilting_exists",),
                     row_cap=3)
    rows, truncated = sweep(spec._replace(**dict.fromkeys(reductions, True)))
    assert truncated and len(rows) == 3
    assert drawn[-1] == rows[-1].c
    assert len(drawn) < len(list(real("cyclic", 5, 7)))


def test_random_algebra_valid_and_reproducible():
    out1 = [random_algebra(random.Random(99), k, n, 9)
            for k in ("cyclic", "linear") for n in (1, 3, 6)]
    out2 = [random_algebra(random.Random(99), k, n, 9)
            for k in ("cyclic", "linear") for n in (1, 3, 6)]
    assert out1 == out2
    for alg in out1:
        validate(alg.kind, alg.c)


def test_csv_row_values():
    rep = classify(AdmissibleSequence("cyclic", (2, 2, 2)))
    assert csv_row(rep) == ("cyclic", "3", "2,2,2", "inf", "inf", "0",
                            "true", "false", "true", "true")
    rep = classify(AdmissibleSequence("cyclic", (2, 3, 3)))
    assert csv_row(rep)[5] == "na"   # not Gorenstein


def test_report_keys_cover_csv():
    assert set(CSV_COLUMNS) <= {"kind", "n", "c", "gldim", "domdim", "gdim",
                                "selfinjective", "auslander", "one_AG",
                                "tilting_exists"}
    assert "tilting_exists" in REPORT_KEYS


def test_cli_classify_json_keys(capsys):
    assert main(["classify", "--cyclic", "3,2,3,4,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == [
        "kind", "c", "gldim", "domdim", "id_left", "id_right", "gdim",
        "selfinjective", "auslander", "m_auslander", "one_aus_gorenstein",
        "dtr_selfinjective", "tilting_exists", "t_c", "c_c",
        "tilting_cotilting"]
    assert data["domdim"] == 2 and data["gldim"] == 4
    assert len(data["t_c"]) == 5


def test_cli_classify_plain_output(capsys):
    assert main(["classify", "--cyclic", "3,2,3,4,3"]) == 0
    out = capsys.readouterr().out
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert lines["kind"] == "cyclic"
    assert lines["c"] == "3, 2, 3, 4, 3"
    assert lines["gldim"] == "4"
    assert lines["domdim"] == "2"
    assert lines["selfinjective"] == "false"
    assert lines["tilting_exists"] == "true"
    assert lines["t_c"] == "M(1,3), M(4,1), M(4,2), M(4,4), M(5,3)"


def test_cli_classify_rejects_bad_sequence(capsys):
    assert main(["classify", "--cyclic", "2,4,2"]) == 1
    assert "c_2" in capsys.readouterr().err
    assert main(["classify", "--cyclic", "2,2", "--linear", "1,2"]) == 1
    assert main(["classify", "--cyclic", "a,b"]) == 1


def test_a_non_integer_entry_gets_one_message(capsys):
    # parse_algebra is the one sequence parser, and the CLI reads its flags
    # through it
    message = "could not parse '2,x' as a comma-separated integer sequence"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse_algebra("cyclic:2,x")
    assert main(["classify", "--cyclic", "2,x"]) == 1
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--cyclic", "2,2", "--json", "--csv"],
    ["enumerate", "--kind", "cyclic", "-n", "2", "--max-c", "3", "--csv", "--json"],
])
def test_cli_json_and_csv_exclude_each_other(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:") and "not allowed with argument" in err


def test_cli_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "foo", "-n", "2", "--max-c", "3"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: nakayama enumerate")
    assert "error: argument --kind: invalid choice: 'foo'" in err


def test_cli_closed_stdout_leaves_no_traceback():
    src = os.path.dirname(os.path.dirname(nakayama.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "nakayama", "enumerate", "--kind", "cyclic",
         "-n", "5", "--max-c", "7", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().strip() == b"["
    proc.stdout.close()  # the record is far larger than a pipe buffer
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"", err  # no traceback, nothing at all


def test_cli_classify_infinite_dims_as_inf(capsys):
    assert main(["classify", "--cyclic", "2,2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["gldim"] == "inf" and data["domdim"] == "inf"
    assert data["gdim"] == 0


def test_cli_enumerate_csv(capsys):
    assert main(["enumerate", "--kind", "cyclic", "-n", "2", "--max-c", "3",
                 "--csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "kind,n,c,gldim,domdim,gdim,selfinjective,auslander," \
                       "one_AG,tilting_exists"
    assert len(lines) == 5
    # the c field contains commas, so every row must stay column-aligned
    # when parsed back with a csv reader
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(r) == 10 for r in rows)
    for r in rows[1:]:
        validate(r[0], tuple(int(x) for x in r[2].split(",")))
        assert int(r[1]) == 2


def test_cli_enumerate_plain_round_trip(capsys):
    assert main(["enumerate", "--kind", "linear", "-n", "3", "--max-c", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out
    for line in out:
        token = line.split()[0]
        alg = parse_algebra(token)
        validate(alg.kind, alg.c)


def test_cli_tilting_round_trip(capsys):
    assert main(["tilting", "--cyclic", "3,2,3,4,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["criterion"] is True
    assert data["verify_tilting"] is True and data["verify_cotilting"] is True
    alg = AdmissibleSequence("cyclic", (3, 2, 3, 4, 3))
    for name in data["t_c"] + data["c_c"] + data["x"]:
        assert parse_module(alg, name) is not None
    assert data["pd_tau"] == 4
    assert data["drop_conditions"] == {
        "pd": False, "ext": False, "cover": False, "nu": False}


def test_cli_tilting_without_criterion(capsys):
    assert main(["tilting", "--cyclic", "2,3,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["criterion"] is False
    assert data["t_c"] is None and data["verify_tilting"] is None


def test_cli_endo_json(capsys):
    assert main(["endo", "--linear", "1,2,2,2,2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 10 and data["radical_dim"] == 5
    assert data["gldim_endo"] == 3
    assert data["drop"]["holds"] is True
    sc = data["structure_constants"]
    assert sc["dim"] == 10
    assert all(entry[3] == 1 for entry in sc["table"])


def test_cli_endo_builds_and_resolves_once(capsys, monkeypatch):
    import nakayama.cli
    import nakayama.endo

    calls = {"gldim_over": 0, "end_algebra": 0}
    for name in calls:
        real = getattr(nakayama.endo, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod in (nakayama.cli, nakayama.endo):
            monkeypatch.setattr(mod, name, counted)
    for flag in ("", "--json"):
        calls.update(gldim_over=0, end_algebra=0)
        argv = ["endo", "--cyclic", "3,2,3,4,3"] + ([flag] if flag else [])
        assert main(argv) == 0
        assert "holds" in capsys.readouterr().out
        assert calls == {"gldim_over": 1, "end_algebra": 1}


def test_cli_endo_over_cap_prints_marker(capsys):
    assert main(["endo", "--cyclic", "2,2", "--cap", "4"]) == 0
    out = capsys.readouterr().out
    assert "gldim_endo: >4" in out
    assert "mueller_domdim: inf" in out
    assert "drop: not applicable" in out


def test_cli_endo_rejects_a_bad_cap_before_any_work(capsys, monkeypatch):
    # the flag is blamed even where the algebra has no tilting module
    import nakayama.cli
    import nakayama.tilting

    calls = []
    for mod, name in ((nakayama.cli, "end_algebra"),
                      (nakayama.tilting, "canonical_tilting")):
        monkeypatch.setattr(mod, name, lambda *args, _n=name: calls.append(_n))
    for algebra in ("3,2,3,4,3", "2,3,3"):
        assert main(["endo", "--cyclic", algebra, "--cap", "0"]) == 1
        assert capsys.readouterr() == ("", "cap must be positive\n")
    assert calls == []


def test_cli_endo_requires_tilting(capsys):
    assert main(["endo", "--cyclic", "2,3,3"]) == 1
    assert "dominant dimension" in capsys.readouterr().err


def test_cli_check_suite(capsys):
    rc = main(["check", "--suite", "tilting", "--samples", "25",
               "--seed", "11", "--n-max", "4", "--c-max", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite tilting: ok" in out


def test_cli_check_nothing_checked_fails(capsys):
    assert main(["check", "--suite", "it", "--samples", "0"]) == 1
    out = capsys.readouterr().out
    assert "both functions equal pd on finite-pd sums: FAIL (nothing checked)" in out
    assert "suite it: FAIL" in out


@pytest.mark.parametrize("suite", ["tilting", "it"])
def test_cli_check_rejects_flags_below_their_range(suite, capsys):
    # the suites that draw random algebras need a vertex and an entry >= 2
    # to draw from, and a count of samples that is not negative
    for flag_name, value, low in (("--n-max", 0, 1), ("--c-max", 0, 2),
                                  ("--c-max", 1, 2), ("--samples", -1, 0),
                                  ("--samples", -5, 0)):
        assert main(["check", "--suite", suite, flag_name, str(value)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "suite %s needs %s >= %d, got %d\n" % (
            suite, flag_name, low, value)
    with pytest.raises(ValueError, match="needs --samples >= 0, got -1"):
        run_suite(suite, samples=-1)


def test_cli_check_drop_takes_only_its_grid_flags(capsys):
    # drop lists its grid instead of drawing, so it takes no --samples or
    # --seed, and an empty grid checks nothing, as in structural
    for argv in (["--samples", "5"], ["--samples", "-1"], ["--seed", "3"]):
        assert main(["check", "--suite", "drop"] + argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("suite drop takes no flag %s; "
                       "it accepts: --cap, --n-max, --c-max\n" % argv[0])
    for flag_name in ("--n-max", "--c-max"):
        assert main(["check", "--suite", "drop", flag_name, "0"]) == 1
        out = capsys.readouterr().out
        assert "gldim drop equivalence: FAIL (nothing checked)" in out
        assert "suite drop: FAIL" in out


@pytest.mark.parametrize("suite", ["drop", "endo"])
def test_cli_check_rejects_a_cap_below_one_before_any_work(suite, capsys,
                                                         monkeypatch):
    from nakayama import suites

    def work(*args):
        raise AssertionError("the suite started")

    # the first work that drop and endo do
    for name in ("grid_algebras", "end_algebra"):
        monkeypatch.setattr(suites, name, work)
    for cap in (0, -3):
        assert main(["check", "--suite", suite, "--cap", str(cap)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "suite %s needs --cap >= 1, got %d\n" % (suite, cap)
    # the patches are the ones the suite reads
    with pytest.raises(AssertionError, match="the suite started"):
        main(["check", "--suite", suite, "--cap", "1"])


def test_cli_check_over_cap_is_a_named_failure(capsys):
    # an End(T) resolution that hits the cap refutes nothing; it still fails,
    # and the witness says the run was undecided
    assert main(["check", "--suite", "drop", "--n-max", "4", "--c-max", "5",
                 "--cap", "1"]) == 1
    out = capsys.readouterr().out
    assert ("gldim drop equivalence: FAIL (27 of 29) first counterexample: "
            "cyclic:2,3 (endo resolution over cap 1)") in out
    assert "suite drop: FAIL" in out
    assert main(["check", "--suite", "endo", "--cap", "1"]) == 1
    out = capsys.readouterr().out
    assert ("hom transport drops projective dimension by one: FAIL (108 of 200) "
            "first counterexample: cyclic:2,2,3 M(3,2) "
            "(endo resolution over cap 1)") in out
    assert "suite endo: FAIL" in out


def test_cli_enumerate_rejects_negative_row_cap(capsys):
    assert main(["enumerate", "--kind", "cyclic", "-n", "2", "--max-c", "4",
                 "--row-cap", "-1"]) == 1
    captured = capsys.readouterr()
    assert "row_cap" in captured.err
    assert captured.out == ""


def test_cli_check_unknown_suite():
    with pytest.raises(SystemExit):
        main(["check", "--suite", "nonsense"])


def test_cli_oracle_single(capsys):
    assert main(["oracle", "--cyclic", "2,2,3"]) == 0
    out = capsys.readouterr().out
    assert "hom agreements: 49/49" in out


def test_cli_oracle_grid(capsys):
    assert main(["oracle", "--n-max", "2", "--c-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "matrix oracle: ok" in out


def test_cli_oracle_empty_grid_fails(capsys):
    assert main(["oracle", "--n-max", "0"]) == 1
    out = capsys.readouterr().out
    assert "matrix oracle: FAIL (nothing checked)" in out


@pytest.mark.parametrize("argv", [["check", "--suite", "oracle", "--c-max", "-5"],
                                  ["oracle", "--c-max", "-1"]])
def test_cli_oracle_grid_beyond_every_algebra_fails(capsys, argv):
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "hom dimension matches matrix oracle: FAIL (nothing checked)" in out
    assert "ext^1 dimension matches matrix oracle: FAIL (nothing checked)" in out


@pytest.mark.parametrize("argv", [
    ["oracle", "--cyclic", "2,2", "--n-max", "1", "--c-max", "1"],
    ["oracle", "--cyclic", "2,2", "--n-max", "4"],
    ["oracle", "--linear", "1,2", "--c-max", "6"],
])
def test_cli_oracle_rejects_grid_flags_with_an_algebra(capsys, argv):
    # cyclic:2,2 lies outside the grid n <= 1, c <= 1; one algebra has no grid
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "--n-max" in err and "--c-max" in err


def test_cli_oracle_single_names_the_mismatched_pair(capsys, monkeypatch):
    from nakayama import checks
    hom = checks.oracle_hom_dim
    monkeypatch.setattr(checks, "oracle_hom_dim",
                        lambda alg, u, v: hom(alg, u, v) + 1)
    assert main(["oracle", "--cyclic", "2,2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    witness = next(ln for ln in lines if ln.startswith("hom witness: "))
    assert witness.startswith("hom witness: cyclic:2,2 hom M(")
    assert " -> M(" in witness
    assert not any(ln.startswith("ext1 witness: ") for ln in lines)
    assert lines.index(witness) < lines.index("MISMATCH")


def test_cli_check_and_oracle_json_carry_the_witness(capsys, monkeypatch):
    from nakayama import checks
    hom = checks.oracle_hom_dim
    monkeypatch.setattr(checks, "oracle_hom_dim",
                        lambda alg, u, v: hom(alg, u, v) + 1)
    assert main(["oracle", "--cyclic", "2,2", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and data["hom agreements"] == "0/16"
    assert data["hom witness"].startswith("cyclic:2,2 hom M(")
    assert "ext1 witness" not in data
    assert main(["check", "--suite", "oracle", "--n-max", "1", "--c-max", "2",
                 "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "oracle" and data["ok"] is False
    hom_prop, ext_prop = data["properties"].values()
    assert hom_prop["failed"] == hom_prop["checked"] > 0
    assert hom_prop["first_counterexample"].startswith("cyclic:2 hom M(")
    assert ext_prop == {"checked": hom_prop["checked"], "failed": 0,
                        "first_counterexample": None}
