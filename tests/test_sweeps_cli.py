import csv
import io
import json
import random

import pytest

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
from nakayama.tilting import classify


def test_generation_pin_n2():
    assert generate_sequences("cyclic", 2, 3) == [(2, 2), (2, 3), (3, 2), (3, 3)]


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
    assert main(["check", "--suite", "it", "--samples", "-5"]) == 1
    out = capsys.readouterr().out
    assert "both functions equal pd on finite-pd sums: FAIL (nothing checked)" in out
    assert "suite it: FAIL" in out


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
