"""The value types: equality, hashing, order and repr by their fields.

Uniserial and HomMap hash as the tuple of their fields, so set and dict
order, and every digest taken over them, is that of the plain tuples.  They
are not tuples, though: they never equal one, order against one raises, and
json cannot encode them, so the CLI's JSON output goes through its own
encoder.  A fresh `import nakayama` must not load `dataclasses` or `inspect`.
"""

import json
import os
import subprocess
import sys
from itertools import product

import pytest

import nakayama
from nakayama.checks import PropertyResult, SuiteReport
from nakayama.core import AdmissibleSequence, ModuleSum, Uniserial
from nakayama.endo import OverCap
from nakayama.homology import HomMap

MODULES = [Uniserial(i, l) for i in range(1, 4) for l in range(1, 4)]
MAPS = [HomMap(u, v, k) for u, v in product(MODULES[:4], repeat=2) for k in (1, 2)]


def _uni_key(u):
    return (u.top, u.length)


def _map_key(f):
    return (_uni_key(f.source), _uni_key(f.target), f.k)


def _copies():
    """Pairs (a, b) of equal values built apart, and a value unequal to a."""
    yield Uniserial(2, 3), Uniserial(2, 3), Uniserial(3, 2)
    yield (HomMap(Uniserial(1, 2), Uniserial(2, 2), 1),
           HomMap(Uniserial(1, 2), Uniserial(2, 2), 1),
           HomMap(Uniserial(1, 2), Uniserial(2, 2), 2))
    yield (AdmissibleSequence("cyclic", (3, 2, 3)),
           AdmissibleSequence("cyclic", [3, 2, 3]),
           AdmissibleSequence("linear", (1, 2, 3)))
    yield (ModuleSum((Uniserial(2, 1), Uniserial(1, 1))),
           ModuleSum.of([Uniserial(1, 1), Uniserial(2, 1)]),
           ModuleSum((Uniserial(1, 1),)))
    yield OverCap(30), OverCap(30), OverCap(31)


def test_equality_and_hash_go_by_the_fields():
    for a, b, other in _copies():
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other and not a == other
        assert len({a, b, other}) == 2
        assert {a: 1}[b] == 1


def test_hash_is_the_hash_of_the_field_tuple():
    for u in MODULES:
        assert hash(u) == hash(_uni_key(u))
    for f in MAPS:
        assert hash(f) == hash((f.source, f.target, f.k))
    alg = AdmissibleSequence("cyclic", (3, 2, 3))
    assert hash(alg) == hash(("cyclic", (3, 2, 3)))
    s = ModuleSum((Uniserial(2, 1), Uniserial(1, 1)))
    assert hash(s) == hash((s.summands,))
    assert hash(OverCap(30)) == hash((30,))
    # so a set of modules iterates in the order of the set of int pairs
    pairs = [(i, l) for i in range(40, 0, -3) for l in range(1, 30, 4)]
    assert [_uni_key(u) for u in {Uniserial(*p) for p in pairs}] == list(set(pairs))


def test_order_goes_by_the_field_tuple():
    for values, key in ((MODULES, _uni_key), (MAPS, _map_key)):
        for a, b in product(values, repeat=2):
            assert (a < b) == (key(a) < key(b))
            assert (a <= b) == (key(a) <= key(b))
            assert (a > b) == (key(a) > key(b))
            assert (a >= b) == (key(a) >= key(b))
        shuffled = values[::-1][1::2] + values[::-1][::2]
        assert [key(x) for x in sorted(shuffled)] == sorted(map(key, values))
    assert ModuleSum(reversed(MODULES)).summands == tuple(MODULES)


def test_values_are_not_tuples():
    u = Uniserial(1, 2)
    f = HomMap(u, u, 2)
    for value, fields in ((u, (1, 2)), (f, (u, u, 2))):
        assert value != fields and not value == fields
        for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                        lambda a, b: a > b, lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(value, fields)
            with pytest.raises(TypeError):
                compare(fields, value)
        with pytest.raises(TypeError):
            json.dumps(value)
    with pytest.raises(TypeError):
        u < f
    assert OverCap(2) != 2 and ModuleSum((u,)) != (u,)
    assert AdmissibleSequence("cyclic", (2, 2)) != ("cyclic", (2, 2))


def test_reprs():
    assert repr(Uniserial(3, 12)) == "M(3,12)"
    assert (repr(HomMap(Uniserial(4, 4), Uniserial(1, 3), 1))
            == "Hom[M(4,4) -> M(1,3), k=1]")
    assert repr(OverCap(30)) == "OverCap(cap=30)" and str(OverCap(30)) == ">30"
    assert (repr(AdmissibleSequence("cyclic", (3, 2, 3)))
            == "AdmissibleSequence('cyclic', [3, 2, 3])")
    assert repr(ModuleSum((Uniserial(2, 1), Uniserial(1, 1)))) == "M(1,1) + M(2,1)"
    assert repr(ModuleSum(())) == "0"
    p = PropertyResult("p")
    p.record(False, "w")
    assert repr(p) == ("PropertyResult(name='p', checked=1, failed=1, "
                       "first_counterexample='w')")
    assert p == PropertyResult("p", 1, 1, "w") != PropertyResult("p")
    assert (repr(SuiteReport("s", [PropertyResult("q")]))
            == "SuiteReport(suite='s', properties=[PropertyResult(name='q', "
               "checked=0, failed=0, first_counterexample='')])")
    assert SuiteReport("s").properties == [] and SuiteReport("s") == SuiteReport("s", [])


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # pytest itself imports both, so only a fresh interpreter can tell
    src = os.path.dirname(os.path.dirname(nakayama.__file__))
    code = ("import nakayama, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
