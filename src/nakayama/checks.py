"""Algebra families, suite results, the oracle counts that the `oracle`
suite and command share, the suite names, and `run_suite`, which checks a
suite's parameters and runs it.  The suites live in `suites`, which
`run_suite` imports on first use, so neither `import nakayama` nor the CLI's
start-up compiles them.
"""

import random

from .core import (
    KINDS,
    AdmissibleSequence,
    format_algebra,
    format_module,
    indecomposables,
)
from .homology import ext_dim, hom_dim
from .oracle import oracle_ext1_dim, oracle_hom_dim
from .sweeps import generate_sequences, random_algebra


class PropertyResult:
    __slots__ = ("name", "checked", "failed", "first_counterexample")

    def __init__(self, name, checked=0, failed=0, first_counterexample=""):
        self.name = name
        self.checked = checked
        self.failed = failed
        self.first_counterexample = first_counterexample

    def _key(self):
        return (self.name, self.checked, self.failed, self.first_counterexample)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        return ("PropertyResult(name=%r, checked=%r, failed=%r, first_counterexample=%r)"
                % self._key())

    def record(self, ok, witness):
        self.checked += 1
        if not ok:
            self.failed += 1
            if not self.first_counterexample:
                self.first_counterexample = witness

    @property
    def ok(self):
        return self.checked > 0 and self.failed == 0

    def status(self):
        if not self.checked:
            return "FAIL (nothing checked)"
        if self.ok:
            return "ok (%d checked)" % self.checked
        return "FAIL (%d of %d) first counterexample: %s" % (
            self.failed, self.checked, self.first_counterexample)

    def line(self):
        return "%s: %s" % (self.name, self.status())


class SuiteReport:
    __slots__ = ("suite", "properties")

    def __init__(self, suite, properties=None):
        self.suite = suite
        self.properties = [] if properties is None else properties

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.suite, self.properties) == (other.suite, other.properties)
        return NotImplemented

    def __repr__(self):
        return "SuiteReport(suite=%r, properties=%r)" % (self.suite, self.properties)

    @property
    def ok(self):
        return all(p.ok for p in self.properties)

    def lines(self):
        return [p.line() for p in self.properties]


def grid_algebras(n_max, c_max):
    out = []
    for kind in KINDS:
        for n in range(1, n_max + 1):
            for c in generate_sequences(kind, n, c_max):
                out.append(AdmissibleSequence(kind, c))
    return out


def _draws(rng, n_max, c_max):
    """Random algebras from rng, without end: each draws a kind, then n in
    1..n_max, then the sequence by random_algebra."""
    while True:
        kind = rng.choice(KINDS)
        yield random_algebra(rng, kind, rng.randint(1, n_max), c_max)


def random_algebras(count, n_max, c_max, seed):
    draws = _draws(random.Random(seed), n_max, c_max)
    return [next(draws) for _ in range(count)]


def _oracle_counts(alg):
    """(pairs, hom, ext1) over all pairs of indecomposables of alg.

    hom and ext1 are each (mismatches, first mismatch) for their own kind.
    """
    mods = indecomposables(alg)
    hom_bad = ext_bad = 0
    hom_witness = ext_witness = ""
    for u in mods:
        for v in mods:
            if hom_dim(alg, u, v) != oracle_hom_dim(alg, u, v):
                hom_bad += 1
                hom_witness = hom_witness or "%s hom %s -> %s" % (
                    format_algebra(alg), format_module(u), format_module(v))
            if ext_dim(alg, u, v, 1) != oracle_ext1_dim(alg, u, v):
                ext_bad += 1
                ext_witness = ext_witness or "%s ext1 %s -> %s" % (
                    format_algebra(alg), format_module(u), format_module(v))
    return len(mods) ** 2, (hom_bad, hom_witness), (ext_bad, ext_witness)


# the names of the suites in `suites.SUITES`, sorted, so that the CLI can
# offer them without compiling the suites
SUITE_NAMES = ("drop", "endo", "it", "oracle", "structural", "tilting")

# the suite parameters that `nakayama check` has flags for
CHECK_FLAGS = ("samples", "seed", "n_max", "c_max", "cap")

# lower bounds in the suites that draw random algebras, the ones taking
# samples: random_algebra needs a vertex and an entry of at least 2 to draw
SAMPLED_MINIMA = {"samples": 0, "n_max": 1, "c_max": 2}


def flag(param):
    """A suite parameter spelled as a flag of `nakayama check`: n_max is --n-max."""
    return "--" + param.replace("_", "-")


def run_suite(name, **params):
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r; available: %s" % (
            name, ", ".join(SUITE_NAMES)))
    # imported here so that `import nakayama` does not compile the suites
    from .suites import SUITES

    suite = SUITES[name]
    accepted = suite.__code__.co_varnames[:suite.__code__.co_argcount]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError("suite %s takes no flag %s; it accepts: %s" % (
            name, ", ".join(map(flag, unknown)), ", ".join(map(flag, accepted))))
    # checked before any work, and a resolution over End(T) takes a step
    minima = dict(SAMPLED_MINIMA if "samples" in accepted else {}, cap=1)
    for p, low in minima.items():
        if params.get(p, low) < low:
            raise ValueError("suite %s needs %s >= %d, got %d" % (
                name, flag(p), low, params[p]))
    return suite(**params)
