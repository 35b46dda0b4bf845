"""The benchmark's workloads: inputs from a seed, one call per item, pinned checks.

A workload turns a seed into an ordered list of items (``generate``), runs one
item through the public API (``run``, the timed part) and compares each
output with the pinned value (``check``, untimed).  The seed fixes the item
order and, for ``classify-lifted``, the sample; the pins cover every item any
seed can produce, so a run on any seed is checked in full.
"""

import hashlib
import json
import random
from pathlib import Path

from nakayama import checks, core, endo, homology, oracle, sweeps, tilting

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# classify-grid: both kinds, n <= 5, c <= 9 (1,091 algebras)
GRID_N, GRID_C = 5, 9
# classify-lifted: difference classes (up to rotation) of cyclic sequences
# with n in 2..6 and c <= 6, each lifted by the least multiple of n that takes
# min c_i to LIFT_BASE + LIFT_STEP * level or above, so every lift lies in
# [200, 400).  Two items per (n, level) cell keep the sample's cost from
# depending on the seed.
LIFTED_N = range(2, 7)
LIFTED_C = 6
LIFT_BASE, LIFT_STEP, LIFT_LEVELS = 200, 40, 5
LIFTED_PER_CELL = 2           # items per (n, level) cell: 5 * 5 * 2 = 50
# endo-ladder: linear algebras with c_i = min(i, k)
LADDER = ((12, 5), (16, 6), (20, 6))
# oracle-grid: acceptance criterion 7's grid
ORACLE_N, ORACLE_C = 4, 6


def digest(text):
    """The pinned form of a classification: a 16-hex-digit sha256 prefix."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lift(c, level):
    """Add the least multiple of n that brings min(c) to at least the level's floor."""
    n = len(c)
    floor = LIFT_BASE + LIFT_STEP * level
    t = -(-(floor - min(c)) // n)
    return tuple(x + t * n for x in c)


def lifted_pool():
    """{n: sorted difference-class representatives, up to rotation}.

    Distinct representatives have distinct lifts, so a sample has no repeats.
    """
    return {n: sorted({sweeps.min_rotation(sweeps.difference_class_rep("cyclic", c))
                       for c in sweeps.generate_sequences("cyclic", n, LIFTED_C)})
            for n in LIFTED_N}


def ladder_algebra(n, k):
    return core.AdmissibleSequence("linear", tuple(min(i, k) for i in range(1, n + 1)))


class GridWorkload:
    """Items are algebras from checks.grid_algebras(n_max, c_max), in seeded order."""

    def generate(self, seed):
        algs = checks.grid_algebras(self.n_max, self.c_max)
        random.Random(seed).shuffle(algs)
        return algs

    def key(self, alg):
        return core.format_algebra(alg)

    def start(self):
        return None


class ClassifyGrid(GridWorkload):
    name = "classify-grid"
    n_max, c_max = GRID_N, GRID_C

    def run(self, alg, state):
        return json.dumps(tilting.classify(alg).json_dict(), sort_keys=True)

    def check(self, alg, out, pins):
        return pins["classify"].get(self.key(alg)) == digest(out)


class ClassifyLifted(ClassifyGrid):
    name = "classify-lifted"

    def generate(self, seed):
        rng = random.Random(seed)
        pool = lifted_pool()
        algs = [core.AdmissibleSequence("cyclic", lift(c, level))
                for n in LIFTED_N for level in range(LIFT_LEVELS)
                for c in rng.sample(pool[n], LIFTED_PER_CELL)]
        rng.shuffle(algs)
        return algs


class EndoLadder:
    """Per rung, one item builds End(T) for the canonical tilting module T, then
    one item per simple of End(T) computes its projective dimension."""

    name = "endo-ladder"

    def generate(self, seed):
        rng = random.Random(seed)
        rungs = list(LADDER)
        rng.shuffle(rungs)
        items = []
        for n, k in rungs:
            simples = list(range(n))   # End(T) has one simple per summand of T
            rng.shuffle(simples)
            items.append((n, k, None))
            items.extend((n, k, pos) for pos in simples)
        return items

    def key(self, item):
        n, k, pos = item
        return "%s#%s" % (core.format_algebra(ladder_algebra(n, k)),
                          "End" if pos is None else pos)

    def start(self):
        return {}

    def run(self, item, built):
        n, k, pos = item
        if pos is None:
            alg = ladder_algebra(n, k)
            b = endo.end_algebra(alg, tilting.canonical_tilting(alg))
            built[n, k] = b, endo.simple_modules(b)
            return b.dim
        b, simples = built[n, k]
        return str(endo.pd_over(b, simples[pos]))

    def check(self, item, out, pins):
        n, k, pos = item
        rung = pins["ladder"].get(core.format_algebra(ladder_algebra(n, k)))
        if rung is None:
            return False
        return out == (rung["dim_end"] if pos is None else rung["pd"][pos])


class OracleGrid(GridWorkload):
    name = "oracle-grid"
    n_max, c_max = ORACLE_N, ORACLE_C

    def run(self, alg, state):
        """[pairs, hom agreements, ext^1 agreements, sum of hom dims, sum of ext^1 dims]."""
        mods = core.indecomposables(alg)
        hom_ok = ext_ok = hom_sum = ext_sum = 0
        for u in mods:
            for v in mods:
                h = homology.hom_dim(alg, u, v)
                e = homology.ext_dim(alg, u, v, 1)
                hom_ok += h == oracle.oracle_hom_dim(alg, u, v)
                ext_ok += e == oracle.oracle_ext1_dim(alg, u, v)
                hom_sum += h
                ext_sum += e
        return [len(mods) ** 2, hom_ok, ext_ok, hom_sum, ext_sum]

    def check(self, alg, out, pins):
        return pins["oracle"].get(self.key(alg)) == out


WORKLOADS = {w.name: w for w in (ClassifyGrid(), ClassifyLifted(), EndoLadder(),
                                 OracleGrid())}


def inputs_digest(workload, items):
    """sha256 of the ordered item keys: equal digests mean the same items ran."""
    return hashlib.sha256("\n".join(workload.key(i) for i in items).encode()).hexdigest()


def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)
