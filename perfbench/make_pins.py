"""Regenerate perfbench/pins.json from the current package.

    PYTHONPATH=src python3 perfbench/make_pins.py

Pins are the reference the benchmark checks every output against, so only
regenerate them on a commit whose outputs are trusted, and say so in the
change that does it.  Every item any seed can produce is pinned: all of
classify-grid and oracle-grid, every (difference class, level) lift of
classify-lifted, and every simple of every endo-ladder rung.  Takes a few
minutes.
"""

import json

from nakayama import core, endo, tilting
from workloads import (LADDER, LIFT_LEVELS, PINS_PATH, WORKLOADS, digest, ladder_algebra,
                       lift, lifted_pool)


def main():
    grid = WORKLOADS["classify-grid"]
    lifted = [core.AdmissibleSequence("cyclic", lift(c, level))
              for cs in lifted_pool().values() for c in cs
              for level in range(LIFT_LEVELS)]
    classify = {grid.key(a): digest(grid.run(a, None))
                for a in grid.generate(0) + lifted}

    og = WORKLOADS["oracle-grid"]
    oracle = {og.key(a): og.run(a, None) for a in og.generate(0)}

    ladder = {}
    for n, k in LADDER:
        alg = ladder_algebra(n, k)
        b = endo.end_algebra(alg, tilting.canonical_tilting(alg))
        ladder[core.format_algebra(alg)] = {
            "dim_end": b.dim,
            "pd": [str(endo.pd_over(b, s)) for s in endo.simple_modules(b)],
            "gldim_over": str(endo.gldim_over(b)),
        }

    write_pins({"classify": classify, "ladder": ladder, "oracle": oracle})


def write_pins(sections):
    """One pin per line, so a re-pin diffs item by item."""
    blocks = []
    for name, pins in sections.items():
        rows = ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                          for k, v in sorted(pins.items()))
        blocks.append("%s: {\n%s\n}" % (json.dumps(name), rows))
    with open(PINS_PATH, "w") as f:
        f.write("{\n%s\n}\n" % ",\n".join(blocks))


if __name__ == "__main__":
    main()
