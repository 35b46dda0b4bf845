"""Pinned CLI output: the sha256 of stdout, stderr and exit code per argv.

A refactor of the command-line front end must leave every digest unchanged.
To re-pin after a deliberate output change, print `_digest(argv)` for each
argv and say in the change log which outputs moved and why.
"""

import contextlib
import hashlib
import io

import pytest

from nakayama.cli import build_parser, main

GOLDEN = [
    ("classify --cyclic 3,2,3,4,3".split(),
     "9873fda58c1c05023700a8c28eeca01b2dbd064564e1fd4d6a4e1a3c9aed40b4"),
    ("classify --cyclic 3,2,3,4,3 --json".split(),
     "cd13654e3b4e889d65bae932619c01ce57ea3f0ff6542c5bc5e0fa34dee1ea2c"),
    ("classify --cyclic 3,2,3,4,3 --csv".split(),
     "ddbfbb52d2fe91c25e7ea77e34b396c65e8f04301b05afa02fdd090042f34091"),
    ("classify --cyclic 2,2".split(),
     "e158001b972efa9969e5e92ae17179ad3baa83b4449a3778c612406926007a3a"),
    ("classify --cyclic 2,2 --json".split(),
     "5f315f25f45f7a32228b769e2d5707a2699723bbbc0fe08ca241a1b97b186bfe"),
    ("classify --linear 1,2,2".split(),
     "955877fea2f87f44db113d2ae2e522bf6f87682a5430ec08b95a37b10b429320"),
    ("classify --cyclic 2,4,2".split(),
     "bd203d66cb2cd93d9879286223b9718227e4ffb8eee041515c80c1b7cbddf37e"),
    ("tilting --cyclic 3,2,3,4,3".split(),
     "61342b2b83bfc054d0eb3915d8e06343911d71bfdb28145bfc1248802bf6930d"),
    ("tilting --cyclic 3,2,3,4,3 --json".split(),
     "dd49e0fa41a184a0e8e842517d2333092c2d5c576d34347b7a7f43e64f9ef613"),
    ("tilting --cyclic 2,3,3".split(),
     "0c6325c6ad38101990ed2bfdf286fd6257e7b71c3120b5de2a80e36514418ff5"),
    ("tilting --cyclic 2,3,3 --json".split(),
     "33b71a5c4335f4cad2d165c7996f516d3b347fd5d02debaadac7e47f945eb11a"),
    ("tilting --linear 1,2,2".split(),
     "d1827c9c7f33f0ab7a9906ed6ed0d57e42e40942d28fca218ad85f6f817bcf22"),
    ("endo --linear 1,2,2,2,2".split(),
     "d501299542fa91385000aefc924d889ab06a261e0c67a8100ba015c25f2217a9"),
    ("endo --linear 1,2,2,2,2 --json".split(),
     "0a01570392dff62027403237a21e93e2c65ff81368809e6d7455b8c06d66ed9a"),
    ("endo --cyclic 2,2 --cap 4".split(),
     "cc72c29740244d4db58adcc201e7e2423758cb527d6537030355683617c535fb"),
    ("endo --cyclic 2,2 --cap 4 --json".split(),
     "2c9faa12770ade338ba8941fb85e14df681501238b333e96214de4a637997ba1"),
    ("endo --cyclic 2,3,3".split(),
     "617ec126b0387c6bc07da8e796a0fbce99c62ecbf7fb2d35f4dc8afa6ff7e168"),
    ("enumerate --kind cyclic -n 2 --max-c 3".split(),
     "9656503b6ced80ba8cca88be66df41597a7dbf43cf6c85f6f634171ad0c5442a"),
    ("enumerate --kind cyclic -n 2 --max-c 3 --json".split(),
     "a186197f5fd505685f094ed3d01742a5f2ed437676b9aea1ce241282798e59bd"),
    ("enumerate --kind cyclic -n 2 --max-c 3 --csv".split(),
     "45289474f97ad6dc717c65b66722853260c3377cbcd7ce6c213a978c5ec8408e"),
    ("enumerate --kind linear -n 3 --max-c 3 --row-cap 2".split(),
     "03598c7672ad0c4205ae2416d539ebdc1f98266f3102e7f79c1a59660e456c10"),
    ("check --suite it --samples 20".split(),
     "3b1a1ec98599a11760055f32050209c9c4355872062923024cf6a7b9b1f8179a"),
    ("check --suite it --samples 20 --json".split(),
     "2edd5355874a4168ab437436dc73d051eba93a886f9a5a99f32acd92a051db7d"),
    ("oracle --cyclic 2,2,3".split(),
     "8c005c149a3c892b3dc0c450a9311b8be20f9990412c10e2174e72801fde3de4"),
    ("oracle --cyclic 2,2,3 --json".split(),
     "0f4b21b0efb7f6d508f45f81a7e8e1d33fcb47747b1b59208839b82a9b812eaa"),
    # without an algebra, oracle is `check --suite oracle`, so its output
    # ends with the suite verdict line
    ("oracle --n-max 2 --c-max 4".split(),
     "d6736e734b6cb2d966b633b3aa95c07bc3f70df647371875354c1bb20219e660"),
    ("oracle --n-max 0".split(),
     "b7452babb62fda4fae94c53f7693173ad451658be104d46a9d5f1c5fd7c7414e"),
]


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = "%s\0%s\0%d" % (out.getvalue(), err.getvalue(), code)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_matches_pinned_digest(argv, digest):
    assert _digest(argv) == digest


def test_golden_argvs_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if a.dest == "command")
    assert set(sub.choices) == {argv[0] for argv, _ in GOLDEN}
