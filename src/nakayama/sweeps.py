"""Enumeration of admissible sequences and batch classification sweeps."""

from collections import namedtuple

from .core import check_kind, rotation_normal_form, validate
from .tilting import ClassificationReport, _classify, classify

REPORT_KEYS = ClassificationReport._fields

CSV_COLUMNS = ("kind", "n", "c", "gldim", "domdim", "gdim",
               "selfinjective", "auslander", "one_AG", "tilting_exists")


class SweepSpec(namedtuple("SweepSpec", (
        "kind", "n", "max_c", "filters", "up_to_rotation", "elementary",
        "absolutely_elementary", "row_cap"))):
    __slots__ = ()

    def __new__(cls, kind, n, max_c, filters=(), up_to_rotation=False,
                elementary=False, absolutely_elementary=False,
                row_cap=0):   # row_cap 0 = unlimited
        self = super().__new__(cls, kind, n, max_c, filters, up_to_rotation,
                               elementary, absolutely_elementary, row_cap)
        check_kind(self.kind)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.max_c < (2 if self.kind == "cyclic" else 1):
            raise ValueError("max_c too small for any admissible sequence")
        if self.row_cap < 0:
            raise ValueError("row_cap must be at least 0 (0 = unlimited), got %d"
                             % self.row_cap)
        for f in self.filters:
            if f not in REPORT_KEYS:
                raise ValueError("unknown filter %r; choose from report keys" % f)
        return self


def generate_sequences(kind, n, max_c):
    """Yield every admissible sequence with entries bounded by max_c,
    depth-first, which is lexicographic order without repeats."""
    check_kind(kind)
    if n < 1:
        raise ValueError("n must be at least 1")
    linear = kind == "linear"
    # start from the least sequence; each step raises the last entry that is
    # below its bound (max_c, and the entry before it plus one) and resets
    # every entry after it to 2, the least value any entry after c_1 takes
    c = [1 if linear else 2] + [2] * (n - 1)
    if max(c) > max_c:
        return
    while True:
        if linear or c[0] <= c[-1] + 1:
            yield tuple(c)
        i = n - 1
        while i > 0 and (c[i] >= max_c or c[i] > c[i - 1]):
            i -= 1
        if i == 0 and (linear or c[0] >= max_c):
            return
        c[i] += 1
        c[i + 1:] = [2] * (n - 1 - i)


def min_rotation(c):
    return rotation_normal_form(c)[0]


def difference_class_rep(kind, c):
    """Subtract n from every entry as often as admissibility allows."""
    check_kind(kind)
    n = len(c)
    t = (min(c) - 2) // n if kind == "cyclic" else 0
    return tuple(c) if t == 0 else tuple(x - t * n for x in c)


def is_elementary(c):
    return min(c) <= len(c) + 1


def is_absolutely_elementary(c):
    return min(c) == 2


def random_algebra(rng, kind, n, c_max):
    """Seeded admissible sequence; wraps violating the cyclic closing
    inequality are rejected and redrawn."""
    while True:
        c = [1] if kind == "linear" else [rng.randint(2, c_max)]
        for _ in range(n - 1):
            c.append(rng.randint(2, min(c_max, c[-1] + 1)))
        if kind == "linear" or c[0] <= c[-1] + 1:
            return validate(kind, c)


def sweep(spec):
    """Classify, in lexicographic order, the generated sequences that each
    set flag keeps, until row_cap rows pass the filters: `elementary` keeps
    min c <= n + 1 (the sequences that are their own
    `difference_class_rep`), `absolutely_elementary` min c = 2,
    `up_to_rotation` those that are their own `min_rotation` (all linear
    ones).  Returns (rows, truncated), truncated marking a hit row_cap; a
    capped sweep generates only what it classifies.
    """
    seqs = generate_sequences(spec.kind, spec.n, spec.max_c)
    if spec.elementary:
        seqs = filter(is_elementary, seqs)
    if spec.absolutely_elementary:
        seqs = filter(is_absolutely_elementary, seqs)
    compute = classify
    if spec.up_to_rotation:
        # each class is met once, so classify's table could only grow
        seqs = (c for c in seqs if min_rotation(c) == c)
        compute = _classify
    rows = []
    for c in seqs:
        rep = compute(validate(spec.kind, c))
        if all(getattr(rep, f) for f in spec.filters):
            rows.append(rep)
            if len(rows) == spec.row_cap:
                return rows, True
    return rows, False


def csv_row(rep):
    def b(x):
        return "true" if x else "false"

    gdim = str(rep.gdim) if rep.gdim is not None else "na"
    return (rep.kind, str(len(rep.c)), ",".join(map(str, rep.c)),
            str(rep.gldim), str(rep.domdim), gdim,
            b(rep.selfinjective), b(rep.auslander),
            b(rep.one_aus_gorenstein), b(rep.tilting_exists))
