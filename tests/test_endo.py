import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from nakayama import endo
from nakayama.checks import grid_algebras, run_suite
from nakayama.core import (
    INF,
    AdmissibleSequence,
    ModuleSum,
    Uniserial,
    format_algebra,
    format_module,
    indecomposables,
    injective,
    is_injective,
    projective,
    socle_vertex,
)
from nakayama.endo import (
    AlgebraModule,
    OverCap,
    drop_check,
    end_algebra,
    gldim_over,
    hom_module,
    module_endomorphisms,
    mueller_domdim,
    pd_over,
    projdim_key_check,
    radical_and_simples,
    regular_module,
    resolution_dims,
    simple_modules,
    syzygy_step,
)
from nakayama.homology import (
    HomMap,
    compose,
    cosyzygy,
    ext_dim,
    gldim,
    hom_dim,
    identity_hom,
    idim,
    pdim,
    simples,
)
from nakayama.linalg import kernel_basis
from nakayama.suites import broken_algebra_axiom, broken_module_axiom
from nakayama.tilting import (
    basic_gen_cogen,
    canonical_tilting,
    in_tilting_subcat,
    projective_injectives,
    tilting_criterion,
)

SHARP = AdmissibleSequence("cyclic", (3, 2, 3, 4, 3))
LIN5 = AdmissibleSequence("linear", (1, 2, 2, 2, 2))
A2 = AdmissibleSequence("linear", (1, 2))
TWO_AUS = AdmissibleSequence("cyclic", (2, 2, 3))

# More syzygy steps than any resolution of a simple module below takes; a
# syzygy_step whose syzygies never reach zero fails here instead of hanging.
STEP_CAP = 20


def gen_cogen(alg):
    return ModuleSum.of(sorted(
        {projective(alg, i) for i in range(1, alg.n + 1)}
        | {injective(alg, i) for i in range(1, alg.n + 1)}))


def test_end_algebra_dim_is_pairwise_hom_sum():
    for alg, x in [(A2, gen_cogen(A2)), (SHARP, canonical_tilting(SHARP)),
                   (SHARP, gen_cogen(SHARP))]:
        a = end_algebra(alg, x)
        assert a.dim == sum(hom_dim(alg, u, v) for u in x for v in x)
        assert len(a.idempotents) == len(x)


def test_end_algebra_frozen_dims():
    assert end_algebra(A2, gen_cogen(A2)).dim == 5
    assert end_algebra(SHARP, canonical_tilting(SHARP)).dim == 15
    assert end_algebra(LIN5, canonical_tilting(LIN5)).dim == 10


def test_end_algebra_rejects_bad_input():
    with pytest.raises(ValueError):
        end_algebra(A2, ModuleSum((Uniserial(1, 1), Uniserial(1, 1))))
    with pytest.raises(ValueError):
        end_algebra(A2, ModuleSum.of([]))


def test_end_algebra_rejects_a_non_canonical_composite(monkeypatch):
    # compose does not check its output; a wrong composite still stops the
    # build, by a failed lookup in the canonical Hom basis
    real = endo.compose

    def shifted(alg, f, g):
        h = real(alg, f, g)
        return None if h is None else HomMap(h.source, h.target, h.k + alg.n)

    monkeypatch.setattr(endo, "compose", shifted)
    for alg in (SHARP, LIN5, AdmissibleSequence("cyclic", (7, 7))):
        with pytest.raises(KeyError):
            end_algebra(alg, basic_gen_cogen(alg))


def test_single_projective_injective_is_commutative_chain():
    # n = 1, c = 4: End(P) is the truncated polynomial algebra of dim 4
    alg = AdmissibleSequence("cyclic", (4,))
    a = end_algebra(alg, Uniserial(1, 4))
    assert a.dim == 4
    for i in range(4):
        for j in range(4):
            assert a.table[i][j] == a.table[j][i]
    rad, _ = radical_and_simples(a)
    assert len(rad) == 3


def test_sum_of_simples_gives_product_of_fields():
    x = ModuleSum.of(simples(SHARP))
    a = end_algebra(SHARP, x)
    assert a.dim == 5
    rad, simp = radical_and_simples(a)
    assert len(rad) == 0
    assert len(simp) == 5


def test_radical_dims_frozen():
    assert len(radical_and_simples(end_algebra(A2, gen_cogen(A2)))[0]) == 2
    c22 = AdmissibleSequence("cyclic", (2, 2))
    lam = ModuleSum.of([projective(c22, 1), projective(c22, 2)])
    # radical dim = total dim minus one identity per summand
    assert len(radical_and_simples(end_algebra(c22, lam))[0]) == 2
    assert len(radical_and_simples(end_algebra(SHARP, canonical_tilting(SHARP)))[0]) == 10
    assert len(radical_and_simples(end_algebra(LIN5, canonical_tilting(LIN5)))[0]) == 5


def test_simples_are_one_dimensional():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    _, simp = radical_and_simples(a)
    assert [s.dim for s in simp] == [1] * len(a.summands)
    assert all(module_endomorphisms(a, s) == 1 for s in simp)


def test_hom_module_columns_are_projective():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    for u in a.summands:
        col = hom_module(a, u)
        assert col.dim == sum(hom_dim(SHARP, v, u) for v in a.summands)
        assert pd_over(a, col) == 0


def test_hom_module_zero_and_regular():
    a = end_algebra(A2, gen_cogen(A2))
    assert hom_module(a, None).dim == 0
    reg = regular_module(a)
    assert reg.dim == a.dim
    assert module_endomorphisms(a, reg) == a.dim


def test_pd_over_validates_cap():
    a = end_algebra(A2, gen_cogen(A2))
    with pytest.raises(ValueError):
        pd_over(a, regular_module(a), cap=0)
    with pytest.raises(ValueError):
        resolution_dims(a, regular_module(a), cap=-1)


def test_gldim_over_frozen():
    assert gldim_over(end_algebra(A2, gen_cogen(A2))) == 2
    assert gldim_over(end_algebra(LIN5, canonical_tilting(LIN5))) == 3
    assert gldim_over(end_algebra(SHARP, canonical_tilting(SHARP))) == 4


def test_gldim_over_infinite_reports_over_cap():
    c22 = AdmissibleSequence("cyclic", (2, 2))
    lam = ModuleSum.of([projective(c22, 1), projective(c22, 2)])
    g = gldim_over(end_algebra(c22, lam), cap=7)
    assert isinstance(g, OverCap)
    assert str(g) == ">7"


def test_resolution_dims_end_at_zero_for_finite_pd():
    a = end_algebra(LIN5, canonical_tilting(LIN5))
    for s in simple_modules(a):
        dims = resolution_dims(a, s)
        assert dims[0] == 1
        assert dims[-1] == 0
        assert len(dims) - 2 == pd_over(a, s)


def _rejects(check, *args):
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def _corrupt(rows, rng):
    """A copy of rows with one entry moved to another index or to None."""
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[i]))
    choices = [None] + list(range(len(rows[0])))
    choices.remove(rows[i][j])
    out = [list(r) for r in rows]
    out[i][j] = rng.choice(choices)
    return out


def test_axiom_check_rejects_what_the_pattern_checks_reject():
    # seeded single-entry corruptions of End(T) tables and of the simple and
    # regular modules over them, on every other algebra of grid_algebras(4, 6)
    # with a canonical tilting module
    rng = random.Random(2017)
    algebras = [end_algebra(alg, t) for alg in grid_algebras(4, 6)
                for t in [canonical_tilting(alg)] if t is not None][::2]
    assert len(algebras) == 45
    verdicts = {"algebra": set(), "module": set()}
    for a in algebras:
        table = a.table
        for _ in range(12):
            a.table = _corrupt(table, rng)
            verdicts["algebra"].add((_rejects(a._validate),
                                     broken_algebra_axiom(a) is not None))
        a.table = table
        for mod in simple_modules(a) + [regular_module(a)]:
            for _ in range(3):
                cols = _corrupt(mod.cols, rng)
                verdicts["module"].add((
                    _rejects(AlgebraModule, a, mod.labels, cols),
                    broken_module_axiom(a, mod.labels, cols) is not None))
    for seen in verdicts.values():
        # the axiom check rejects every table the pattern checks reject, and
        # keeps some and rejects more, so it neither passes nor fails all
        assert (True, False) not in seen
        assert {(True, True), (False, True), (False, False)} <= seen


def test_validators_reject_entries_off_composable_pairs():
    # the pattern checks of construction and the axiom check both reject
    # these; the axiom check does so through the units
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    basis, table = a.basis, a.table
    i, j = next((i, j) for i, f in enumerate(basis)
                for j, g in enumerate(basis) if f.target != g.source)
    k, l = next((k, l) for k, row in enumerate(table)
                for l, kl in enumerate(row)
                if kl is not None and basis[k].source != basis[l].source)
    for (r, c, value), match in [((i, j, i), "do not compose"),
                                 ((k, l, l), "wrong source or target")]:
        a.table = [list(row) for row in table]
        a.table[r][c] = value
        with pytest.raises(AssertionError, match=match):
            a._validate()
        assert broken_algebra_axiom(a) is not None
    a.table = table
    reg = regular_module(a)
    idem = set(a.idempotents)
    i, m = next((i, m) for i, f in enumerate(basis) if i not in idem
                for m, phi in enumerate(reg.labels) if f.target != phi.source)
    k, q = next((k, q) for k, col in enumerate(reg.cols) if k not in idem
                for q, kq in enumerate(col)
                if kq is not None and basis[k].source != reg.labels[q].source)
    for (r, c, value), match in [((i, m, m), "does not compose"),
                                 ((k, q, q), "wrong block")]:
        cols = [list(col) for col in reg.cols]
        cols[r][c] = value
        with pytest.raises(AssertionError, match=match):
            AlgebraModule(a, reg.labels, cols)
        assert broken_module_axiom(a, reg.labels, cols) is not None


def test_module_rejects_a_zero_step_under_a_nonzero_composite():
    # j . m set to zero while (i * j) . m stays nonzero: the pattern is
    # intact, so construction keeps the table and the axiom check rejects it
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    reg = regular_module(a)
    idem = set(a.idempotents)
    i, j, m = next(
        (i, j, m) for m in range(reg.dim) for j in range(a.dim)
        if j not in idem and reg.cols[j][m] is not None
        for i in range(a.dim)
        if a.table[i][j] is not None and reg.cols[a.table[i][j]][m] is not None)
    cols = [list(c) for c in reg.cols]
    cols[j][m] = None
    AlgebraModule(a, reg.labels, cols)
    assert broken_module_axiom(a, reg.labels, cols) == "action ignores the table"


def test_endo_suite_rejects_a_dropped_right_unit(monkeypatch):
    name = ("End(T) is associative with two-sided units, and its simples "
            "and Hom(T, Q) are modules")
    report = run_suite("endo")
    assert report.ok and report.properties[-1].name == name
    # the first End(T) table built over cyclic:2,2,3, the suite's own, loses
    # one nonzero product: a non-identity map times the identity of its target
    real, dropped = endo._product_table, []

    def drop_one(alg, lefts, rights, index):
        table = real(alg, lefts, rights, index)
        if alg == TWO_AUS and lefts is rights and not dropped:
            i, f = next((i, f) for i, f in enumerate(lefts)
                        if f != identity_hom(alg, f.source))
            table[i][index[identity_hom(alg, f.target)]] = None
            dropped.append(i)
        return table

    monkeypatch.setattr(endo, "_product_table", drop_one)
    axioms = run_suite("endo").properties[-1]
    assert (axioms.checked, axioms.failed) == (33, 1)
    assert axioms.first_counterexample == (
        "cyclic:2,2,3: right unit broken; action ignores the table")


def test_construction_runs_no_axiom_check(monkeypatch):
    # the axiom check belongs to the endo suite: building End(T) and a Hom
    # module composes each composable pair of basis maps exactly once, to
    # fill the table, building End(T) reads its table entries no more often
    # than there are such pairs, and building the simples composes nothing
    calls = []
    monkeypatch.setattr(endo, "compose",
                        lambda *args: calls.append(args) or compose(*args))
    product_table = endo._product_table

    def counted_rows(alg, lefts, rights, index):
        # End(T)'s own table only: a module's pattern check compares its
        # rows with lists, which a tuple row never equals
        table = product_table(alg, lefts, rights, index)
        return [_Counted(row) for row in table] if lefts is rights else table

    monkeypatch.setattr(endo, "_product_table", counted_rows)

    def composable(lefts, rights):
        return sum(f.target == g.source for f in lefts for g in rights)

    for alg in (SHARP, LIN5, TWO_AUS):
        _Counted.reads = 0
        b = end_algebra(alg, canonical_tilting(alg))
        assert len(calls) == composable(b.basis, b.basis) > 0, alg
        assert 0 < _Counted.reads <= len(calls), alg
        calls.clear()
        m = hom_module(b, basic_gen_cogen(alg))
        assert len(calls) == composable(b.basis, m.labels) > 0, alg
        calls.clear()
        simple_modules(b)
        assert calls == []


def test_block_index_of_the_basis():
    # over the 90 tilting algebras of grid_algebras(4, 6): into groups the
    # maps by target, the maps out of each summand are its source range, and
    # a product entry off that range is rejected by the pattern check, which
    # reads only the counts of None outside the range
    rng = random.Random(22)
    built = rejected = 0
    for alg in grid_algebras(4, 6):
        t = canonical_tilting(alg)
        if t is None:
            continue
        a = end_algebra(alg, t)
        built += 1
        assert a.into == tuple(
            tuple(i for i in range(a.dim) if a.target_pos[i] == pos)
            for pos in range(len(a.summands)))
        assert [list(r) for r in a.source_range] == [
            [i for i in range(a.dim) if a.source_pos[i] == pos]
            for pos in range(len(a.summands))]
        off = [(i, j) for i in range(a.dim) for j in range(a.dim)
               if j not in a.source_range[a.target_pos[i]]]
        if not off:
            continue
        i, j = rng.choice(off)
        table = a.table
        a.table = [list(row) for row in table]
        a.table[i][j] = rng.randrange(a.dim)
        with pytest.raises(AssertionError, match="do not compose"):
            a._validate()
        a.table = table
        rejected += 1
    assert (built, rejected) == (90, 84)


class _Counted(tuple):
    """A tuple that counts the entries read from it, over all instances."""

    reads = 0

    def __getitem__(self, i):
        _Counted.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for x in tuple.__iter__(self):
            _Counted.reads += 1
            yield x


def test_a_step_reads_only_the_maps_into_the_occupied_blocks():
    # the first step on each simple of End(T) reads the per-map positions
    # and product rows no more often than there are maps into the simple's
    # block and into the blocks its first syzygy occupies; dim End is 110,
    # and no block has more than 11 maps into it
    alg = AdmissibleSequence("linear", tuple(min(i, 6) for i in range(1, 21)))
    a = end_algebra(alg, canonical_tilting(alg))
    into = [[i for i, p in enumerate(a.target_pos) if p == pos]
            for pos in range(len(a.summands))]
    assert a.dim == 110 and max(map(len, into)) == 11
    simples = simple_modules(a)
    a.source_pos, a.target_pos = _Counted(a.source_pos), _Counted(a.target_pos)
    a.table = _Counted(a.table)
    for pos, s in enumerate(simples):
        mats = [s.action_matrix(i) for i in range(a.dim)]
        _Counted.reads = 0
        d, mats = syzygy_step(a, s.dim, mats)
        occupied = [p for p, e in enumerate(a.idempotents) if d and any(mats[e])]
        assert _Counted.reads <= len(into[pos]) + sum(
            len(into[p]) for p in occupied)
        assert d == resolution_dims(a, s, 1)[1]


def test_radical_step_is_the_first_syzygy_of_each_simple():
    # over End(T) of the 90 tilting algebras of grid_algebras(4, 6) and the
    # bench endo-ladder rungs, the syzygy of each simple read off the table
    # is syzygy_step's, dimension and every action column, and reading it
    # takes no more rows than there are maps into the simple's block and
    # into the blocks rad P occupies
    algs = [alg for alg in grid_algebras(4, 6)
            if canonical_tilting(alg) is not None]
    algs += [_ladder(n, k) for n, k in [(12, 5), (16, 6), (20, 6)]]
    checked = 0
    for alg in algs:
        a = end_algebra(alg, canonical_tilting(alg))
        a.source_pos, a.target_pos = _Counted(a.source_pos), _Counted(a.target_pos)
        a.table = _Counted(a.table)
        for pos, s in enumerate(simple_modules(a)):
            want = syzygy_step(a, s.dim, [s.action_matrix(i) for i in range(a.dim)])
            _Counted.reads = 0
            d, mats = endo._radical_step(a, pos)
            assert (d, mats) == want, (format_algebra(alg), pos)
            occupied = [p for p, e in enumerate(a.idempotents)
                        if d and any(mats[e])]
            assert _Counted.reads <= len(a.into[pos]) + sum(
                len(a.into[p]) for p in occupied)
            checked += 1
    assert (len(algs), checked) == (93, 351)


def test_radical_step_rejects_a_product_on_the_idempotent():
    # a product g * i of a radical map i into the simple's block that lands
    # on the block's idempotent fails the check syzygy_step makes on the cover
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    pos, i, g = next((pos, i, g) for pos, rad in enumerate(a.into)
                     for i in rad if i != a.idempotents[pos]
                     for g in a.into[a.source_pos[i]]
                     if a.table[g][i] is not None)
    a.table = [list(row) for row in a.table]
    a.table[g][i] = a.idempotents[pos]
    with pytest.raises(AssertionError, match="not action-stable"):
        endo._radical_step(a, pos)


def test_pd_over_simples_frozen_beyond_the_bench_ladder():
    # End(T) of linear min(i, 10), n = 40: dim 364, larger than any bench rung
    alg = AdmissibleSequence("linear", tuple(min(i, 10) for i in range(1, 41)))
    b = end_algebra(alg, canonical_tilting(alg))
    assert b.dim == 364
    assert [pd_over(b, s) for s in simple_modules(b)] == (
        [1] * 9 + [0, 1] + [2] * 9 + [3] + [4] * 9 + [5] + [6] * 9)


def test_syzygy_step_matches_resolution():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    s = simple_modules(a)[0]
    d, mats = s.dim, [s.action_matrix(i) for i in range(a.dim)]
    dims = [d]
    for _ in range(STEP_CAP):
        if not d:
            break
        d, mats = syzygy_step(a, d, mats)
        dims.append(d)
    assert not d, "no zero syzygy after %d steps" % STEP_CAP
    assert dims == resolution_dims(a, s)


def _dense(mats, d):
    """Sparse action columns as dense d x d matrices (rows of entries)."""
    out = []
    for cols in mats:
        mat = [[0] * d for _ in range(d)]
        for j, col in enumerate(cols):
            for r, x in col.items():
                mat[r][j] = x
        out.append(mat)
    return out


def _reference_product_table(alg, lefts, rights, index):
    """The all-pairs loop: every f in lefts against every g in rights."""
    table = []
    for f in lefts:
        row = []
        for g in rights:
            h = compose(alg, f, g) if f.target == g.source else None
            row.append(None if h is None else index[h])
        table.append(row)
    return table


def test_product_table_equals_the_all_pairs_loop():
    # End(T) and Hom(T, basic gen-cogen) over the 90 tilting algebras of
    # grid_algebras(4, 6)
    built = 0
    for alg in grid_algebras(4, 6):
        t = canonical_tilting(alg)
        if t is None:
            continue
        b = end_algebra(alg, t)
        assert b.table == _reference_product_table(alg, b.basis, b.basis, b.index)
        m = hom_module(b, basic_gen_cogen(alg))
        index = {phi: j for j, phi in enumerate(m.labels)}
        assert m.cols == _reference_product_table(alg, b.basis, m.labels, index)
        built += 1
    assert built == 90


def test_action_matrix_is_the_column_map_as_sparse_columns():
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    reg = regular_module(a)
    for i in range(a.dim):
        cols = reg.action_matrix(i)
        dense = _dense([cols], reg.dim)[0]
        assert dense == [[1 if reg.cols[i][j] == r else 0
                          for j in range(reg.dim)] for r in range(reg.dim)]


def test_syzygy_step_stores_no_zeros():
    # a stored zero would make "if col" take a zero column for a generator
    # candidate; every coordinate here is integral, so each is stored as an
    # int and the next step's eliminations stay on plain ints
    steps = 0
    for alg in (SHARP, LIN5):
        a = end_algebra(alg, canonical_tilting(alg))
        for s in simple_modules(a):
            d, mats = s.dim, [s.action_matrix(i) for i in range(a.dim)]
            for _ in range(STEP_CAP):
                if not d:
                    break
                d, mats = syzygy_step(a, d, mats)
                assert len(mats) == (a.dim if d else 0)
                for cols in mats:
                    assert len(cols) == d
                    for col in cols:
                        assert all(type(x) is int and x != 0
                                   for x in col.values())
                        assert set(col) <= set(range(d))
                steps += 1
            assert not d, "no zero syzygy after %d steps" % STEP_CAP
    assert steps == 28


def test_resolution_dims_digest():
    # the syzygy dimensions of every simple of End(T) over the 90 tilting
    # algebras of grid_algebras(4, 6) and four linear ladder rungs, pinned
    algs = [alg for alg in grid_algebras(4, 6)
            if canonical_tilting(alg) is not None]
    assert len(algs) == 90
    algs += [AdmissibleSequence("linear", tuple(min(i, k) for i in range(1, n + 1)))
             for n, k in [(12, 5), (16, 6), (20, 6), (30, 8)]]
    rows = []
    for alg in algs:
        b = end_algebra(alg, canonical_tilting(alg))
        rows.append([format_algebra(alg),
                     [resolution_dims(b, s) for s in simple_modules(b)]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == \
        "27c565dfcd1022e499f064b32a1170002ee18a09e0e375b28347fd0a9ec6951f"


class _Span:
    """Incremental row space over the rationals."""

    def __init__(self):
        self.rows = []   # reduced, each with leading pivot position

    def _reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for pivot, row in self.rows:
            if v[pivot]:
                coef = v[pivot]
                v = [a - coef * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self._reduce(vec)
        for pivot, x in enumerate(v):
            if x:
                self.rows.append((pivot, [a / x for a in v]))
                return True
        return False

    def copy(self):
        out = _Span()
        out.rows = list(self.rows)
        return out


def _coordinates(cols, vec):
    """The x with sum_c x[c] cols[c] = vec for independent columns, by
    Fraction Gauss-Jordan on [cols | vec]; None when vec is not in their
    span."""
    n = len(cols)
    rows = [[Fraction(col[r]) for col in cols] + [Fraction(vec[r])]
            for r in range(len(vec))]
    for c in range(n):
        hit = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[hit] = rows[hit], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[n] for row in rows[n:]):
        return None
    return [rows[c][n] for c in range(n)]


def _reference_syzygy_step(algebra, dim, mats):
    """syzygy_step with the kernel taken as its cleared integer basis and the
    coordinates of each image found by exact Fraction elimination."""
    if dim == 0:
        return 0, []
    idem = set(algebra.idempotents)
    rad = _Span()
    for i in range(algebra.dim):
        if i not in idem:
            for j in range(dim):
                col = [row[j] for row in mats[i]]
                if any(col):
                    rad.add(col)
    cover = []
    for pos, e in enumerate(algebra.idempotents):
        span = rad.copy()
        for j in range(dim):
            u = [row[j] for row in mats[e]]
            if any(u) and span.add(u):
                cover.extend((i, u) for i, f in enumerate(algebra.basis)
                             if f.target == algebra.summands[pos])
    theta = [[sum(mats[i][r][k] * u[k] for k in range(dim)) for i, u in cover]
             for r in range(dim)]
    kernel = kernel_basis(theta, len(cover)) if cover else []
    kd = len(kernel)
    if kd == 0:
        return 0, []
    new_mats = []
    for g in range(algebra.dim):
        cols = []
        for vec in kernel:
            out = [0] * len(cover)
            for p, x in enumerate(vec):
                i, u = cover[p]
                t = algebra.table[g][i]
                if x and t is not None:
                    out[cover.index((t, u))] += x
            coords = _coordinates(kernel, out)
            assert coords is not None
            cols.append(coords)
        new_mats.append([[cols[c][r] for c in range(kd)] for r in range(kd)])
    return kd, new_mats


def test_syzygy_step_equals_kernel_basis_and_solve_route():
    # every matrix of every resolution step, entry for entry
    rung = AdmissibleSequence("linear", tuple(min(i, 5) for i in range(1, 13)))
    steps = 0
    for alg in (SHARP, LIN5, rung):
        a = end_algebra(alg, canonical_tilting(alg))
        for s in simple_modules(a):
            d, mats = s.dim, [s.action_matrix(i) for i in range(a.dim)]
            for _ in range(STEP_CAP):
                if not d:
                    break
                want = _reference_syzygy_step(a, d, _dense(mats, d))
                d, mats = syzygy_step(a, d, mats)
                assert (d, _dense(mats, d)) == want
                steps += 1
            assert not d, "no zero syzygy after %d steps" % STEP_CAP
    assert steps == 60


def test_syzygy_step_rejects_a_non_module():
    # doubling one radical action entry of a first syzygy breaks the module
    # axioms, and an image of the cover kernel leaves the kernel
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    s = simple_modules(a)[0]
    d, mats = syzygy_step(a, s.dim, [s.action_matrix(i) for i in range(a.dim)])
    assert d == 4 and mats[12][3][2] == 1
    mats[12][3][2] *= 2
    with pytest.raises(AssertionError, match="action-stable"):
        syzygy_step(a, d, mats)


def _change_basis(mats, d, scale, shears=()):
    """The actions in the basis b'_j = scale[j] b_j, each (x, y, t) of shears
    then replacing b'_y by b'_y + t b'_x, as sparse columns."""
    out = []
    for mat in _dense(mats, d):
        mat = [[mat[r][j] * scale[j] / scale[r] for j in range(d)]
               for r in range(d)]
        for x, y, t in shears:
            for row in mat:
                row[y] += t * row[x]
            mat[x] = [u - t * v for u, v in zip(mat[x], mat[y])]
        out.append([{r: mat[r][j] for r in range(d) if mat[r][j]}
                    for j in range(d)])
    return out


def _resolve(a, d, mats, steps):
    """Syzygy dimensions over at most steps steps, and the set of types of
    the coordinates stored on the way."""
    dims, types = [d], set()
    for _ in range(steps):
        if not d:
            break
        d, mats = syzygy_step(a, d, mats)
        dims.append(d)
        types |= {type(x) for cols in mats for col in cols for x in col.values()}
    return dims, types


def test_syzygy_step_is_invariant_under_a_change_of_basis():
    # a diagonal change of basis with entries 2 and 1/3 puts Fraction entries
    # into the actions of a simple and of the regular module
    a = end_algebra(SHARP, canonical_tilting(SHARP))
    for m in (simple_modules(a)[0], regular_module(a)):
        scale = [Fraction(2) if j % 2 else Fraction(1, 3) for j in range(m.dim)]
        mats = _change_basis([m.action_matrix(i) for i in range(a.dim)],
                             m.dim, scale)
        assert all(type(x) is Fraction
                   for cols in mats for col in cols for x in col.values())
        assert _resolve(a, m.dim, mats, STEP_CAP)[0] == resolution_dims(a, m)
    # three shears, two of them mixing summand blocks, change which vectors
    # generate the cover of this Hom module, and its first syzygy then has
    # non-integral coordinates, stored as Fractions; the resolution is
    # periodic (11, 4, 6, 4, ...)
    alg = AdmissibleSequence("cyclic", (4, 4, 4, 5))
    a = end_algebra(alg, canonical_tilting(alg))
    m = hom_module(a, ModuleSum.of(
        [Uniserial(3, 4), Uniserial(4, 3), Uniserial(4, 5)]))
    shears = [(5, 0, Fraction(1, 3)), (6, 0, Fraction(-1)), (10, 8, Fraction(1, 3))]
    mats = _change_basis([m.action_matrix(i) for i in range(a.dim)], m.dim,
                         [Fraction(1)] * m.dim, shears)
    dims, types = _resolve(a, m.dim, mats, 6)
    assert dims == resolution_dims(a, m, 6)
    assert Fraction in types


def _ladder(n, k):
    return AdmissibleSequence("linear", tuple(min(i, k) for i in range(1, n + 1)))


def test_simple_dims_memo_changes_no_answer():
    # a warm algebra splices the stored resolutions of the simples that
    # gldim_over met, and its periodic walks repeat their period up to the
    # cap; at every cap both agree with plain steps on a fresh algebra
    algs = [alg for alg in grid_algebras(3, 5)
            if canonical_tilting(alg) is not None]
    algs += [AdmissibleSequence("cyclic", (3, 3, 4, 4)), _ladder(20, 6)]
    for alg in algs:
        t = canonical_tilting(alg)
        warm, fresh = end_algebra(alg, t), end_algebra(alg, t)
        gldim_over(warm)
        pairs = list(zip(simple_modules(warm), simple_modules(fresh)))[::-1]
        pairs.append((regular_module(warm), regular_module(fresh)))
        for m, ref in pairs:
            want = _resolve(fresh, ref.dim, [ref.action_matrix(i)
                                             for i in range(fresh.dim)], 8)[0]
            for cap in range(1, 9):
                assert resolution_dims(warm, m, cap) == want[:cap + 1]


def _count_steps(monkeypatch):
    """A list that gets the dimension of each module syzygy_step receives."""
    calls = []
    step = endo.syzygy_step

    def counted(algebra, dim, mats):
        calls.append(dim)
        return step(algebra, dim, mats)

    monkeypatch.setattr(endo, "syzygy_step", counted)
    return calls


def test_each_simple_is_resolved_once(monkeypatch):
    # each count is the number of steps with every simple resolved once; a
    # simple's own syzygy, rad P, is read off the table, so no step receives
    # a one-dimensional module
    calls = _count_steps(monkeypatch)
    eliminations = []
    reduce = endo.reduced_kernel

    def counted(mat, n):
        eliminations.append(n)
        return reduce(mat, n)

    monkeypatch.setattr(endo, "reduced_kernel", counted)
    alg = _ladder(40, 10)
    assert gldim_over(end_algebra(alg, canonical_tilting(alg))) == 6
    assert len(calls) == 47
    # each simple of End(T) of cyclic:40,40 is its own second syzygy
    alg = AdmissibleSequence("cyclic", (40, 40))
    b = end_algebra(alg, canonical_tilting(alg))
    assert gldim_over(b, 30) == OverCap(30)
    assert len(calls) == 47 + 1
    del eliminations[:]
    # the bench endo-ladder rungs, simples in shuffled order
    rng = random.Random(0)
    for n, k in [(12, 5), (16, 6), (20, 6)]:
        alg = _ladder(n, k)
        b = end_algebra(alg, canonical_tilting(alg))
        simples = simple_modules(b)
        rng.shuffle(simples)
        for s in simples:
            pd_over(b, s)
    assert len(calls) == 47 + 1 + 56
    assert 1 not in calls
    # by Nakayama's lemma a projective syzygy is told by its cover's size,
    # so only half the bench steps eliminate
    assert len(eliminations) == 28


def test_a_dropped_generator_raises_and_answers_nothing_wrong(monkeypatch):
    # a pivot pass that drops its last pivot loses a generator of the cover;
    # the kernel's size then contradicts Nakayama's lemma and the step
    # raises instead of resolving a smaller module
    algs = [alg for alg in grid_algebras(3, 5)
            if canonical_tilting(alg) is not None]
    want = [gldim_over(end_algebra(alg, canonical_tilting(alg)))
            for alg in algs]
    pivots = endo.pivot_columns
    monkeypatch.setattr(endo, "pivot_columns",
                        lambda dense: pivots(dense)[:-1])
    raised = 0
    for alg, value in zip(algs, want):
        try:
            got = gldim_over(end_algebra(alg, canonical_tilting(alg)))
        except AssertionError as e:
            assert str(e) == "the cover's generators do not generate"
            raised += 1
        else:
            assert got == value
    assert raised


def test_drop_check_frozen():
    assert drop_check(SHARP) == {
        "gldim": 4, "gldim_endo": 4, "pd_tau": 4, "holds": True}
    assert drop_check(LIN5) == {
        "gldim": 4, "gldim_endo": 3, "pd_tau": 0, "holds": True}
    assert drop_check(TWO_AUS) == {
        "gldim": 3, "gldim_endo": 3, "pd_tau": 3, "holds": True}


def test_drop_check_preconditions():
    with pytest.raises(ValueError):
        drop_check(AdmissibleSequence("cyclic", (2, 2, 2)))  # infinite gldim
    with pytest.raises(ValueError):
        drop_check(AdmissibleSequence("cyclic", (2, 3, 3)))  # no tilting module


def test_drop_check_grid():
    # every finite-gldim algebra with a canonical tilting module satisfies
    # the drop equivalence, and the endo gldim sits in [gldim-1, gldim]
    from itertools import product
    for kind, n, cmax in [("cyclic", 3, 5), ("cyclic", 4, 4), ("linear", 4, 4)]:
        for c in product(range(1, cmax + 1), repeat=n):
            try:
                alg = AdmissibleSequence(kind, c)
            except ValueError:
                continue
            if gldim(alg) == INF or not tilting_criterion(alg):
                continue
            rec = drop_check(alg)
            assert rec["holds"] is True
            assert rec["gldim"] - 1 <= rec["gldim_endo"] <= rec["gldim"]


def test_mueller_frozen():
    assert mueller_domdim(A2, gen_cogen(A2)) == 2
    c22 = AdmissibleSequence("cyclic", (2, 2))
    lam = ModuleSum.of([projective(c22, 1), projective(c22, 2)])
    assert mueller_domdim(c22, lam) == INF
    assert mueller_domdim(SHARP, basic_gen_cogen(SHARP)) == 2


def test_mueller_requires_gen_cogen():
    with pytest.raises(ValueError):
        mueller_domdim(SHARP, canonical_tilting(SHARP))
    with pytest.raises(ValueError):
        mueller_domdim(A2, ModuleSum((Uniserial(2, 2), Uniserial(2, 2))))


def test_module_arguments_read_a_list_as_its_sum():
    x = basic_gen_cogen(SHARP)
    t = canonical_tilting(SHARP)
    b = end_algebra(SHARP, x)
    for as_list in (lambda m: list(reversed(list(m))), tuple):
        assert end_algebra(SHARP, as_list(x)).json_dict() == b.json_dict()
        h, g = hom_module(b, t), hom_module(b, as_list(t))
        assert (h.labels, h.cols) == (g.labels, g.cols)
        assert mueller_domdim(SHARP, as_list(x)) == mueller_domdim(SHARP, x)
        assert in_tilting_subcat(SHARP, as_list(t))
    for call in (end_algebra, mueller_domdim, pdim, lambda _, m: hom_module(b, m)):
        with pytest.raises(ValueError, match=r"got str 'M\(1,2\)'"):
            call(SHARP, "M(1,2)")


def _all_gen_cogens(alg, cap=64):
    base = gen_cogen(alg)
    rest = sorted(set(
        Uniserial(i, l) for i in range(1, alg.n + 1)
        for l in range(1, alg.c[i - 1] + 1)) - set(base.summands))
    out = []
    for mask in range(1 << len(rest)):
        extra = [rest[k] for k in range(len(rest)) if mask >> k & 1]
        out.append(ModuleSum.of(base.summands + tuple(extra)))
        if len(out) >= cap:
            break
    return out


def test_mueller_hereditary_always_two():
    # non-semisimple hereditary: every generator-cogenerator yields 2
    for n in (2, 3, 4):
        alg = AdmissibleSequence("linear", tuple(range(1, n + 1)))
        for x in _all_gen_cogens(alg):
            assert mueller_domdim(alg, x) == 2


def test_mueller_at_least_two_and_antitone():
    rng = random.Random(7)
    for alg in (SHARP, TWO_AUS, AdmissibleSequence("cyclic", (3, 3, 3))):
        xs = _all_gen_cogens(alg, cap=16)
        for x in xs:
            assert mueller_domdim(alg, x) >= 2
        for _ in range(10):
            x, y = rng.sample(xs, 2)
            big = ModuleSum.of(sorted(set(x.summands) | set(y.summands)))
            assert mueller_domdim(alg, x) >= mueller_domdim(alg, big)


def test_mueller_bounded_by_injective_dim():
    # non-selfinjective with finite left injective dimension m:
    # every generator-cogenerator stays within m + 1
    for alg in (A2, LIN5, TWO_AUS, SHARP):
        m = max(idim(alg, projective(alg, i)) for i in range(1, alg.n + 1))
        assert m != INF
        for x in _all_gen_cogens(alg, cap=8):
            assert mueller_domdim(alg, x) <= m + 1


def test_br_dimension_identity():
    # End over B_C of the projective-injective column sum has the same
    # dimension as End(Q-tilde) over the base algebra
    for alg in (SHARP, LIN5, TWO_AUS):
        b = end_algebra(alg, canonical_tilting(alg))
        q = projective_injectives(alg)
        r = hom_module(b, q)
        want = sum(hom_dim(alg, u, v) for u in q for v in q)
        assert module_endomorphisms(b, r) == want
    q = projective_injectives(SHARP)
    assert sum(hom_dim(SHARP, u, v) for u in q for v in q) == 7


def test_projdim_key_frozen():
    # S_4 is a summand of the canonical tilting module: pd 1 upstairs, 0 over B_C
    assert pdim(SHARP, Uniserial(4, 1)) == 1
    t = canonical_tilting(SHARP)
    b = end_algebra(SHARP, t)
    assert projdim_key_check(b, t, Uniserial(4, 1)) is True
    assert pdim(SHARP, Uniserial(1, 2)) == 2
    assert projdim_key_check(b, t, Uniserial(1, 2)) is True
    assert pd_over(b, hom_module(b, Uniserial(1, 2))) == 1


def test_projdim_key_across_grid():
    from itertools import product
    checked = 0
    for kind, n, cmax in [("cyclic", 3, 6), ("cyclic", 4, 4), ("linear", 4, 4)]:
        for c in product(range(1, cmax + 1), repeat=n):
            try:
                alg = AdmissibleSequence(kind, c)
            except ValueError:
                continue
            if not tilting_criterion(alg) or gldim(alg) == INF:
                continue
            t = canonical_tilting(alg)
            b = end_algebra(alg, t)
            for i in range(1, n + 1):
                if not is_injective(alg, projective(alg, i)):
                    continue
                for l in range(1, alg.c[i - 1] + 1):
                    m = Uniserial(i, l)
                    p = pdim(alg, m)
                    if p == INF or p < 1:
                        continue
                    assert projdim_key_check(b, t, m) is True
                    checked += 1
    assert checked >= 50


def test_projdim_key_preconditions():
    t = canonical_tilting(SHARP)
    b = end_algebra(SHARP, t)
    with pytest.raises(ValueError):
        projdim_key_check(b, t, Uniserial(4, 4))   # projective: pd 0
    with pytest.raises(ValueError):
        projdim_key_check(b, t, Uniserial(2, 1))   # cover not injective
    no_t = AdmissibleSequence("cyclic", (2, 3, 3))
    with pytest.raises(ValueError, match="no canonical tilting module"):
        projdim_key_check(end_algebra(no_t, basic_gen_cogen(no_t)),
                          canonical_tilting(no_t), Uniserial(1, 1))
    # End of a module other than the canonical T gives no verdict
    with pytest.raises(ValueError, match="canonical tilting"):
        projdim_key_check(end_algebra(SHARP, basic_gen_cogen(SHARP)), t,
                          Uniserial(1, 2))


def test_envelope_quotient_dimension_bookkeeping():
    # dim Hom(X, I0(Xj)/Xj) = dim Hom(X, I0(Xj)) - dim Hom(X, Xj) + ext^1(X, Xj)
    # for every non-injective summand; the correction term drops exactly when
    # X is rigid, which makes the plain envelope-quotient description of the
    # canonical tilting summands valid at dimension level.
    cases = [(A2, gen_cogen(A2)), (SHARP, basic_gen_cogen(SHARP)),
             (SHARP, canonical_tilting(SHARP)), (LIN5, canonical_tilting(LIN5)),
             (TWO_AUS, canonical_tilting(TWO_AUS))]
    for alg, x in cases:
        for xj in x:
            if is_injective(alg, xj):
                continue
            env = injective(alg, socle_vertex(alg, xj))
            quot = cosyzygy(alg, xj)
            assert quot is not None
            d_env = sum(hom_dim(alg, a, env) for a in x)
            d_xj = sum(hom_dim(alg, a, xj) for a in x)
            d_q = sum(hom_dim(alg, a, quot) for a in x)
            e1 = sum(ext_dim(alg, a, xj, 1) for a in x)
            assert d_q == d_env - d_xj + e1
            if e1 == 0:
                assert d_q == d_env - d_xj


def test_envelope_quotient_literal_form_can_overshoot():
    # over linear [1,2] with X = Lambda + D(Lambda) the quotient description
    # overshoots the true cosyzygy dimension by ext^1(X, S_1) = 1
    x = gen_cogen(A2)
    s1 = Uniserial(1, 1)
    env = injective(A2, 1)
    d_env = sum(hom_dim(A2, a, env) for a in x)
    d_s1 = sum(hom_dim(A2, a, s1) for a in x)
    d_q = sum(hom_dim(A2, a, cosyzygy(A2, s1)) for a in x)
    assert (d_env, d_s1, d_q) == (2, 1, 2)
    assert sum(ext_dim(A2, a, s1, 1) for a in x) == 1
    assert d_q == d_env - d_s1 + 1


def test_tilting_rigidity_gives_literal_summand_dims():
    # for X = T_C the non-projective-injective summands of the canonical
    # tilting module over End(T_C) have dims Hom(T_C, I0(Xj)) - Hom(T_C, Xj)
    t = canonical_tilting(SHARP)
    got = {}
    for xj in t:
        if is_injective(SHARP, xj):
            continue
        env = injective(SHARP, socle_vertex(SHARP, xj))
        got[xj] = (sum(hom_dim(SHARP, a, env) for a in t)
                   - sum(hom_dim(SHARP, a, xj) for a in t))
        assert got[xj] == sum(hom_dim(SHARP, a, cosyzygy(SHARP, xj)) for a in t)
    assert got == {Uniserial(4, 1): 2, Uniserial(4, 2): 1}


def test_structure_constants_json_shape():
    a = end_algebra(A2, gen_cogen(A2))
    d = a.json_dict()
    assert set(d) == {"dim", "idempotents", "basis", "table"}
    assert d["dim"] == 5
    assert len(d["idempotents"]) == 3
    assert all(len(row) == 3 and isinstance(row[2], int) for row in d["basis"])
    for i, j, tgt, coef in d["table"]:
        assert coef == 1
        assert a.table[i][j] == tgt
    nonzero = sum(1 for row in a.table for v in row if v is not None)
    assert len(d["table"]) == nonzero


def test_module_endomorphisms_of_tilting_columns():
    # End over B_C of the full column module Hom(T_C, T_C) is B_C itself
    b = end_algebra(SHARP, canonical_tilting(SHARP))
    assert module_endomorphisms(b, regular_module(b)) == b.dim


def test_module_endomorphisms_digest():
    # dim End over B = End(T) of Hom(T, M) for every indecomposable M over the
    # 90 tilting algebras of grid_algebras(4, 6), in grid order; pinned before
    # the equations moved into linalg.intertwiner_system
    vals = []
    for alg in grid_algebras(4, 6):
        t = canonical_tilting(alg)
        if t is None:
            continue
        b = end_algebra(alg, t)
        vals += [(format_algebra(alg), format_module(m),
                  module_endomorphisms(b, hom_module(b, m)))
                 for m in indecomposables(alg)]
    assert len(vals) == 1199
    assert hashlib.sha256(repr(vals).encode()).hexdigest()[:16] == "39e39fe560ceb76e"


def test_a_periodic_walk_costs_nothing_per_step_of_the_cap():
    # every simple of End(T) of cyclic:3,3 is periodic; pd_over answers from
    # the period, and only resolution_dims repeats it up to the cap
    alg = AdmissibleSequence("cyclic", (3, 3))
    b = end_algebra(alg, canonical_tilting(alg))
    tracemalloc.start()
    try:
        assert gldim_over(b, 10**5) == OverCap(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    dims = resolution_dims(b, simple_modules(b)[0], 40)
    assert len(dims) == 41 and all(dims)
