"""Bulk property suites over algebra grids and random samples.

Each suite runs a deterministic family of checks and reports per-property
counts plus the first counterexample, so a failure pinpoints the algebra and
module that broke the claim.  The same suites back `nakayama check` and the
acceptance tests.  `checks.run_suite` imports this module when a suite first
runs, so `import nakayama` does not load it.
"""

import random
from itertools import combinations

from .checks import (
    PropertyResult,
    SuiteReport,
    _draws,
    _oracle_counts,
    grid_algebras,
    random_algebras,
)
from .core import (
    INF,
    AdmissibleSequence,
    ModuleSum,
    Uniserial,
    format_algebra,
    format_module,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    opposite,
    projective,
    socle_vertex,
)
from .endo import (
    OverCap,
    _drop_record,
    end_algebra,
    gldim_over,
    hom_module,
    module_endomorphisms,
    mueller_domdim,
    projdim_key_check,
    radical_and_simples,
)
from .homology import (
    cosyzygy,
    domdim,
    ext_dim,
    gldim,
    hom_dim,
    idim_table,
    pdim,
    pdim_table,
    simples,
    syzygy,
)
from .tilting import (
    _subcat_split,
    basic_gen_cogen,
    canonical_cotilting,
    canonical_tilting,
    classify,
    gldim_drop_conditions,
    igusa_todorov,
    in_tilting_subcat,
    pd_tau_tilting,
    projective_injectives,
    syzygy_correspondence,
    tilting_criterion,
    verify_cotilting,
    verify_tilting,
)


def suite_tilting(samples=10000, seed=42, n_max=8, c_max=12):
    props = [PropertyResult(n) for n in (
        "criterion equals domdim >= 2",
        "criterion equals syzygy bijection",
        "syzygy correspondence maps X injectively into the projectives",
        "criterion equals verified tilting",
        "tilting summands lie in the subcategory",
        "cotilting verifies when tilting exists",
        "no small tilting module when criterion fails",
    )]
    by_domdim, by_bijection, into, by_tilting, t_members, cotilts, no_small = props
    # n_max and c_max bound every algebra checked: the samples, the grid
    # slice and the exhaustive slice below; each distinct algebra of the
    # slice and the samples is checked once, in first-seen order
    algebras = grid_algebras(min(5, n_max), min(7, c_max))
    algebras += random_algebras(samples, n_max, c_max, seed)
    for alg in dict.fromkeys(algebras):
        w = format_algebra(alg)
        crit = tilting_criterion(alg)
        by_domdim.record(crit == (domdim(alg) >= 2), w)
        x, omega, bij = syzygy_correspondence(alg)
        by_bijection.record(crit == bij, w)
        into.record(len(set(omega.values())) == len(x) and all(
            v is not None and is_projective(alg, v) for v in omega.values()), w)
        t = canonical_tilting(alg)
        by_tilting.record(crit == (t is not None and verify_tilting(alg, t)), w)
        if t is not None:
            t_members.record(in_tilting_subcat(alg, t), w)
            cotilts.record(verify_cotilting(alg, canonical_cotilting(alg)), w)
    # exhaustive non-existence on a small slice: when the criterion fails,
    # no n-subset of pd<=1 subcategory members is a tilting module
    for alg in grid_algebras(min(3, n_max), min(5, c_max)):
        if tilting_criterion(alg):
            continue
        _, _, member = _subcat_split(alg)
        pds = pdim_table(alg)
        cands = [u for u in pds if member(u) and pds[u] <= 1]
        found = any(
            verify_tilting(alg, ModuleSum.of(combo))
            for combo in combinations(cands, alg.n))
        no_small.record(not found, format_algebra(alg))
    return SuiteReport("tilting", props)


def suite_oracle(n_max=4, c_max=6):
    hom_prop = PropertyResult("hom dimension matches matrix oracle")
    ext_prop = PropertyResult("ext^1 dimension matches matrix oracle")
    for alg in grid_algebras(n_max, c_max):
        pairs, *counts = _oracle_counts(alg)
        for prop, (bad, witness) in zip((hom_prop, ext_prop), counts):
            prop.checked += pairs
            prop.failed += bad
            prop.first_counterexample = prop.first_counterexample or witness
    return SuiteReport("oracle", [hom_prop, ext_prop])


def suite_structural(n_max=5, c_max=7):
    props = [PropertyResult(n) for n in (
        "pd and id at most gldim minus one inside the subcategory",
        "ext^1 from pd-one modules into the subcategory vanishes",
        "subcategory membership matches quotient/submodule witnesses",
        "projectives in the subcategory are injective and dually",
        "cover and envelope of subcategory members stay in it",
        "dominant dimension is opposite-symmetric",
        "finite gldim forces Gorenstein dim equal and attained",
        "projective-injective count plus pd-one members is at most n",
        "tilting-cotilting equals 1-Auslander-Gorenstein",
        "syzygy and cosyzygy are uniserial or zero",
        "ext vanishes beyond the projective dimension",
        # the properties from here on hold on every algebra of the grid
        "vertices with c_{i+1} <= c_i are those with injective projective",
        "canonical tilting is the projective-injectives plus cosyzygies "
        "of the other projectives",
        "canonical tilting and cotilting are basic with n summands",
        "opposite is an involution preserving sum(c)",
        "selfinjective iff dominant dimension is infinite",
        "Auslander implies 1-Auslander-Gorenstein",
        "finite one-sided selfinjective dimensions agree",
    )]
    (dims_bound, ext_pd_one, witnessed, proj_inj, closed, dd_symmetric,
     gorenstein, pi_count, tc_is_1ag, uniserial, ext_beyond, pi_vertices,
     t_shape, basic_n, involution, selfinj_dd, aus_1ag, sides) = props
    for alg in grid_algebras(n_max, c_max):
        w = format_algebra(alg)
        rep = classify(alg)
        q, split, member = _subcat_split(alg)
        # injectivity by the envelope, not by the inequality the split reads
        envelope = {j: injective(alg, j) for j in range(1, alg.n + 1)}
        pi_vertices.record(
            q == {u.top for u in envelope.values() if is_projective(alg, u)}, w)
        op = opposite(alg)
        involution.record(opposite(op) == alg and sum(op.c) == sum(alg.c), w)
        selfinj_dd.record(rep.selfinjective == (rep.domdim == INF), w)
        aus_1ag.record(not rep.auslander or rep.one_aus_gorenstein, w)
        sides.record(INF in (rep.id_left, rep.id_right)
                     or rep.id_left == rep.id_right, w)
        if not rep.tilting_exists:
            continue

        qs = [projective(alg, j) for j in sorted(q)]
        alt = qs + [cosyzygy(alg, projective(alg, i)) for i in split]
        t_shape.record(rep.t_c == ModuleSum.of(alt), w)
        basic_n.record(all(len(m) == alg.n and m.is_basic()
                           for m in (rep.t_c, rep.c_c)), w)
        gl = rep.gldim
        mods = indecomposables(alg)
        pds = pdim_table(alg)
        members = {u for u in mods if member(u)}
        ids = idim_table(alg) if gl != INF else {}
        if gl != INF and gl >= 1:
            # the bound is empty for semisimple algebras, where every module
            # has pd 0 and the subcategory is everything
            dims_bound.record(all(pds[u] <= gl - 1 and ids[u] <= gl - 1
                                  for u in members), w)
        pd_one = [y for y in mods if pds[y] == 1]
        ext_pd_one.record(all(ext_dim(alg, y, x, 1) == 0
                              for y in pd_one for x in members), w)
        # Gen and Cogen of the projective-injectives: quotients and submodules
        quotients = {Uniserial(p.top, l) for p in qs for l in range(1, p.length + 1)}
        submodules = {Uniserial(alg.normalize(p.top - p.length + l), l)
                      for p in qs for l in range(1, p.length + 1)}
        witnessed.record(members == quotients & submodules, w)
        proj_inj.record({u for u in members if is_projective(alg, u)}
                        == {u for u in members
                            if envelope[socle_vertex(alg, u)] == u}, w)
        closed.record(all(projective(alg, u.top) in members
                          and envelope[socle_vertex(alg, u)] in members
                          for u in members), w)
        dd_symmetric.record(rep.domdim == domdim(op), w)
        if gl != INF:
            top = max(ids[projective(alg, i)] for i in range(1, alg.n + 1))
            gorenstein.record(rep.gdim == gl and top == gl, w)
        pi_count.record(len(q) + sum(pds[u] == 1 for u in members) <= alg.n, w)
        tc_is_1ag.record(rep.tilting_cotilting == rep.one_aus_gorenstein, w)
        uniserial.record(all(
            m is None or isinstance(m, Uniserial)
            for u in mods for m in (syzygy(alg, u), cosyzygy(alg, u))), w)
        sims = simples(alg)
        ext_beyond.record(all(ext_dim(alg, u, v, p + d) == 0
                              for u, p in pds.items() if p != INF
                              for v in sims for d in (1, 2)), w)
    return SuiteReport("structural", props)


def _over_cap(witness, cap):
    """Witness for a check left undecided because an End(T) resolution ran
    past the cap; it counts as a failure, since nothing was shown."""
    return "%s (endo resolution over cap %d)" % (witness, cap)


def _tilting_algebras(n_max, c_max):
    """(alg, T, End(T)) for each algebra of grid_algebras(n_max, c_max) with
    finite gldim and a canonical tilting module T, in grid order."""
    for alg in grid_algebras(n_max, c_max):
        if gldim(alg) == INF or not tilting_criterion(alg):
            continue
        t = canonical_tilting(alg)
        yield alg, t, end_algebra(alg, t)


def suite_drop(cap=30, n_max=6, c_max=8):
    holds = PropertyResult("gldim drop equivalence")
    bounds = PropertyResult("endo gldim within one of gldim")
    agree = PropertyResult("the four drop conditions agree")
    for alg, t, b in _tilting_algebras(n_max, c_max):
        w = format_algebra(alg)
        rec = _drop_record(gldim(alg), gldim_over(b, cap), pd_tau_tilting(alg, t))
        if rec["holds"] is None:
            holds.record(False, _over_cap(w, cap))
        else:
            holds.record(rec["holds"], w)
            bounds.record(
                rec["gldim"] - 1 <= rec["gldim_endo"] <= rec["gldim"], w)
        agree.record(len(set(gldim_drop_conditions(alg, t).values())) == 1, w)
    return SuiteReport("drop", [holds, bounds, agree])


def broken_module_axiom(algebra, labels, cols):
    """The first module axiom that cols breaks over algebra, or None: the
    unit decomposition, then i . (j . m) == (i * j) . m on every basis
    triple, where cols[i][j] is the index of basis[i] . labels[j] or None."""
    a, t = algebra, algebra.table
    src = [a.summand_position(phi.source) for phi in labels]
    for pos, e in enumerate(a.idempotents):
        if cols[e] != [j if p == pos else None for j, p in enumerate(src)]:
            return "unit decomposition broken"
    for i in range(a.dim):
        for j in range(a.dim):
            ij = t[i][j]
            for m in range(len(labels)):
                step = cols[j][m]
                composite = cols[i][step] if step is not None else None
                direct = cols[ij][m] if ij is not None else None
                if composite != direct:
                    return "action ignores the table"
    return None


def broken_algebra_axiom(algebra):
    """The first algebra axiom that algebra's table breaks, or None.  The
    regular module's axioms are associativity, orthogonal idempotents and
    left units; with them, i * e == i for the idempotent e at i's target
    makes the units two-sided."""
    t, idem = algebra.table, algebra.idempotents
    for i, p in enumerate(algebra.target_pos):
        if t[i][idem[p]] != i:
            return "right unit broken"
    return broken_module_axiom(algebra, algebra.basis, t)


def suite_endo(seed=42, cap=30):
    dims = PropertyResult("small endomorphism algebra dimensions")
    hered = PropertyResult("hereditary generator-cogenerators give value 2")
    antitone = PropertyResult("mueller value antitone in the summand set")
    br = PropertyResult("column endomorphisms match base-side dimensions")
    key = PropertyResult("hom transport drops projective dimension by one")
    radical = PropertyResult(
        "trace-form radical is spanned by the non-identity maps")
    axioms = PropertyResult(
        "End(T) is associative with two-sided units, and its simples and "
        "Hom(T, Q) are modules")

    a2 = AdmissibleSequence("linear", (1, 2))
    x = basic_gen_cogen(a2)
    a = end_algebra(a2, x)
    dims.record(a.dim == 5, "linear:1,2")
    g = gldim_over(a, cap)
    dims.record(g == 2, "linear:1,2" if not isinstance(g, OverCap)
                else _over_cap("linear:1,2", cap))
    dims.record(mueller_domdim(a2, x) == 2, "linear:1,2")

    rng = random.Random(seed)
    for n in (2, 3, 4):
        alg = AdmissibleSequence("linear", tuple(range(1, n + 1)))
        base = basic_gen_cogen(alg)
        others = sorted(set(indecomposables(alg)) - set(base.summands))
        picks = [[]]
        picks += [rng.sample(others, rng.randint(1, len(others)))
                  for _ in range(7) if others]
        for extra in picks:
            xs = ModuleSum.of(sorted(set(base.summands) | set(extra)))
            hered.record(mueller_domdim(alg, xs) == 2,
                         "%s + %d extras" % (format_algebra(alg), len(extra)))

    for alg in (AdmissibleSequence("cyclic", (3, 2, 3, 4, 3)),
                AdmissibleSequence("cyclic", (2, 2, 3)),
                AdmissibleSequence("cyclic", (3, 3, 3))):
        base = basic_gen_cogen(alg)
        others = sorted(set(indecomposables(alg)) - set(base.summands))
        small = base
        for _ in range(6):
            extra = rng.sample(others, rng.randint(0, len(others))) if others else []
            big = ModuleSum.of(sorted(set(small.summands) | set(extra)))
            antitone.record(
                mueller_domdim(alg, small) >= mueller_domdim(alg, big),
                format_algebra(alg))

    for alg, t, b in _tilting_algebras(4, 6):
        name = format_algebra(alg)
        rad, simple = radical_and_simples(b)
        radical.record(len(rad) == b.dim - len(b.summands)
                       and not any(v[e] for v in rad for e in b.idempotents),
                       name)
        q = projective_injectives(alg)
        hq = hom_module(b, q)
        want = sum(hom_dim(alg, u, v) for u in q for v in q)
        br.record(module_endomorphisms(b, hq) == want, name)
        broken = [why for why in [broken_algebra_axiom(b)] + [
            broken_module_axiom(b, m.labels, m.cols) for m in simple + [hq]]
            if why]
        axioms.record(not broken, "%s: %s" % (name, "; ".join(broken)))
        for i in range(1, alg.n + 1):
            if not is_injective(alg, projective(alg, i)):
                continue
            for l in range(1, alg.c[i - 1] + 1):
                m = Uniserial(i, l)
                p = pdim(alg, m)
                if p == INF or p < 1:
                    continue
                w = "%s %s" % (format_algebra(alg), format_module(m))
                ok = projdim_key_check(b, t, m, cap)
                key.record(ok is True, w if ok is not None else _over_cap(w, cap))
    return SuiteReport("endo", [dims, hered, antitone, br, key, radical, axioms])


def suite_it(samples=1000, seed=42, n_max=6, c_max=8):
    match = PropertyResult("both functions equal pd on finite-pd sums")
    base = PropertyResult("selfinjective simples give (0, 0)")
    c22 = AdmissibleSequence("cyclic", (2, 2))
    base.record(
        igusa_todorov(c22, ModuleSum.of(simples(c22))) == (0, 0), "cyclic:2,2")
    rng = random.Random(seed)
    for alg in _draws(rng, n_max, c_max):
        if match.checked >= samples:
            break
        # never empty: the projectives have pd 0
        pds = pdim_table(alg)
        finite = [u for u in pds if pds[u] != INF]
        picks = rng.sample(finite, rng.randint(1, min(len(finite), alg.n + 2)))
        m = ModuleSum.of(sorted(set(picks)))
        p = max(pds[u] for u in m)
        match.record(igusa_todorov(alg, m) == (p, p),
                     "%s %s" % (format_algebra(alg), m))
    return SuiteReport("it", [match, base])


SUITES = {
    "tilting": suite_tilting,
    "oracle": suite_oracle,
    "structural": suite_structural,
    "drop": suite_drop,
    "endo": suite_endo,
    "it": suite_it,
}
