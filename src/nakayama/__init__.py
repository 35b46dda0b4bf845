"""Exact toolkit for Nakayama algebras: uniserial modules, homological
invariants, canonical tilting/cotilting modules, endomorphism algebras,
and enumeration of admissible sequences."""

from types import ModuleType as _ModuleType

from .core import (
    INF,
    AdmissibleSequence,
    ModuleSum,
    Uniserial,
    dual,
    format_algebra,
    format_module,
    indecomposables,
    injective,
    is_injective,
    is_projective,
    make_module,
    opposite,
    parse_algebra,
    parse_module,
    parse_module_sum,
    projective,
    socle_vertex,
    tau,
    tau_inv,
    validate,
)
from .homology import (
    HomMap,
    compose,
    cosyzygy,
    domdim,
    domdim_module,
    ext_dim,
    gldim,
    gorenstein_dim,
    hom_basis,
    hom_dim,
    identity_hom,
    idim,
    idim_table,
    pdim,
    pdim_table,
    simples,
    syzygy,
)
from .oracle import MatrixRep, oracle_ext1_dim, oracle_hom_dim
from .tilting import (
    ClassificationReport,
    basic_gen_cogen,
    canonical_cotilting,
    canonical_tilting,
    classify,
    gldim_drop_conditions,
    igusa_todorov,
    in_tilting_subcat,
    pd_tau_tilting,
    projective_injectives,
    split_projective_vertices,
    syzygy_correspondence,
    tilting_criterion,
    verify_cotilting,
    verify_tilting,
)
from .sweeps import (
    SweepSpec,
    difference_class_rep,
    generate_sequences,
    is_absolutely_elementary,
    is_elementary,
    min_rotation,
    random_algebra,
    sweep,
)
from .endo import (
    AlgebraModule,
    OverCap,
    StructureConstantAlgebra,
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
)
from .checks import SuiteReport, run_suite

# every public name imported above; the submodules are bound too, by the
# imports themselves, and are not exported
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
