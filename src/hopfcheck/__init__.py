"""Symbolic verification of GL(2)-type quantum group identities.

Builds the quantum groups G(A,B), their bi-Galois objects G(A,B|C,D) and the
companion SL_q machinery as truncated noncommutative Groebner presentations,
then machine-checks Hopf axioms, resolutions, chain diagrams, Nakayama
automorphisms and bialgebra cohomology with exact rational arithmetic.
"""

from .foundation import (
    Mat,
    MonomialOrder,
    NCPoly,
    TensorPoly,
    frac,
    frac_str,
    genericity_check,
    matrix_invariants,
)
from .rewrite import RewriteSystem, complete_truncated
from .hopf import (
    AlgebraMap,
    Character,
    LocalizedElement,
    PresentedAlgebra,
    a_q_matrix,
    antipode_squared_sovereign,
    build_gab,
    build_gabcd,
    build_glq,
    build_slq,
    build_slq_laurent,
    cogroupoid_suite,
    commutation_check,
    glq_slq_laurent_iso,
    hopf_structure,
    nakayama_G,
    nakayama_galois,
    seeded_pair,
    verify_hopf_axioms,
    winding,
)
from .ydmod import (
    Comodule,
    boxtimes_coact,
    build_comodule,
    check_boxtimes_yd,
    check_yd_morphism,
    hom_to_trivial,
)
from .complexes import (
    ChainMap,
    Complex,
    FreeModuleMap,
    build_glq_complexes,
    build_left_resolution,
    build_slq_resolution,
    build_twist_chainmap,
    build_yd_resolution,
    dualize_resolution,
    gamma_identity_suite,
    laurent_cone,
    probe_exactness,
)
from .cohomology import bialgebra_cohomology, gs_dimension_report
from .cli import emit_report, run_config

__version__ = "0.1.0"
