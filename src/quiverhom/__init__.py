"""Exact homological algebra for representations of finite quivers by finite
Z/n-modules: canonical maps, purity, fp-injectivity classification,
Gorenstein certificates, and a seeded theorem-verification harness."""

from .znmod import (
    FinMod,
    ModHom,
    ModSES,
    Modulus,
    canonical_chain,
    cyclic,
    free_mod,
    hom_group,
    is_injective_module,
    is_pure_module_ses,
    is_split,
    matlis_dual,
    matlis_dual_hom,
    present,
    zero_mod,
)
from .quiver import (
    Quiver,
    Path,
    is_left_rooted,
    is_right_rooted,
    make_quiver,
    opposite,
    paths_between,
    root_sequence,
)
from .rep import (
    RepMorphism,
    RepSES,
    Representation,
    adjunction_check,
    dual_rep,
    hom_reps,
    phi,
    psi,
    restrict,
    right_adjoint,
    stalk,
    tensor_order,
)
from .purity import (
    definitional_purity_check,
    is_pure_mono_rep,
    is_pure_rep_ses,
)
from .homology import (
    ext,
    ext1_extension_count,
    projective_generator,
    totally_acyclic_injective_complex,
)
from .classify import (
    classify_flat,
    classify_fp_injective,
    classify_gorenstein_sfp,
    classify_injective,
    classify_projective,
    classify_strongly_fp_injective,
    definitional_sfp_check,
    membership_psi_class,
)
from .harness import Config, TrialReport, run_all, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
