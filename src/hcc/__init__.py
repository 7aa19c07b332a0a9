"""Exact mod-p homology of finite regular covers of presentation complexes,
lower bounds for the first homology of finite-index normal subgroups, and
Halperin-Carlsson verdicts with equality classification."""

from .errors import FalsificationError
from .fpexact import (
    MAX_PRIME,
    CapExceededError,
    ElementaryOp,
    FpMatrix,
    SnfResult,
    kernel_dim,
    rank,
    smith_normal_form,
)
from .groupring import (
    FiltrationProfile,
    GroupRingElement,
    GroupValidationError,
    OrderedGroup,
    augmentation,
    filtration_profile,
    is_balanced,
    make_cyclic,
    make_elementary_abelian,
    make_product,
    parse_group_table,
    ring_mul,
)
from .omega import (
    OmegaTable,
    check_inequality_suite,
    omega_by_alternating_sum,
    omega_by_convolution,
    omega_by_partitions,
    pi_value,
)
from .presentations import (
    ComplexSummary,
    FreeWord,
    Presentation,
    PresentationSyntaxError,
    complex_summary,
    fox_derivative,
    normalize_presentation,
    parse_presentation,
    reidemeister_schreier,
)
from .covers import (
    CoverComplex,
    HcVerdict,
    Homomorphism,
    IncompatibleHomomorphismError,
    build_cover,
    check_balance_pattern,
    equivariant_block,
    hc_verdict,
    parse_homomorphism,
)
from .bounds import (
    BoundReport,
    GrowthResult,
    GrowthStage,
    ThreeManifoldVerdict,
    bound_elementary_abelian,
    bound_general,
    growth_iterate,
    verdict_3manifold_z2,
    with_actual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
