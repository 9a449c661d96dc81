"""liespec: weighted Lie algebra contractions and spectral-growth checks.

Exact-arithmetic core (brackets, filtrations, reduced bases, graded
contractions, homogeneous dimension) plus numerical verification of spectral
counting growth, heat traces, multiplier bound functionals, Sobolev-type
embedding witnesses and Gaussian heat-kernel envelopes on three concrete
backends: flat tori, the 3-dimensional Heisenberg group and SU(2).
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module

from .catalog import CatalogEntry, abelian, catalog_names, engel4, heisenberg
from .catalog import resolve as resolve_catalog
from .catalog import se2, sl2r, so3, su2
from .estimates import (
    AnnuliReport,
    DyadicSeriesBound,
    EnvelopeFit,
    GaussianParams,
    VolumeModel,
    annuli_integral_check,
    dyadic_series_bound,
    fit_gaussian_envelope,
    gaussian_envelope,
)
from .forms import (
    Form,
    RocklandScreenReport,
    adjoint,
    heisenberg_rockland_check,
    is_homogeneous,
    is_symmetric,
    order_compatibility,
    principal_part,
    rockland_power_form,
    sublaplacian_form,
)
from .lie_core import (
    ExactnessError,
    JacobiReport,
    LieAlgebra,
    NilpotencyReport,
    Subspace,
    as_fraction,
    as_vector,
    span,
)
from .weighted import (
    Filtration,
    GradedLieAlgebra,
    WeightedBasis,
    build_filtration,
    check_grading,
    contract,
    filtration_law_holds,
    homogeneous_dimension,
    is_algebraic_basis,
    is_reduced,
    isomorphic_to_heisenberg1,
    rational_lcm,
    reduce_basis,
    weighted_length,
)

# The numerical lab (numpy and scipy) loads on first use of one of its names
# (PEP 562), so `import liespec` and the exact core start without it.  Each
# access reads the name from liespec.spectral afresh and nothing is cached
# here, so a name patched there is the name seen here.
_SPECTRAL = frozenset({
    "EmbeddingWitnessReport", "GrowthReport", "MultiplierSpec", "PowerFit",
    "QuadratureError", "SpectralBackend", "counting_function",
    "fit_power_exponent", "h1_counting_constant", "h1_heat_kernel",
    "heat_lp_lq_bound", "heat_trace_l2", "make_backend",
    "multiplier_norm_bound", "su2_sublaplacian_spectrum",
    "torus_embedding_witness", "verify_growth",
})

__all__ = [
    # submodules
    "catalog", "estimates", "forms", "lie_core", "spectral", "weighted",
    # catalog
    "CatalogEntry", "abelian", "catalog_names", "engel4", "heisenberg",
    "resolve_catalog", "se2", "sl2r", "so3", "su2",
    # estimates
    "AnnuliReport", "DyadicSeriesBound", "EnvelopeFit", "GaussianParams",
    "VolumeModel", "annuli_integral_check", "dyadic_series_bound",
    "fit_gaussian_envelope", "gaussian_envelope",
    # forms
    "Form", "RocklandScreenReport", "adjoint", "heisenberg_rockland_check",
    "is_homogeneous", "is_symmetric", "order_compatibility", "principal_part",
    "rockland_power_form", "sublaplacian_form",
    # lie_core
    "ExactnessError", "JacobiReport", "LieAlgebra", "NilpotencyReport",
    "Subspace", "as_fraction", "as_vector", "span",
    # weighted
    "Filtration", "GradedLieAlgebra", "WeightedBasis", "build_filtration",
    "check_grading", "contract", "filtration_law_holds",
    "homogeneous_dimension", "is_algebraic_basis", "is_reduced",
    "isomorphic_to_heisenberg1", "rational_lcm", "reduce_basis",
    "weighted_length",
    # spectral, resolved by __getattr__
    *sorted(_SPECTRAL),
]


def __getattr__(name: str):
    if name == "spectral" or name in _SPECTRAL:
        # sys.modules first: a lab loop pays this on every access
        spectral = (_sys.modules.get(__name__ + ".spectral")
                    or _import_module(".spectral", __name__))
        return spectral if name == "spectral" else getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
