"""Modular data of affine SU(n), level-rank duality, simple-current
extensions, and verification of three central-charge-24 holomorphic
spectra (entries 18, 27 and 40 of the standard list)."""

from .catalogs import (
    CatalogError,
    ExtensionCatalog,
    catalog,
    inclusion_table,
    mirror_mu,
    mirror_spectrum,
    verify_catalog,
)
from .extensions import (
    BranchingTable,
    LocalityError,
    LocalSystem,
    coupling_matrix,
    extension_index,
    find_local_system,
    induced_hom,
    is_simple_current,
    monodromy_trivial,
    mu_after,
    quadratic_form_consistency,
    simple_current_spectrum,
    verify_coupling,
)
from .level_one import e6_level_one, level_one_datum, spin_level_one, su_level_one
from .level_rank import (
    PairingError,
    PairingTable,
    branching_pairs,
    dual_weight,
    exp_set,
    transpose_weight,
    vacuum_pairing,
)
from .modular import (
    ModularDatum,
    NumericalIntegrityError,
    SectorVector,
    central_charge,
    s_matrix,
    sun_datum,
)
from .products import ProductTheory, UnsupportedFusionError, tensor_product
from .reporting import CheckResult, VerificationReport, report_emit
from .verifier import (
    ConstructionError,
    HolomorphicConstruction,
    build_entry,
    reference_spectrum,
    verify_all,
    verify_entry,
)
from .weights import AffineWeight, enumerate_weights, weight_from_text

__version__ = "0.1.0"

__all__ = [
    "AffineWeight",
    "BranchingTable",
    "CatalogError",
    "CheckResult",
    "ConstructionError",
    "ExtensionCatalog",
    "HolomorphicConstruction",
    "LocalSystem",
    "LocalityError",
    "ModularDatum",
    "NumericalIntegrityError",
    "PairingError",
    "PairingTable",
    "ProductTheory",
    "SectorVector",
    "UnsupportedFusionError",
    "VerificationReport",
    "branching_pairs",
    "build_entry",
    "catalog",
    "central_charge",
    "coupling_matrix",
    "dual_weight",
    "e6_level_one",
    "enumerate_weights",
    "exp_set",
    "extension_index",
    "find_local_system",
    "induced_hom",
    "inclusion_table",
    "is_simple_current",
    "level_one_datum",
    "mirror_mu",
    "mirror_spectrum",
    "monodromy_trivial",
    "mu_after",
    "quadratic_form_consistency",
    "reference_spectrum",
    "report_emit",
    "s_matrix",
    "simple_current_spectrum",
    "spin_level_one",
    "su_level_one",
    "sun_datum",
    "tensor_product",
    "transpose_weight",
    "vacuum_pairing",
    "verify_all",
    "verify_catalog",
    "verify_coupling",
    "verify_entry",
    "weight_from_text",
]
