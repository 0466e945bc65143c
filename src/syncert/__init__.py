"""Certification and simulation toolkit for output synchronisation of
diffusively coupled oscillator networks with sector-bounded nonlinear
couplings and link disturbances."""

from .certificates import (
    POSITIVITY_TOL,
    CertificateForms,
    GainBound,
    NetworkCertificate,
    SectorBound,
    UncertifiedBoundError,
    gain_bound_from_forms,
    quadratic_forms,
)
from .config import (
    ConfigError,
    NetworkConfig,
    bundled_config,
    bundled_expected,
    config_from_dict,
    parse_config,
)
from .goodwin import (
    CertParams,
    GoodwinParams,
    SearchResult,
    admissible_theta3_interval,
    certify_network,
    hill_slope,
    hill_slope_max,
    search_params,
)
from .graphs import Graph, build_graph
from .linalg import symmetric_eigenvalues
from .noise import edge_seed_sequence, normals, uniforms
from .simulation import (
    CouplingSpec,
    DisturbanceSpec,
    SimulationDiverged,
    SimulationTrace,
    run,
    run_batch,
)

# The one source of the package version; pyproject.toml reads it from here.
__version__ = "0.1.0"

__all__ = [
    "__version__",
    "POSITIVITY_TOL",
    "CertParams",
    "CertificateForms",
    "ConfigError",
    "CouplingSpec",
    "DisturbanceSpec",
    "GainBound",
    "GoodwinParams",
    "Graph",
    "NetworkCertificate",
    "NetworkConfig",
    "SearchResult",
    "SectorBound",
    "SimulationDiverged",
    "SimulationTrace",
    "UncertifiedBoundError",
    "admissible_theta3_interval",
    "build_graph",
    "bundled_config",
    "bundled_expected",
    "certify_network",
    "config_from_dict",
    "edge_seed_sequence",
    "gain_bound_from_forms",
    "hill_slope",
    "hill_slope_max",
    "normals",
    "parse_config",
    "quadratic_forms",
    "run",
    "run_batch",
    "search_params",
    "symmetric_eigenvalues",
    "uniforms",
]
