"""Packings of points, lines, and subspaces via alternating projection.

The library builds configurations in real and complex Grassmannian spaces
(and on spheres), certifies them against Rankin-type bounds, and reproduces
the standard experiment tables at desk scale.
"""

from .bounds import (
    BoundReport,
    mu_from_rho,
    rankin_chordal,
    rankin_projective,
    rankin_spectral,
    rho_from_mu,
)
from .errors import (
    GrasspackError,
    InitFailure,
    InvalidInput,
    NotPSD,
    NumericalFailure,
    ParseError,
    RankDeficient,
    RankExceeded,
    SingularBlock,
)
from .geometry import (
    Configuration,
    Field,
    GramMatrix,
    Metric,
    dist,
    factor,
    gram,
    max_block_magnitude,
    packing_diameter,
    principal_angles,
    read_configuration,
    write_configuration,
)
from .harness import (
    ExperimentSpec,
    ReferenceTable,
    ResultRow,
    compare_reference,
    evaluate_file,
    export,
    run_experiment,
)
from .linalg import hermitian_eig, qr_orthonormal
from .projections import (
    SpectralSetSpec,
    StructuralSetSpec,
    project_spectral,
    project_structural,
    solve_fs_block,
)
from .solver import SolveParams, SolveReport, alternate, normalize_diagonal
from .starts import InitParams, initial_configuration, random_subspace

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Configuration",
    "ExperimentSpec",
    "Field",
    "GramMatrix",
    "GrasspackError",
    "InitFailure",
    "InitParams",
    "InvalidInput",
    "Metric",
    "NotPSD",
    "NumericalFailure",
    "ParseError",
    "RankDeficient",
    "RankExceeded",
    "ReferenceTable",
    "ResultRow",
    "SingularBlock",
    "SolveParams",
    "SolveReport",
    "SpectralSetSpec",
    "StructuralSetSpec",
    "alternate",
    "compare_reference",
    "dist",
    "evaluate_file",
    "export",
    "factor",
    "gram",
    "hermitian_eig",
    "initial_configuration",
    "max_block_magnitude",
    "mu_from_rho",
    "normalize_diagonal",
    "packing_diameter",
    "principal_angles",
    "project_spectral",
    "project_structural",
    "qr_orthonormal",
    "random_subspace",
    "rankin_chordal",
    "rankin_projective",
    "rankin_spectral",
    "read_configuration",
    "rho_from_mu",
    "run_experiment",
    "solve_fs_block",
    "write_configuration",
]
