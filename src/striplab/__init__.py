"""striplab: certified nonvanishing polynomial approximation on thin compact
plane sets, and empirical vertical-shift scans of the Riemann zeta function."""

__version__ = "0.1.0"

from .approximation import FitResult, approximate, lawson_refine
from .geometry import (
    Arc,
    CantorProduct,
    CompactSet,
    PointSet,
    Polyline,
    SampleGrid,
    Segment,
    bounding_radius,
    build_set,
    discretize,
    distance,
    fat_cantor,
    fiber_edges,
    nearest_exterior,
    to_spec,
)
from .polynomial import (
    FactoredPolynomial,
    Polynomial,
    derivative_bound,
    evaluate,
    evaluate_factored,
    from_roots,
    min_modulus_certificate,
    perturbation_bound,
    roots,
)
from .repair import (
    RepairCertificate,
    approximate_nonvanishing,
    original_roots,
    repair_nonvanishing,
)
from .scan import (
    ScanConfig,
    ScanReport,
    discrepancy,
    line_universality,
    scan_density,
    write_trace_csv,
)
from .targets import TargetFunction, resolve_target
from .zeta import DEFAULT_PARAMS, ZetaParams, ZetaValue, zeta_em, zeta_shifted_grid

__all__ = [
    "__version__",
    "Arc",
    "CantorProduct",
    "CompactSet",
    "DEFAULT_PARAMS",
    "FactoredPolynomial",
    "FitResult",
    "PointSet",
    "Polyline",
    "Polynomial",
    "RepairCertificate",
    "SampleGrid",
    "ScanConfig",
    "ScanReport",
    "Segment",
    "TargetFunction",
    "ZetaParams",
    "ZetaValue",
    "approximate",
    "approximate_nonvanishing",
    "bounding_radius",
    "build_set",
    "derivative_bound",
    "discrepancy",
    "discretize",
    "distance",
    "evaluate",
    "evaluate_factored",
    "fat_cantor",
    "fiber_edges",
    "from_roots",
    "lawson_refine",
    "line_universality",
    "min_modulus_certificate",
    "nearest_exterior",
    "original_roots",
    "perturbation_bound",
    "repair_nonvanishing",
    "resolve_target",
    "roots",
    "scan_density",
    "to_spec",
    "write_trace_csv",
    "zeta_em",
    "zeta_shifted_grid",
]
