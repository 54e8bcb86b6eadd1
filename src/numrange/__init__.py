"""Numerical ranges of periodic tridiagonal operators via symbol matrices.

The closure of the numerical range of a periodic tridiagonal operator is
the closure of the convex hull of the numerical ranges of its symbol
matrices, a one-parameter family of small matrices with phase-twisted
corner entries.  This package builds the finite matrices (truncations,
circulants, symbols, the diagonalizing block unitary), sweeps numerical
range boundaries, and verifies the resulting set identities numerically.
"""

from .linalg import NoConvergenceError, as_matrix
from .operators import (
    PeriodSpec,
    SpecParseError,
    build_block_unitary,
    build_circulant,
    build_symbol,
    build_truncation,
    conjecture_specs,
    lift_eigenvector,
    phi_grid,
)
from .geometry import (
    RangePolygon,
    convex_hull,
    hausdorff,
    polygon_to_csv,
    support_width,
)
from .sweep import (
    NotSelfAdjointError,
    SweepConfig,
    boundary_points,
    range_boundary,
    selfadjoint_interval,
    symbol_union_hull,
    truncation_range,
    truncation_support,
)
from .ellipse import EllipseParams, stadium_region, symbol_ellipse
from .checks import (
    CheckReport,
    check_block_diagonalization,
    check_conjecture,
    check_pair_ellipse_axes,
    check_eigenvector_lifting,
    check_hull_convergence,
    check_range_negation_symmetry,
    check_selfadjoint_convergence,
    check_stadium_identity,
    check_stadium_support_widths,
    check_spectrum_union,
    check_stadium_separation,
    check_truncation_containment,
    random_period_specs,
    reports_to_lines,
    run_all,
)

__version__ = "0.1.0"
