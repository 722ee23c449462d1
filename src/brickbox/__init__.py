"""Tilings of rational boxes by translated rectangular bricks.

Decides two-brick tileability structurally (hyperplane-split certificates),
cross-checks with an independent exact-cover search, verifies tilings both
geometrically (exact rational arithmetic) and spectrally (sampled residuals
of the frequency-domain tiling identity), and generates the three-brick
family whose boxes admit no splitting cut.
"""

from .counterexample import (
    NoSplitReport,
    SplitEntry,
    ThreeBrickInstance,
    lift_to_dimension,
    make_instance,
    pinwheel_tiling,
    proper_split_report,
)
from .exactcover import (
    DEFAULT_GRID_CAP,
    DEFAULT_NODE_BUDGET,
    CoverOutcome,
    CoverProblem,
    GridModel,
    GridTooLarge,
    TileOutcome,
    build_cover_problem,
    build_grid,
    cover_matrix_text,
    exact_cover_tileable,
    rows_to_tiling,
    solve_exact_cover,
)
from .geometry import (
    BoxSpec,
    Brick,
    Placement,
    Placements,
    Tiling,
    VerifyOutcome,
    frac,
    verify_tiling_geometric,
    volume,
)
from .render import tiling_to_svg
from .spectral import (
    KeyObservationWitness,
    SpectralReport,
    in_zero_set_Z,
    key_observation_witness,
    phase_terms,
    random_frequencies,
    residual_sample,
)
from .theorem import (
    DecisionOutcome,
    KeyObservationViolation,
    SplitCertificate,
    certificate_to_tiling,
    decide_two_brick,
    find_split,
    key_observation_holds,
    one_brick_tileable,
    one_brick_tiling,
    solve_axis_combination,
    validate_certificate,
)

__version__ = "0.1.0"
