"""Low-distortion embeddings of finite point sets between normed spaces,
built by gluing near-isometric linear maps along a logarithmic spiral of
turning angles, with every distortion inequality verified numerically."""

__version__ = "0.1.0"

from .errors import (
    BankExhausted,
    BoundViolated,
    CertificationFailed,
    DimensionMismatch,
    NonPositiveLowerBound,
    NotStabilized,
    OutOfScheduleRange,
    SpiralGlueError,
)
from .spaces import (
    LinearMap,
    Lp,
    MaxAbsFunctionals,
    NormSpec,
    Space,
    WeightedLp,
    apply,
    as_vector,
    blend_apply,
    direction_gain,
    norm,
    norm_from_dict,
    norm_to_dict,
    norms,
    space_from_dict,
    space_to_dict,
)
from .schedule import (
    Params,
    RadiiSchedule,
    WeightConditionReport,
    build_schedule,
    check_weight_conditions,
    radii,
    schedule_from_dict,
    schedule_to_dict,
    weight,
    weight_grid,
)
from .pointset import (
    AnnulusDecomposition,
    DirectionAngles,
    LocallyFiniteSet,
    decompose,
    generate_annular,
    load_points,
    log_norms,
    make_point_set,
    point_norms,
    points_from_dict,
    points_to_dict,
    save_points,
)
from .bank import (
    BankStrategy,
    BlockShift,
    EmbeddingBank,
    QuadratureL2toL1,
    SelectionResult,
    UserMatrices,
    build_bank,
    select_subsequence,
    spreading_limit_estimate,
)
from .glue import (
    GlueEmbedding,
    blend_decomposition_residual,
    embed,
    embed_all,
    level_map,
)
from .verify import (
    DistortionReport,
    PairCheck,
    PairTable,
    TheoreticalBounds,
    bounds_from_values,
    check_pair,
    distortion_report,
    embedding_bounds,
    fuzz_pair_inequalities,
    solve_params,
    spreading_bound_minimum,
    spreading_lower_bound,
    theoretical_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
