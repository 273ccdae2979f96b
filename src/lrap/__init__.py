"""Low-rank nonnegative matrix approximation via alternating projections.

Deterministic and sketch-based projection engines, an analytic flop-cost
model, benchmark problem generators, and a CLI harness for reproducible
convergence experiments.
"""

from .flopmodel import (
    dominant_coefficient,
    flops_init,
    flops_per_iteration,
    flops_svd,
)
from .harness import (
    ExperimentConfig,
    ImageProblem,
    SmoluchowskiProblem,
    UniformProblem,
    build_target,
    export_spectrum,
    load_config,
    run_experiment,
)
from .linalg import LowRankFactors, qr_thin, svd_truncated
from .methods import (
    IterateState,
    MethodSpec,
    SketchCollapseError,
    ap_gn_step,
    ap_hmt_step,
    ap_svd_step,
    ap_tangent_step,
    ap_tropp_step,
    initialize,
    run_method,
    tangent_space_apply,
)
from .metrics import (
    IterationRecord,
    ViolationStats,
    iteration_record,
    normalized_spectrum,
    relative_errors,
    violation_stats,
)
from .problems import (
    SmoluchowskiSpec,
    gen_uniform,
    load_image_pgm,
    smoluchowski_concentration,
    smoluchowski_solution,
)
from .projections import BoxBounds, project_box
from .sketching import (
    SketchSpec,
    SparseSignMatrix,
    apply_sketch_left,
    apply_sketch_right,
    gen_test_matrix,
    sub_seed,
)

__version__ = "0.1.0"
