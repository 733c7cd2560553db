"""Schatten p-norm toolbox.

Finite-matrix constructions around the Schatten classes: row-norm
(unconditional) variants of the norm, the sign-block lift and its
complemented projection, rank lower bounds for well-spread matrix
families, and constructive paving with certified contraction.

``kernel_backend`` names the enumeration kernels in use; it is always
``"python"`` (the NumPy kernels in ``_kernels_py``) and is recorded in
benchmark provenance.
"""

from ._backend import BACKEND as kernel_backend
from .embedding import (
    EmbeddingInstance,
    RankBoundReport,
    khintchine_easy_slack,
    psd_rank_bound,
    sign_average_sum,
    tight_embedding_audit,
)
from .linalg import (
    RandomSpec,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    numeric_rank,
    psd_trace_power,
    random_matrix,
    schatten_norm,
    schatten_norms,
    schur_product,
    singular_values,
    substream,
    substream_seed,
    trace_pairing,
)
from .norms import Decomposition, clarkson_slack, z_norm, z_tilde_lower, z_tilde_upper
from .paving import (
    BalancedAverageReport,
    PavingCertificate,
    PavingPartition,
    PavingResult,
    balanced_overlap_ratios,
    balanced_subset_average,
    cross_part,
    find_balanced_split,
    pave,
    pave_levels,
    paving_norm,
    paving_split,
)
from .projection import (
    BlockDiag,
    ProjectionNormEstimate,
    assemble,
    block_sign_average,
    blockdiag_from_json,
    blockdiag_schatten_norm,
    blockdiag_to_json,
    estimate_projection_norm,
    extract_central_blocks,
    project_onto_lift,
    row_norm_projection_slack,
    sign_block_lift,
)
from .signs import (
    AverageReport,
    RatioReport,
    all_sign_patterns,
    norm_domination_slacks,
    rademacher_average,
    rademacher_z_tilde_ratio,
    sign_pattern_by_index,
)

__version__ = "0.1.0"
