"""Misspecified sparse linear bandit algorithms and harness.

The package provides a deterministic bandit environment with an epsilon
misspecification budget, four query-efficient learning routines operating on
it (net-based parameter elimination, per-subset design elimination,
compressed-space action elimination, and a representative-collection pipeline
with exact sparse recovery), a generator for sparse near-orthogonal hard
instances with a hidden-index embedding, and a config-driven CLI that checks
measured errors and query counts against the analytic bounds.
"""

from .compressed_elim import compressed_uniform_error, run_benign_elimination
from .compression import (
    CompressionMap,
    build_map,
    certify,
    choose_target_dim,
    find_certified_map,
)
from .design import (
    DesignDistribution,
    core_set_bound,
    estimate_parameter,
    frank_wolfe_design,
    frank_wolfe_designs,
    g_value,
    subset_blocks,
)
from .design_elim import run_design_elimination
from .hardness import (
    HardMatrixSpec,
    embed_index_query,
    generate_validated,
    k_threshold,
    normalize_and_validate,
    random_search,
    sample_raw_matrix,
)
from .model import (
    BanditInstance,
    FeatureMatrix,
    NoiseModel,
    QueryLedger,
    SparseParameter,
    brute_force_best,
    build_instance,
    load_instance,
    query,
    random_sparse_instance,
    save_instance,
    uniform_error,
)
from .net import CoveringNet, build_separated_net, include_point
from .param_elim import (
    build_candidate_sets,
    run_parameter_elimination,
)
from .sparse_recovery import (
    collect_representatives,
    run_general_features,
    sparse_linf_recover,
)

__version__ = "0.1.0"

# the hot kernels (greedy packing, the violation scan) are plain numpy
BACKEND = "numpy"
