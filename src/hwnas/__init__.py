"""Multi-objective hardware-aware neural architecture search.

Searches a cell-based CNN space with one Gaussian-process surrogate per
objective (classification error, energy, inference time), proposes candidates
by expected hypervolume improvement, and takes measurements from pluggable
evaluators (a deterministic synthetic model, or external hardware via a file
protocol with power-trace post-processing).
"""

from .evaluation import (
    BUILTIN_PROFILES,
    DeviceProfile,
    EvaluationRequest,
    EvaluatorError,
    PowerTrace,
    TraceError,
    build_evaluator,
    external_evaluate,
    get_profile,
    integrate_energy,
    measure_from_trace,
    segment_trace,
    synthetic_evaluate,
)
from .gp import GPError, GPModel, KernelParams, featurize, fit, kernel, log_marginal_likelihood
from .network import (
    BuildError,
    LayerNode,
    MacroConfig,
    NetworkGraph,
    TensorShape,
    build_cell,
    build_network,
    count_flops,
    count_params,
)
from .optimize import (
    ConfigMismatchError,
    RunConfig,
    SearchState,
    SpaceExhaustedError,
    propose_next,
    reevaluate_cross_device,
    run_random,
    run_search,
)
from .pareto import dominates, hypervolume, pareto_filter
from .records import EvaluationRecord, ObjectiveVector, load_records
from .search_space import (
    BlockSpec,
    CellGenome,
    GenomeError,
    Operation,
    decode,
    encode,
    enumerate_genomes,
    mutate,
    random_genome,
    search_space_size,
    unused_block_outputs,
    validate_genome,
)

__version__ = "0.1.0"
