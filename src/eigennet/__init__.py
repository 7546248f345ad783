"""Decentralized computation of sample-covariance eigenvalues over a network.

Nodes holding rows of a sample matrix estimate eigenvalues of the global
sample covariance through average-consensus rounds alone: a decentralized
power method for the largest eigenvalue and a decentralized Lanczos
algorithm for several. The package bundles the consensus engines, the
centralized reference algorithms, closed-form error instrumentation, a
Gaussian signal model, eigenvalue-based detection statistics, and a
Monte-Carlo experiment harness with a CLI (``eigennet``).
"""

from .consensus import (
    AcConfig,
    ConsensusResult,
    ErrorInjectingEngine,
    run_block,
    run_consensus,
)
from .detection import compute_statistic, threshold_from_h0, trace_consensus
from .distributed import (
    ConvergenceVerdict,
    DlaErrorTrace,
    DlaResult,
    DpmErrorTrace,
    DpmResult,
    MessageAudit,
    audit_messages,
    check_dpm_convergence_condition,
    default_dla_start,
    default_dpm_start,
    matrix_error_for_drift,
    predict_dpm_vector_error,
    predict_lambda1_error,
    run_dla,
    run_dpm,
)
from .eigencore import (
    EigenSolution,
    PowerIterationResult,
    TridiagonalMatrix,
    covariance_eigenvalues,
    cullum_willoughby_spurious,
    filter_spurious,
    filter_spurious_batch,
    lanczos,
    power_method,
    sample_covariance,
    tridiagonal_eigenvalues,
    tridiagonal_eigenvalues_batch,
)
from .errors import (
    AuditMismatch,
    ConfigError,
    ConsensusError,
    DegenerateRunError,
    DetectionError,
    EigennetError,
    MissingTraceError,
    TopologyError,
)
from .harness import ExperimentConfig, ExperimentReport, emit_csv, emit_report, run, trial_seed, validate_config
from .signals import SignalConfig, gen_h0, gen_h1, samples_with_spectrum, theoretical_snr
from .topology import (
    ChebyshevParams,
    Graph,
    WeightMatrix,
    dump_edge_list,
    generate_random_geometric,
    load_edge_list,
    metropolis_weights,
    spectral_bounds,
)

__version__ = "0.1.0"
