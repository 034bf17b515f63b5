"""Simulation and analysis workbench for an interferometric macrorealism test.

Subpackages
-----------
protocol
    Blocker schedule, negative-result outcome rule, table builder and the
    LGI/WLGI/NSIT expressions, shared by every model below.
circuit
    Quantum model of the blocker-instrumented two-interferometer circuit.
hvmodels
    Detector-efficiency-exploiting hidden-variable models and their bounds.
multiphoton
    Double-pair contamination model and emission-fraction fitting.
simulate
    Timestamped Monte Carlo experiment generator.
analysis
    Coincidence counting, inequality assembly and error estimation.
cli
    Command-line entry points.
"""

from .protocol import BlockerConfig, JointProbTable, RUN_CONFIGS, UndefinedProbabilityError
from .circuit import (
    DetectionProbs,
    IDEAL_PARAMS,
    NOMINAL_PARAMS,
    NSITValues,
    SetupParams,
    Tolerances,
    detection_probs,
    ideal_maxima,
    joint_probs,
    qm_lgi,
    qm_nsit,
    qm_range,
    qm_wlgi,
)
from .hvmodels import (
    BoundCertificate,
    DegenerateModelError,
    HVWeights,
    ProbeFinding,
    blocker_setup_bound,
    blocker_setup_formula,
    critical_efficiency,
    lgi_detectors_bound_formula,
    maximize_lgi_detectors,
    maximize_wlgi_detectors,
    wlgi_detectors_bound_formula,
)
from .multiphoton import (
    CountVector12,
    GammaFitParams,
    GammaFitResult,
    ModifiedBounds,
    canonical_gauge,
    chi_squared,
    fit_gamma,
    fit_report,
    load_counts_csv,
    modified_bounds,
    predicted_counts,
    reference_counts,
    save_counts_csv,
    two_photon_joint_probs,
    two_photon_lgi,
    two_photon_wlgi,
)
from .simulate import (
    CHANNELS,
    DEFAULT_ITERATIONS,
    ExperimentDataset,
    SourceConfig,
    TimestampStream,
    derive_iteration_state,
    generate_sub_run,
    load_dataset,
    run_protocol,
)
from .analysis import (
    BootstrapResult,
    CoincidenceHistogram,
    NoPeakError,
    ResultReport,
    WindowSelection,
    analyze_counts,
    analyze_dataset,
    bootstrap_sdm,
    corrected_coincidences,
    count_dataset,
    count_sub_run,
    error_distributions,
    histogram,
    joint_probs_from_counts,
    load_run_counts_csv,
    per_iteration_values,
    representative_counts_path,
    select_window,
)

__version__ = "0.1.0"

__all__ = [
    "BlockerConfig",
    "BootstrapResult",
    "BoundCertificate",
    "CHANNELS",
    "CoincidenceHistogram",
    "CountVector12",
    "DEFAULT_ITERATIONS",
    "DegenerateModelError",
    "DetectionProbs",
    "ExperimentDataset",
    "GammaFitParams",
    "GammaFitResult",
    "HVWeights",
    "IDEAL_PARAMS",
    "JointProbTable",
    "ModifiedBounds",
    "NOMINAL_PARAMS",
    "NSITValues",
    "NoPeakError",
    "ProbeFinding",
    "RUN_CONFIGS",
    "ResultReport",
    "SetupParams",
    "SourceConfig",
    "TimestampStream",
    "Tolerances",
    "UndefinedProbabilityError",
    "WindowSelection",
    "analyze_counts",
    "analyze_dataset",
    "blocker_setup_bound",
    "blocker_setup_formula",
    "bootstrap_sdm",
    "canonical_gauge",
    "chi_squared",
    "corrected_coincidences",
    "count_dataset",
    "count_sub_run",
    "critical_efficiency",
    "derive_iteration_state",
    "detection_probs",
    "error_distributions",
    "fit_gamma",
    "fit_report",
    "generate_sub_run",
    "histogram",
    "ideal_maxima",
    "joint_probs",
    "joint_probs_from_counts",
    "lgi_detectors_bound_formula",
    "load_counts_csv",
    "load_dataset",
    "load_run_counts_csv",
    "maximize_lgi_detectors",
    "maximize_wlgi_detectors",
    "modified_bounds",
    "per_iteration_values",
    "predicted_counts",
    "qm_lgi",
    "qm_nsit",
    "qm_range",
    "qm_wlgi",
    "reference_counts",
    "representative_counts_path",
    "run_protocol",
    "save_counts_csv",
    "select_window",
    "two_photon_joint_probs",
    "two_photon_lgi",
    "two_photon_wlgi",
    "wlgi_detectors_bound_formula",
    "__version__",
]
