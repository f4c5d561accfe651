"""Two-cluster heart-disease risk partitioning.

Pipeline: parse the 14-attribute heart CSV, impute missing cells,
standardize, project onto the top two principal components, then cluster
the 2-D points with a hybrid steady-state genetic algorithm (plain
k-means serves as the baseline) and score the result against the
diagnosis labels.
"""

__version__ = "0.1.0"

from .clustering import (
    Assignment,
    Chromosome,
    FitnessBreakdown,
    chromosome_fitness,
    kmeans,
)
from .dataset import (
    HEART_COLUMNS,
    FeatureMatrix,
    RawDataset,
    impute_missing,
    load_heart_csv,
    split_features_target,
    standardize,
    write_heart_csv,
)
from .evaluation import (
    ConfusionMatrix,
    Metrics,
    align_clusters_to_labels,
    confusion_matrix,
    metrics,
)
from .experiment import ExperimentConfig, emit_report, run_experiment
from .hga import (
    HgaConfig,
    HgaResult,
    Population,
    deterministic_improvement,
    init_population,
    one_point_crossover,
    run_hga,
    select_parents,
    steady_state_replace,
    two_point_mutation,
)
from .pca import (
    EigenPairs,
    ProjectedDataset,
    covariance_matrix,
    project,
    symmetric_eigendecomposition,
)

__all__ = [
    "__version__",
    "HEART_COLUMNS",
    "RawDataset",
    "FeatureMatrix",
    "load_heart_csv",
    "write_heart_csv",
    "impute_missing",
    "standardize",
    "split_features_target",
    "EigenPairs",
    "ProjectedDataset",
    "covariance_matrix",
    "symmetric_eigendecomposition",
    "project",
    "Chromosome",
    "FitnessBreakdown",
    "Assignment",
    "chromosome_fitness",
    "kmeans",
    "HgaConfig",
    "HgaResult",
    "Population",
    "init_population",
    "select_parents",
    "one_point_crossover",
    "two_point_mutation",
    "deterministic_improvement",
    "steady_state_replace",
    "run_hga",
    "ConfusionMatrix",
    "Metrics",
    "align_clusters_to_labels",
    "confusion_matrix",
    "metrics",
    "ExperimentConfig",
    "run_experiment",
    "emit_report",
]
