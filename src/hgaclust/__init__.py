"""Two-cluster heart-disease risk partitioning.

Pipeline: parse the 14-attribute heart CSV, impute missing cells,
standardize, project onto the top two principal components, then cluster
the 2-D points with a hybrid steady-state genetic algorithm (plain
k-means serves as the baseline) and score the result against the
diagnosis labels.

Import names from the modules that define them, e.g.
``hgaclust.experiment.run_experiment``; this root holds only ``__version__``.
"""

__version__ = "0.1.0"
