"""Randomized no-three-in-line sets on dyadic shells.

The pipeline: sample a random window with per-shell inclusion
probabilities (sampling), count and locate collinear triples exactly
(triples), repair the sample by deleting the largest member of
every triple (construct), and compare the outcome against exact
expectation/variance bounds and Monte Carlo moments (analytics,
experiments).  The cli module wraps the pipeline for batch use.
"""

from .analytics import (
    LineWeightReport,
    TrialStatistics,
    VarianceBoundReport,
    exact_mean,
    exact_reports,
    monte_carlo_moments,
)
from .construct import (
    delete_max_of_triples,
    density_profile,
    greedy_construct,
    modular_parabola,
)
from .experiments import (
    TrialManifest,
    TrialOutcome,
    TrialRunResult,
    density_box_sides,
    lemma_report,
    lemma_report_csv,
    run_trials,
    verify_theorem,
)
from .sampling import (
    PointSet,
    SamplerConfig,
    inf_norm,
    norm_lex_key,
    read_pointset,
    sample_window,
    shell_counts,
    shell_index,
    shell_probability,
    write_pointset,
)
from .triples import (
    count_collinear_triples,
    prefix_triple_counts,
)

__version__ = "0.1.0"
