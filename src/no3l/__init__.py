"""Randomized no-three-in-line sets on dyadic shells.

The pipeline: sample a random window with per-shell inclusion
probabilities (sampling), count and locate collinear triples exactly
(triples), repair the sample by deleting the largest member of
every triple (construct), and compare the outcome against exact
expectation/variance bounds and Monte Carlo moments (analytics,
experiments).  The cli module wraps the pipeline for batch use.

The package root re-exports the sampling, triples and construct names,
which is all that ``import no3l`` loads.  The experiment layer
(analytics, experiments, and through them the process pool in
parallel) is imported from its modules, ``from no3l.experiments import
run_trials``; the cli's ``stats``, ``lemmas`` and ``bench`` commands
import it when they run, so ``sample``, ``construct`` and ``verify``
never load it.
"""

from .construct import (
    delete_max_of_triples,
    density_profile,
    greedy_construct,
    modular_parabola,
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
