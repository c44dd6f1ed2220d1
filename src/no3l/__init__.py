"""Randomized no-three-in-line sets on dyadic shells.

The pipeline: sample a random window with per-shell inclusion
probabilities (sampling), count and locate collinear triples exactly
(triples), repair the sample by deleting the largest member of every
triple (construct), and compare the outcome against exact expectation
and variance bounds (analytics) and against seeded batches of trials
and Monte Carlo moments (experiments).  The cli module wraps the
pipeline for batch use.

Layering, by module-level imports: triples takes sampling, construct
takes both, analytics takes sampling and the process pool in parallel,
and experiments takes all five.  The package root imports nothing, so
``import no3l.<module>`` loads just that module's layer: the cli takes
only sampling, triples and construct, so the ``sample``, ``construct``
and ``verify`` commands never load the rest; ``stats``, ``lemmas`` and
``bench`` import experiments when they run.
"""

__version__ = "0.1.0"
