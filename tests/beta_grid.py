"""beta over the whole box, read from the one scan task that builds it.

``no3l.analytics.exact_reports`` keeps beta to itself and reports only v1,
sum of p(x) * beta(x)**2; the tests that check beta point by point take
the grid from ``_scan_chunk`` run on every bincount direction, as
exact_reports runs it for T <= VARIANCE_CAP.
"""

from __future__ import annotations

import numpy as np

from no3l.analytics import _box_directions, _scan_chunk


def beta_box_grid(T: int, c: float) -> np.ndarray:
    """beta over [1, 2**T]^2, T <= VARIANCE_CAP; entry [x-1, y-1] is beta at (x, y)."""
    n = 1 << T
    dirs = [(a, b) for a, b in _box_directions(n) if abs(a) <= b and 2 * b < n]
    return _scan_chunk((T, c, dirs))[4]
