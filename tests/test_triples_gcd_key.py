"""The small-span triple oracle tests again, with the gcd direction key.

Sets of span up to triples._FLOAT_KEY_SPAN take the int32 or the float
key; with that limit at 0 every set takes the gcd key, so every key passes
the same oracles, at the same anchor block sizes.
"""

import pytest

from no3l import triples
from test_triples import (  # noqa: F401  (collected here under the gcd key)
    test_anchor_blocks_of_any_size_agree_with_oracles,
    test_box_triple_counts_cumulative,
    test_fast_counter_equals_bruteforce,
    test_full_grid_counts,
    test_full_span_differences_of_consecutive_anchors,
    test_prefix_counts_match_enumeration,
    test_runs_through_points_are_counted_exactly,
    test_small_hand_cases,
    test_spans_straddling_the_float_key_limit_are_counted_exactly,
    test_triples_within_box,
    test_vectorized_path_on_a_large_set,
)


@pytest.fixture(autouse=True, scope="module")
def _gcd_key_only():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triples, "_FLOAT_KEY_SPAN", 0)
        yield
