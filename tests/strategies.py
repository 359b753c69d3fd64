"""Shared Hypothesis strategies and the example-count cap.

Property modules import from here so that generated data stays
consistent across suites.  ``HYPOTHESIS_MAX_EXAMPLES`` caps every
property's example count from the environment (CI can lower it);
each property passes its own default to :func:`capped`.
"""

import os

import numpy as np
from hypothesis import strategies as st


def capped(default: int) -> int:
    """``default`` examples, or fewer when the environment caps them."""
    cap = os.environ.get("HYPOTHESIS_MAX_EXAMPLES")
    return min(default, int(cap)) if cap else default


def clustered_points(seed: int, n: int, dim: int) -> np.ndarray:
    """Half a tight cluster, half scattered: both dispatch branches fire."""
    rng = np.random.default_rng(seed)
    tight = rng.normal(scale=0.2, size=(n // 2, dim))
    loose = rng.uniform(-3.0, 3.0, size=(n - n // 2, dim))
    return np.concatenate([tight, loose])


@st.composite
def insert_schedules(draw, max_steps: int = 6):
    """A list of serving steps: ``("insert", m)`` or ``("query", rows)``.

    Query steps name row indexes into a fixed probe matrix (duplicates
    allowed, so in-batch sharing is exercised); repeated query steps
    meet a warm cache, and an insert between them invalidates it.
    """
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(1, 6)),
                st.tuples(
                    st.just("query"),
                    st.lists(st.integers(0, 7), min_size=1, max_size=6),
                ),
            ),
            min_size=1,
            max_size=max_steps,
        )
    )
    # Always end on a read so the last insert is checked too.
    return [*steps, ("query", list(range(8)))]
