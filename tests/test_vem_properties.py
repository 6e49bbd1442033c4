"""Property tests: the FFT engine kernels against the brute-force loops."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_vem import (check_e_step_against_brute_force,  # noqa: E402
                      check_m_step_against_brute_force)


def kernel_property(test):
    """Random F <= 4, T <= 40, L <= 12 and seed, plus three pinned cases:
    fewer frames than taps; a single tap; T + L - 1 = 32, a length the FFT
    size rule returns unchanged, so no slack is left for wrap-around."""
    test = given(F=st.integers(1, 4), T=st.integers(1, 40),
                 L=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))(test)
    for F, T, L in ((2, 3, 9), (2, 17, 1), (2, 21, 12)):
        test = example(F=F, T=T, L=L, seed=T)(test)
    return settings(derandomize=True, deadline=None, max_examples=40)(test)


@kernel_property
def test_e_step_matches_brute_force_any_shape(F, T, L, seed):
    check_e_step_against_brute_force(F, T, L, seed)


@kernel_property
def test_m_step_matches_brute_force_any_shape(F, T, L, seed):
    check_m_step_against_brute_force(F, T, L, seed)
