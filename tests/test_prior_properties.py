"""Property test: a VPRI file reads back exactly what was written."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from revkit import prior  # noqa: E402

F32_MAX = float(np.finfo(np.float32).max)


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mag=hnp.arrays(np.float64,
                      st.tuples(st.integers(1, 300), st.integers(1, 300)),
                      elements=st.floats(0.0, F32_MAX)))
def test_vpri_round_trip_is_the_float32_rounding(tmp_path, mag):
    path = tmp_path / "p.vpri"
    prior.save_prior_file(path, mag)
    back = prior.load_prior_file(path)
    assert back.dtype == np.float64
    assert back.tobytes() == mag.astype(np.float32).astype(np.float64).tobytes()
    prior.from_magnitude(back)  # the engine accepts what was read
