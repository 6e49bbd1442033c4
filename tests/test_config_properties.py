"""Property test: a dumped configuration parses back to itself."""

import argparse

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from revkit.cli import (ENGINE_KEYS, _dump_config,  # noqa: E402
                        _effective_config, _parse_config)

# a strategy of valid values for every key of ENGINE_KEYS
VALID = {
    "ctf_len": st.integers(1, 10 ** 6),
    "lambda": st.floats(0.0, 1.0, exclude_max=True),
    "max_iters": st.integers(1, 10 ** 6),
    "threads": st.integers(1, 1024),
}


def test_every_key_has_a_strategy():
    assert VALID.keys() == ENGINE_KEYS.keys()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=st.fixed_dictionaries(VALID))
def test_dump_parses_back_to_the_same_config(values):
    effective = _effective_config(argparse.Namespace(config=None, **values))
    dumped = _parse_config(_dump_config(effective[1]))
    assert _effective_config(argparse.Namespace(config=None, **dumped)) == \
        effective
