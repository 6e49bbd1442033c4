"""The benchmark under bench/ calls revkit functions by name; these tests
keep every such name alive."""

import importlib
import importlib.util
from pathlib import Path

from revkit import vem

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_layer_calls_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYER_CALLS.items():
        lib = importlib.import_module(f"revkit.{module}")
        for name in names:
            assert callable(getattr(lib, name, None)), f"revkit.{module}.{name}"


def test_step_api_exists():
    # bench/tracing.py times these kernels one call at a time
    for name in ("init", "e_step", "m_step", "expected_loglik"):
        assert callable(getattr(vem, name, None)), f"revkit.vem.{name}"
