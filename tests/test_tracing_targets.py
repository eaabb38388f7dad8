"""The benchmark's tracer wraps library functions by module and name; a
name that has moved makes every traced run fail before it starts."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.TARGETS and not missing
