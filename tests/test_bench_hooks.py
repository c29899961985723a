"""The benchmark tracer patches cylinderlab from outside by name.  A hook
whose target is gone is dropped with its metrics, so a rename or deletion of
a hooked name would only show as a traced benchmark run with metrics
missing; this test makes it fail here instead."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("hook", tracer.HOOKS, ids=lambda hook: hook.span)
def test_every_hook_target_resolves(hook):
    assert tracer._resolve(hook.module, hook.attr) is not None, f"{hook.module}.{hook.attr}"
