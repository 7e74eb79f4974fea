"""The benchmark tracer's layer names resolve in the package.

A layer that no longer resolves is traced as absent and its per-layer
metric silently reads zero, so a moved or renamed function fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    for name, module_name, attr, _ in layers:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"{name}: {module_name}.{attr} does not resolve"
