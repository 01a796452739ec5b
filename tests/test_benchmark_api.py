"""The benchmark's per-layer metrics name functions of the public API."""

import importlib
import inspect
import json
from pathlib import Path

import robustaft

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_call_counts_name_public_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    keys = [m["name"].removesuffix(".calls") for m in metrics if m["name"].endswith(".calls")]
    keys.remove("cli.main")  # the command-line entry point, outside __all__
    assert keys
    for key in keys:
        module, name = key.split(".")
        fn = getattr(importlib.import_module(f"robustaft.{module}"), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"robustaft.{module}", key
        assert name in robustaft.__all__ and getattr(robustaft, name) is fn, key
