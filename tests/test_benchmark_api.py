"""The benchmark's per-layer metrics name functions of the public API, and the public
API is the user's pipeline plus the names the benchmark still reads."""

import importlib
import inspect
import json
from pathlib import Path

import robustaft

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# What a user runs: load, sort, weigh, fit three ways, infer and study, and the records
# and error they hold along the way.
PIPELINE = {
    "load_csv", "sort_sample", "km_weights",
    "stute_fit", "fit_penalized", "fit_two_step", "sandwich_ci",
    "generate_sample", "run_study", "DgpConfig", "DESK_PROFILE", "PAPER_PROFILE",
    "SurvivalSample", "SortedSample", "WeightedDesign", "Fit", "InferenceResult", "MonteCarloReport",
    "SingularGramError",
}


def _called_keys():
    """The ``module.function`` keys of the benchmark's per-layer call counts, but ``cli.main``."""
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    keys = [m["name"].removesuffix(".calls") for m in metrics if m["name"].endswith(".calls")]
    keys.remove("cli.main")  # the command-line entry point, outside __all__
    return keys


def test_per_layer_call_counts_name_public_functions():
    keys = _called_keys()
    assert keys
    for key in keys:
        module, name = key.split(".")
        fn = getattr(importlib.import_module(f"robustaft.{module}"), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"robustaft.{module}", key
        assert name in robustaft.__all__ and getattr(robustaft, name) is fn, key


def test_public_names_are_the_pipeline_and_what_the_benchmark_reads():
    """A name the benchmark stops reading leaves ``__all__``, and no new name joins it;
    ``write_csv`` writes the ``fit-csv`` workload's input."""
    traced = {key.split(".")[1] for key in _called_keys()}
    assert set(robustaft.__all__) == PIPELINE | traced | {"write_csv"}
    assert len(robustaft.__all__) == len(set(robustaft.__all__))
    # beside its modules, the package's namespace holds exactly these names
    public = {k for k, v in vars(robustaft).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert public == set(robustaft.__all__)
