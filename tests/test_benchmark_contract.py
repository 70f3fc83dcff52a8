"""The benchmark traces fwdreg from outside the package by module attribute
name (perfbench/tracer.py), and each workload lists the names that must
record calls (perfbench/workloads.py). An expected name that records no
calls makes a traced run incorrect, but a name that no longer exists is
only reported as absent and left out of that check: the run still
reports correct and the layer reads zero. Nothing else would fail, so
the names are pinned here."""

import concurrent.futures
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _traced_names():
    names = set(_load("tracer").FUNCTIONS)
    for workload in _load("workloads").WORKLOADS.values():
        names.update(workload.expected)
    # the memoized eigenvalue lookup behind eig_source.hit_frac; its sampled
    # twin, theory_bounds.sampled_eig_source, is gone and not required
    names.add("theory_bounds.exact_eig_source")
    return sorted(names)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_exists(name):
    mod_name, attr = name.split(".")
    module = importlib.import_module(f"fwdreg.{mod_name}")
    if name == "cli.pool":
        # the tracer swaps the thread pool class wherever a module binds it
        assert module.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    else:
        assert callable(getattr(module, attr, None))
