"""The benchmark traces fwdreg from outside the package by module attribute
name (perfbench/tracer.py), and each workload lists the names that must
record calls (perfbench/workloads.py). An expected name that records no
calls makes a traced run incorrect, but a name that no longer exists is
only reported as absent and left out of that check: the run still
reports correct and the layer reads zero. Nothing else would fail, so
the names are pinned here."""

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


# traced names that are gone, so the tracer must report them as absent
GONE = {
    # the tracer timed a thread pool that cli bound; replications now run
    # in forked processes, which it cannot see, so cli.pool.busy_frac reads 0
    "cli.pool",
    # forward_regression checks standardization from its starting state's
    # column norms, so the separate check and its second einsum pass are gone
    "core_linalg.is_standardized",
    # verify_theorem1 checks the parameter-error chain in the same report
    # as the prediction and count bounds, with one phi_min(s_hat + s0) lookup
    "theory_bounds.verify_theorem3",
}


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_exists(name):
    mod_name, attr = name.split(".")
    module = importlib.import_module(f"fwdreg.{mod_name}")
    if name in GONE:
        assert getattr(module, attr, None) is None
        tracer = _load("tracer").Tracer()
        tracer.install()
        try:
            assert name in tracer.absent
        finally:
            tracer.uninstall()
    else:
        assert callable(getattr(module, attr, None))
