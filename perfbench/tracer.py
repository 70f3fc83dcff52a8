"""Per-layer tracing of fwdreg from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper at
every module attribute that is bound to it, so a caller that imported the
function by name (``cli`` imports ``forward_regression``, for instance)
calls the wrapper too. Nothing under ``src/`` is edited; ``uninstall``
restores the originals. A traced function that no longer exists is
reported as absent.

Per span the wrapper records wall time, self time (wall minus the wall
of child spans on the same thread) and wait time (wall minus the thread's
CPU time, i.e. time spent waiting for the interpreter lock or a core).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "fwdreg"

FUNCTIONS = (
    "cli.read_csv", "cli.write_json", "cli.write_csv",
    "core_linalg.column_moments", "core_linalg.gram", "core_linalg.is_standardized",
    "core_linalg.least_squares_on_support", "core_linalg.ortho_extend",
    "forward_select.forward_regression", "forward_select.score_all",
    "forward_select.parameter_errors",
    "theory_bounds.sparse_eig_exact", "theory_bounds.sparse_eig_sampled",
    "theory_bounds.verify_theorem1", "theory_bounds.verify_theorem3",
    "simulate.simulate_dataset", "simulate.oracle_threshold",
)

_EIG_SOLVERS = ("theory_bounds.sparse_eig_exact", "theory_bounds.sparse_eig_sampled")
_EIG_SOURCES = ("theory_bounds.exact_eig_source", "theory_bounds.sampled_eig_source")


def _subsets(args, result) -> float:
    return float(getattr(result, "subsets_examined", 0))


# counters taken from a traced call's arguments and result
_COUNTERS = {
    "forward_select.forward_regression": (
        "forward_select.steps",
        lambda args, result: float(len(getattr(getattr(result, "trace", None), "steps", ()))),
    ),
    "theory_bounds.sparse_eig_exact": ("theory_bounds.sparse_eig_exact.subsets", _subsets),
    "theory_bounds.sparse_eig_sampled": ("theory_bounds.sparse_eig_sampled.subsets", _subsets),
    "cli.read_csv": ("cli.read_csv.bytes", lambda args, result: float(os.path.getsize(args[0]))),
}

# (name, unit, better) of every metric one traced operation reports
METRICS = tuple(
    m
    for name in FUNCTIONS
    for m in (
        (f"{name}.calls", "count", "lower"),
        (f"{name}.s", "s", "lower"),
        (f"{name}.wait_s", "s", "lower"),
    )
) + (
    ("forward_select.steps", "count", "lower"),
    ("theory_bounds.sparse_eig_exact.subsets", "count", "lower"),
    ("theory_bounds.sparse_eig_exact.subsets_per_s", "1/s", "higher"),
    ("theory_bounds.sparse_eig_sampled.subsets", "count", "lower"),
    ("theory_bounds.eig_source.lookups", "count", "lower"),
    ("theory_bounds.eig_source.hit_frac", "fraction", "higher"),
    ("cli.read_csv.mb_per_s", "MB/s", "higher"),
    ("cli.pool.busy_frac", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, wall, self, wait]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function, eigenvalue-source factory and the
        thread pool class wherever a package module binds them."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.absent = []
        targets = {}
        for name in FUNCTIONS + _EIG_SOURCES:
            mod_name, attr = name.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrap = self._source_wrapper if name in _EIG_SOURCES else self._span_wrapper
            targets[id(original)] = (original, wrap(name, original))
        targets[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, self._pool_class())
        bound = set()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
                    bound.add(id(value))
        if id(ThreadPoolExecutor) not in bound:
            self.absent.append("cli.pool")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)
        is_solver = name in _EIG_SOLVERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            if is_solver:
                tracer._local.solves = getattr(tracer._local, "solves", 0) + 1
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                with tracer._lock:
                    span = tracer.spans[name]
                    span[0] += 1
                    span[1] += wall
                    span[2] += wall - children[0]
                    span[3] += max(wall - cpu, 0.0)  # clock granularity
            if counter is not None:
                tracer._add(counter[0], counter[1](args, result))
            return result

        return wrapper

    def _source_wrapper(self, name: str, factory):
        """Wrap a memoized size -> eigenvalue lookup; a lookup that runs no
        eigenvalue solver on its thread is a cache hit."""
        tracer = self

        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            source = factory(*args, **kwargs)

            @functools.wraps(source)
            def lookup(size):
                before = getattr(tracer._local, "solves", 0)
                result = source(size)
                hit = getattr(tracer._local, "solves", 0) == before
                tracer._add("theory_bounds.eig_source.lookups", 1.0)
                tracer._add("theory_bounds.eig_source.hits", float(hit))
                return result

            return lookup

        return wrapped_factory

    def _pool_class(self):
        """ThreadPoolExecutor that adds its workers' CPU time and its
        capacity (max_workers x lifetime) to the pool counters."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._born = time.perf_counter()
                self._closed = False

            def submit(self, fn, /, *args, **kwargs):
                def task():
                    c0 = time.thread_time()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._add("cli.pool.cpu_s", time.thread_time() - c0)

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if not self._closed:
                    self._closed = True
                    tracer._add("cli.pool.fanouts", 1.0)
                    tracer._add("cli.pool.capacity_s",
                                self._max_workers * (time.perf_counter() - self._born))

        return TracedPool

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> float:
        """Calls recorded for a traced function, or pool fan-outs for cli.pool."""
        if name == "cli.pool":
            return self.counts["cli.pool.fanouts"]
        return self.spans[name][0]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the operations traced since the last reset,
        all but trace.overhead_frac, which needs the untraced runs."""
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            calls, _wall, self_s, wait = self.spans[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = self_s
            out[f"{name}.wait_s"] = wait
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        exact = "theory_bounds.sparse_eig_exact"
        for key in ("forward_select.steps", f"{exact}.subsets",
                    "theory_bounds.sparse_eig_sampled.subsets",
                    "theory_bounds.eig_source.lookups"):
            out[key] = c[key]
        out[f"{exact}.subsets_per_s"] = ratio(c[f"{exact}.subsets"], self.spans[exact][1])
        out["theory_bounds.eig_source.hit_frac"] = ratio(
            c["theory_bounds.eig_source.hits"], c["theory_bounds.eig_source.lookups"])
        out["cli.read_csv.mb_per_s"] = ratio(
            c["cli.read_csv.bytes"] / 1e6, self.spans["cli.read_csv"][1])
        out["cli.pool.busy_frac"] = ratio(c["cli.pool.cpu_s"], c["cli.pool.capacity_s"])
        return out
