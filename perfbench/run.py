"""End-to-end and per-layer benchmark of the fwdreg CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py. Inputs are generated from --seed
into .perfbench_work/ before timing starts, then operations run back to
back (a closed loop with one client) until --seconds have passed.

--trace 0 runs each operation as its own `python -m fwdreg.cli` process
and reports end-to-end metrics: wall and CPU (user+sys from os.wait4)
seconds per operation as a trimmed mean, work per second from that wall
time, the median peak RSS, and setup_s, the median wall time of
`fwdreg --help`, which imports the package and exits.

--trace 1 runs the operations in this process, alternating untraced and
traced calls to fwdreg.cli.main, and reports per-layer metrics from the
traced ones (see tracer.py), each the median over traced operations.

Every operation's output is checked; the last stdout line is
{"correct", "attempted", "failed", "metrics"}, and the line before it
holds the detail: machine, inputs, samples, failures, absent layers.
The BLAS pool is pinned to one thread in this process and its children.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(cli_args: list[str], log_path: str) -> tuple[int, float, float, float]:
    """Run `python -m fwdreg.cli ARGS` and wait for it.

    Returns (exit code, wall s, user+sys CPU s, peak RSS MB).
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fwdreg.cli", *cli_args],
                                stdout=log, stderr=subprocess.STDOUT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def machine() -> dict:
    import numpy as np
    import scipy

    model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), model)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
    ) if shutil.which("git") else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": commit.stdout.strip() if commit and commit.returncode == 0 else "unknown",
    }


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth of the values.

    The host's CPU speed drifts over seconds, so one run's per-operation
    times mix fast and slow spells; a median of ten or so of them jumps
    between the two, while this mean follows the share of each and still
    ignores a lone stalled operation.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(p[:300] for p in problems[: max(0, 10 - len(self.problems))])


def checked(case, code: int, log: str) -> list[str]:
    """Problems with one operation's output; a failed run adds its last log line."""
    try:
        problems = case.check(code)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        problems.append(f"log: {lines[-1] if lines else ''}")
    return problems


def measure_processes(case, seconds: float, work_dir: str, tally: Tally) -> tuple[dict, dict]:
    log = os.path.join(work_dir, "child.log")
    setup = []
    for i in range(SETUP_REPEATS + 1):  # the first call also compiles bytecode
        code, wall, _cpu, _rss = run_child(["--help"], log)
        if code != 0:
            raise RuntimeError(f"fwdreg --help exited {code}")
        if i:
            setup.append(wall)

    walls, cpus, rsss = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        with contextlib.suppress(FileNotFoundError):
            os.remove(case.out)
        code, wall, cpu, rss = run_child(case.argv, log)
        tally.record(checked(case, code, log))
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)

    wall_s = trimmed_mean(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "work_per_s": (case.work / wall_s, "1/s"),
        "cpu_s": (trimmed_mean(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {"samples": len(walls), "wall_s_median": statistics.median(walls),
              "wall_s_max": max(walls), "wall_s_all": walls, "cpu_s_all": cpus,
              "peak_rss_mb_all": rsss, "setup_s_all": setup}
    return metrics, detail


def measure_traced(workload, case, seconds: float, work_dir: str, tally: Tally) -> tuple[dict, dict]:
    import fwdreg.cli
    from tracer import METRICS, Tracer

    tracer = Tracer()
    log = os.path.join(work_dir, "inprocess.log")

    def one_op() -> float:
        with contextlib.suppress(FileNotFoundError):
            os.remove(case.out)
        with open(log, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
            t0 = time.perf_counter()
            try:
                code = fwdreg.cli.main(case.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this operation, as exit 1 would
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - t0
        tally.record(checked(case, code, log))
        return wall

    untraced, traced, per_op = [], [], []
    silent: set[str] = set()  # expected layers that recorded no calls
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(one_op())
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_op())
        finally:
            tracer.uninstall()
        per_op.append(tracer.metrics())
        silent.update(name for name in workload.expected
                      if name not in tracer.absent and tracer.calls(name) == 0)

    metrics = {}
    for name, unit, _better in METRICS:
        if name == "trace.overhead_frac":
            value = statistics.median(traced) / statistics.median(untraced) - 1.0
        else:
            value = statistics.median(op[name] for op in per_op)
        metrics[name] = (value, unit)
    detail = {"samples": len(traced), "traced_wall_s_all": traced,
              "untraced_wall_s_all": untraced, "absent": tracer.absent,
              "silent": sorted(silent)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "fwdreg", "cli.py")):
        print(f"no fwdreg sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)  # the checker imports the oracle from the sources under test
    workload = WORKLOADS[args.workload]
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "why": workload.why, "work_unit": workload.work_unit,
            "layer_moves": workload.moves, "machine": machine()}

    work_dir = os.path.join(WORK_ROOT, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        log = os.path.join(work_dir, "reference.log")
        case = workload.prepare(work_dir, args.seed, lambda a: run_child(a, log)[0])
        tally = Tally()
        if args.trace:
            metrics, detail = measure_traced(workload, case, args.seconds, work_dir, tally)
        else:
            metrics, detail = measure_processes(case, args.seconds, work_dir, tally)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    info.update(inputs=case.inputs, work_per_op=case.work, **detail,
                fail_frac=tally.failed / tally.attempted, problems=tally.problems)
    print(json.dumps(info))
    print(json.dumps({
        # a traced run is wrong too when an expected layer recorded nothing
        "correct": tally.failed == 0 and not detail.get("silent"),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
