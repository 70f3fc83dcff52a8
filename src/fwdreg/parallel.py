"""Fan jobs out over forked processes.

``fan_out`` runs a worker on a list of jobs over forked worker processes
on a Linux-like system, and in the calling process elsewhere or on any
failure, so the result is the serial run's whatever the process count.
``experiment.replicate`` fans out the replications of verify and rates,
and ``cli.read_csv`` the chunks of a large CSV.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
import warnings
from typing import Callable, Optional, Sequence

# a payload's out-of-band buffers start at multiples of this many bytes,
# so the arrays mapped onto them are aligned for any dtype
_ALIGN = 64


def usable_cpus() -> int:
    """How many processes fan_out may run at once: the CPUs this process
    may run on, or 1 when it cannot fork workers, because the system lacks
    fork, memfd_create or sched_getaffinity or because another Python
    thread runs (a child could inherit a lock that thread holds)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if (affinity is None or not hasattr(os, "fork") or not hasattr(os, "memfd_create")
            or threading.active_count() > 1):
        return 1
    return len(affinity(0))


def fan_out(worker: Callable, jobs: Sequence, workers: int) -> list:
    """``[worker(job) for job in jobs]`` over up to ``workers`` processes.

    With count = min(workers, len(jobs), usable_cpus()) > 1, it forks
    count - 1 children: child w runs jobs[w::count] and sends its results
    back through a memory file, while this process runs jobs[0::count].
    Arrays in a child's results come back read-only, mapped onto that
    file, so their cells are never copied. Every job runs in this process
    instead, in job order, when one process would do or anything fails (a
    worker raises, a fork fails, a child dies, a payload is short), so the
    results, and any error raised, are the serial run's. No child outlives
    the call.
    """
    if workers < 1:
        raise ValueError("threads must be >= 1")  # --threads counts the workers
    jobs = list(jobs)
    count = min(workers, len(jobs), usable_cpus())
    if count > 1:
        results = _forked(worker, jobs, count)
        if results is not None:
            return results
    return [worker(job) for job in jobs]


def _forked(worker: Callable, jobs: list, count: int) -> Optional[list]:
    """fan_out's results from ``count`` processes, or None on any failure."""
    children: list[int] = []  # forked and not yet reaped
    files: list[int] = []     # the children's memory files, in share order
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a multi-threaded process may
            # deadlock the child. The other threads are the BLAS pool's, and
            # a child may run BLAS: OpenBLAS stops its pool before a fork and
            # starts it again after, in the parent and in the child.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            for w in range(1, count):
                files.append(os.memfd_create("fwdreg-jobs"))
                pid = os.fork()
                if pid == 0:  # the child: run, send and exit, whatever happens
                    code = 1
                    try:
                        code = _send(files[-1], [worker(job) for job in jobs[w::count]])
                    finally:
                        os._exit(code)
                children.append(pid)
        shares = [[worker(job) for job in jobs[::count]]]
        while children:
            _pid, status = os.waitpid(children[0], 0)
            children.pop(0)
            if status != 0:
                return None
        shares += map(_receive, files)
        results = [None] * len(jobs)
        for w, share in enumerate(shares):
            results[w::count] = share
        return results
    except Exception:  # the serial run raises any error again
        return None
    finally:
        for f in files:
            os.close(f)
        for pid in children:  # stopped early: a child may still be running
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(fd: int, results: list) -> int:
    """Write a child's ``results`` to its memory file ``fd``; the child's
    exit status. The payload is a protocol-5 pickle: a head, which holds
    the pickle stream and the sizes of its out-of-band buffers, then each
    buffer at an _ALIGN boundary."""
    buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(results, protocol=5, buffer_callback=buffers.append)
    views = [b.raw() for b in buffers]
    with open(fd, "wb") as out:
        pickle.dump((stream, [v.nbytes for v in views]), out, protocol=5)
        for view in views:
            out.write(bytes(-out.tell() % _ALIGN))
            out.write(view)
    return 0


def _receive(fd: int) -> list:
    """The results _send wrote to ``fd``, each out-of-band buffer a view
    of the file mapped read-only. Raises if the file is cut short."""
    with open(fd, "rb", closefd=False) as payload:
        payload.seek(0)  # the child's writes moved the offset this fd shares
        stream, lengths = pickle.load(payload)
        end = payload.tell()
    cells = memoryview(mmap.mmap(fd, 0, prot=mmap.PROT_READ))  # unmapped with its arrays
    buffers = []
    for length in lengths:
        begin = end + -end % _ALIGN
        end = begin + length
        buffers.append(cells[begin:end])
    if end != len(cells):
        raise ValueError("short payload")
    return pickle.loads(stream, buffers=buffers)
