"""Fan jobs out over forked processes, and parse a large CSV that way.

``fan_out`` runs a worker on a list of jobs over forked worker processes
on a Linux-like system, and in the calling process elsewhere or on any
failure, so the result is the serial run's whatever the process count.
``cli.run_verify`` and ``cli.run_rates`` fan out their replications.
``cli.read_csv`` reads and checks the header, then calls
``parse_in_parallel``, which fans out runs of whole lines: each is parsed
with the serial parse's np.loadtxt arguments, reading the run's bytes as
latin1, which for the ASCII text it accepts is the serial parse's UTF-8,
and the design is assembled one run at a time. A run that fails to parse
gives None, and ``read_csv`` then parses the file serially, which reports
every error.
"""

from __future__ import annotations

import mmap
import os
import pickle
import re
import signal
import stat
import threading
import warnings
from functools import partial
from typing import BinaryIO, Callable, Iterator, Optional, Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# the CSV parse

# Bytes of data rows per parse chunk: a regular file with at least two
# chunks' worth is parsed by that many processes, at most one per CPU this
# process may run on. On a 2-vCPU Xeon (Python 3.11, numpy 2.4, median of
# 15) a fork plus reap costs 2-3 ms and the serial parse 12-17 ms per MB.
# Split in two, a 1 MB parse gains nothing (17 ms), a 1.9 MB one drops
# from 33 to 23 ms, 3.8 MB from 62 to 43 ms and 7.6 MB from 123 to 77 ms.
PARSE_CHUNK_BYTES = 1 << 21

# how both parses call np.loadtxt: cells may be quoted, "#" is no comment
LOADTXT_ARGS = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)
# a line ends as in text mode with newline="": "\r\n", "\r" or "\n"
_LINE_END = re.compile(rb"\r\n?|\n")


def design_and_y(tables: list[np.ndarray],
                 yi: Optional[int]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """read_csv's (design, y) from its parsed data rows, ``tables`` in row
    order, each dropped from the list once copied: y is column ``yi``, the
    design the others, F-ordered, the layout whose column reductions the
    reports' last digits depend on. Without ``yi`` the design is a lone
    table itself, or the tables joined in C order."""
    if yi is None and len(tables) == 1:
        return tables.pop(), None
    n, width = sum(map(len, tables)), tables[0].shape[1]
    x = np.empty((n, width)) if yi is None else np.empty((n, width - 1), order="F")
    y = None if yi is None else np.empty(n)
    row = 0
    while tables:
        table = tables.pop(0)
        rows = slice(row, row := row + len(table))
        if yi is None:
            x[rows] = table
        else:
            x[rows, :yi] = table[:, :yi]
            x[rows, yi:] = table[:, yi + 1:]
            y[rows] = table[:, yi]
    return x, y


def _line_start(raw: BinaryIO, pos: int) -> int:
    """The first line start after byte ``pos`` of ``raw``, or the file
    size if no line starts there."""
    base = pos
    raw.seek(base)
    while block := raw.read(1 << 16):
        if block.endswith(b"\r"):
            block += raw.read(1)  # so a "\r\n" split across blocks matches whole
        end = _LINE_END.search(block)
        if end:
            return base + end.end()
        base += len(block)
    return base


def _chunk_lines(path: str, begin: int, end: int) -> Iterator[bytes]:
    """The non-blank lines of bytes [begin, end) of ``path``, which start
    and end at line starts, as the serial parse splits and skips them.
    Raises ValueError on a line that is not ASCII (there latin1, the
    decoding loadtxt does fastest, could differ from the serial parse's
    UTF-8) or that holds an odd number of quote marks (a quoted cell could
    then run into the next chunk). loadtxt itself rejects a carriage
    return inside a line and outside quotes, where text mode would split
    the line."""
    with open(path, "rb") as raw:
        raw.seek(begin)
        while begin < end:
            line = raw.readline(end - begin)
            if not line:  # the file shrank
                raise ValueError("short chunk")
            begin += len(line)
            if not line.isascii() or b'"' in line and line.count(b'"') % 2:
                raise ValueError("line needs the serial parse")
            if not line.isspace():
                yield line


def _parse_chunk(path: str, width: int, span: tuple[int, int]) -> Optional[np.ndarray]:
    """The rows of bytes [begin, end) = ``span`` of ``path`` as the serial
    parse reads them, or None if they fail to parse, warn (as on no rows),
    are not ``width`` wide or hold a non-finite cell."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a chunk of blank lines
        try:
            data = np.loadtxt(_chunk_lines(path, *span), encoding="latin1", **LOADTXT_ARGS)
        except Exception:  # the serial parse reports it
            return None
    if data.shape[1] != width or not np.isfinite(data).all():
        return None
    return data


def _chunk_bounds(path: str, header_lines: int, size: int, cpus: int) -> list[int]:
    """Byte offsets that split the data rows of ``path``, the lines after
    its first ``header_lines``, into at most ``cpus`` runs of whole lines
    of about PARSE_CHUNK_BYTES or more: the first run's start, then each
    run's end."""
    with open(path, "rb") as raw:
        begin = 0
        for _ in range(header_lines):
            begin = _line_start(raw, begin)
        bounds = [begin]
        chunks = min(cpus, (size - begin) // PARSE_CHUNK_BYTES)
        for i in range(1, chunks):
            start = _line_start(raw, begin + (size - begin) * i // chunks)
            if bounds[-1] < start < size:
                bounds.append(start)
    return bounds + [size]


def parse_in_parallel(path: str, fd: int, header_lines: int, width: int,
                      yi: Optional[int]) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Parse the data rows of the open regular file ``fd`` in chunks, fanned
    out one per process: (design, y) as read_csv returns them, y None when
    ``yi`` is. None when the file is too small to split, this process cannot
    fork workers, or any chunk fails; the serial parse then reads the file
    and reports any error."""
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    bounds = _chunk_bounds(path, header_lines, info.st_size, usable_cpus())
    if len(bounds) < 3:
        return None
    spans = list(zip(bounds, bounds[1:]))
    tables = fan_out(partial(_parse_chunk, path, width), spans, len(spans))
    if any(table is None for table in tables):
        return None
    return design_and_y(tables, yi)
