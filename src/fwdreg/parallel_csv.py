"""Parse a large CSV's data rows in parallel, in forked processes.

``cli.read_csv`` reads and checks the header, then calls
``parse_in_parallel``. Each forked child parses a run of whole lines with
the serial parse's np.loadtxt arguments, reading the run's bytes as
latin1, which for the ASCII text it accepts is the serial parse's UTF-8,
and writes its rows to a memory file; the calling process parses the
first run meanwhile and assembles the design one run at a time. Any
failure gives None, and ``read_csv`` then parses the file serially, which
reports every error.
"""

from __future__ import annotations

import mmap
import os
import re
import signal
import stat
import threading
import warnings
from typing import BinaryIO, Iterator, Optional

import numpy as np

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


def _parse_chunk(path: str, begin: int, end: int, width: int) -> Optional[np.ndarray]:
    """The rows of bytes [begin, end) of ``path`` as the serial parse reads
    them, or None if they fail to parse, warn (as on no rows), are not
    ``width`` wide or hold a non-finite cell."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a chunk of blank lines
        try:
            data = np.loadtxt(_chunk_lines(path, begin, end), encoding="latin1",
                              **LOADTXT_ARGS)
        except Exception:  # the serial parse reports it
            return None
    if data.shape[1] != width or not np.isfinite(data).all():
        return None
    return data


def _send_chunk(fd: int, path: str, begin: int, end: int, width: int) -> int:
    """Parse a chunk in a forked child and write its (rows, cols) and raw
    float64 cells to the memory file ``fd``; the child's exit status."""
    data = _parse_chunk(path, begin, end, width)
    if data is None:
        return 1
    with open(fd, "wb") as out:
        out.write(np.array(data.shape, dtype=np.int64).tobytes())
        out.write(memoryview(data).cast("B"))
    return 0


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
    """Parse the data rows of the open regular file ``fd`` in chunks, one
    per process: (design, y) as read_csv returns them, y None when ``yi``
    is. None when the file is too small to split, this system cannot fork,
    or any chunk fails; the serial parse then reads the file and reports
    any error. Every forked child is reaped before this returns."""
    cpus = getattr(os, "sched_getaffinity", None)
    # forking while another Python thread runs could copy a lock it holds
    if (cpus is None or not hasattr(os, "fork") or not hasattr(os, "memfd_create")
            or threading.active_count() > 1):
        return None
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    bounds = _chunk_bounds(path, header_lines, info.st_size, len(cpus(0)))
    if len(bounds) < 3:
        return None

    children: list[int] = []  # forked and not yet reaped
    files: list[int] = []     # the children's memory files, in chunk order
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a multi-threaded process may
            # deadlock the child; the other threads are the BLAS pool's,
            # and a child runs no BLAS, only loadtxt and os._exit
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            for begin, end in zip(bounds[1:], bounds[2:]):
                try:
                    files.append(os.memfd_create("fwdreg-chunk"))
                    pid = os.fork()
                except OSError:  # out of processes or files
                    return None
                if pid == 0:  # the child: parse, send and exit, whatever happens
                    code = 1
                    try:
                        code = _send_chunk(files[-1], path, begin, end, width)
                    finally:
                        os._exit(code)
                children.append(pid)
        tables = [_parse_chunk(path, bounds[0], bounds[1], width)]
        if tables[0] is None:
            return None
        while children:
            _pid, status = os.waitpid(children[0], 0)
            children.pop(0)
            if status != 0:
                return None
        for f in files:
            count, cols = np.frombuffer(os.pread(f, 16, 0).ljust(16, b"\0"), dtype=np.int64)
            if cols != width or os.fstat(f).st_size != 16 + 8 * count * cols:
                return None
            cells = mmap.mmap(f, 0, prot=mmap.PROT_READ)  # unmapped with its table
            tables.append(np.frombuffer(cells, np.float64, offset=16).reshape(count, width))
        return design_and_y(tables, yi)
    finally:
        for f in files:
            os.close(f)
        for pid in children:  # stopped early: a child may still be parsing
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
