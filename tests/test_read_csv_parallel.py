"""The parallel CSV parse: forced onto small files by shrinking
PARSE_CHUNK_BYTES and claiming three CPUs, it must give the serial parse's
names and arrays bit for bit, the serial parse's errors, and leave no
child process behind."""

import codecs
import errno
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from fwdreg import cli, parallel_csv
from fwdreg.cli import EXIT_INPUT, EXIT_OK, main, read_csv
from helpers import child_env


@pytest.fixture
def spy(monkeypatch):
    """Force the parallel parse. ``pids`` are the children it forks, and
    ``parallel`` says of each read whether it gave the result, rather than
    the serial parse."""
    monkeypatch.setattr(parallel_csv, "PARSE_CHUNK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    seen = SimpleNamespace(pids=[], parallel=[])
    fork, parse = os.fork, parallel_csv.parse_in_parallel

    def counted_fork():
        pid = fork()
        if pid:
            seen.pids.append(pid)
        return pid

    def watched_parse(*args):
        result = parse(*args)
        seen.parallel.append(result is not None)
        return result

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(parallel_csv, "parse_in_parallel", watched_parse)
    yield seen
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def serial(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel_csv, "PARSE_CHUNK_BYTES", 1 << 62)
        return fn(*args)


def assert_same(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes("A") == b.tobytes("A")


def cells(rows=60, cols=4, seed=0):
    values = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0 ** np.arange(cols)
    return [[repr(v) for v in row] for row in values.tolist()]


def write(path, header, rows, eol="\n", quote=False, blank=None, bom=False):
    """A CSV of ``rows``; ``blank(i)`` is the text put before data row i."""
    q = (lambda c: f'"{c}"') if quote else (lambda c: c)
    lines = [",".join(map(q, header)) + eol]
    for i, row in enumerate(rows):
        lines.append((blank(i) if blank else "") + ",".join(map(q, row)) + eol)
    path.write_bytes((codecs.BOM_UTF8 if bom else b"") + "".join(lines).encode())
    return str(path)


HEADERS = {
    "y_first": ["y", "a", "b", "c"],
    "y_inside": ["a", "b", "y", "c"],
    "y_last": ["a", "b", "c", "y"],
    "no_y": ["a", "b", "c", "d"],
}

FILES = {
    "plain": {},
    "crlf": {"eol": "\r\n"},
    "bare_cr": {"eol": "\r"},
    "bom": {"bom": True},
    "quoted": {"quote": True},
    "blank_lines": {"blank": lambda i: "\n \t\n" if i % 2 else ""},
    "blank_crlf": {"eol": "\r\n", "blank": lambda i: "\r\n" * (i % 3)},
    # the middle chunk holds only blank lines
    "blank_chunk": {"blank": lambda i: "\n" * 20000 if i == 30 else ""},
}


@pytest.mark.parametrize("header", HEADERS, ids=str)
@pytest.mark.parametrize("form", FILES, ids=str)
def test_parallel_parse_is_bit_identical(tmp_path, spy, header, form):
    path = write(tmp_path / "d.csv", HEADERS[header], cells(), **FILES[form])
    got = read_csv(path)
    assert spy.pids
    # a chunk of blank lines, or lines split by a bare "\r", send the
    # file to the serial parse
    assert spy.parallel == [form not in ("blank_chunk", "bare_cr")]
    assert_same(got, serial(read_csv, path))


@pytest.mark.parametrize("end", ["\n", "\r"], ids=["lf", "cr"])
def test_quoted_cell_holding_a_line_end(tmp_path, spy, end):
    """Text mode splits a line at either end, and loadtxt reads the quoted
    cell across the split. A chunk's lines split at "\n" only, so a cell
    holding one leaves a line with an odd number of quote marks and defers
    to the serial parse; a cell holding "\r" is read whole."""
    rows = cells()
    rows[45][1] = f'" {rows[45][1]}{end}"'
    path = write(tmp_path / "d.csv", HEADERS["y_last"], rows)
    got = read_csv(path)
    assert spy.pids and spy.parallel == [end == "\r"]
    assert got[1][45, 1] == float(rows[45][1].strip('"'))
    assert_same(got, serial(read_csv, path))


@pytest.mark.parametrize("encoding", ["utf-8", "latin1"])
def test_non_ascii_line_defers_to_the_serial_parse(tmp_path, spy, encoding):
    """A chunk is decoded as latin1, where the serial parse decodes UTF-8.
    numpy strips a no-break space from a cell, so the UTF-8 file parses;
    in the latin1 file it is the byte 0xa0, which is not UTF-8, so the
    serial parse must raise, and a chunk must not parse it either. The
    cell sits past the text the header read decodes ahead."""
    rows = cells(rows=600)
    rows[500][1] = "\u00a0" + rows[500][1]
    path = tmp_path / "d.csv"
    path.write_bytes("".join(",".join(row) + "\n" for row in [HEADERS["y_last"], *rows])
                     .encode(encoding))
    if encoding == "latin1":
        with pytest.raises(ValueError) as parallel:
            read_csv(str(path))
        with pytest.raises(ValueError) as plain:
            serial(read_csv, str(path))
        assert str(parallel.value) == str(plain.value)
    else:
        got = read_csv(str(path))
        assert got[1][500, 1] == float(rows[500][1])
        assert_same(got, serial(read_csv, str(path)))
    assert spy.pids and spy.parallel[0] is False


@pytest.mark.parametrize("bad", [
    pytest.param(lambda row: row[:2] + ["abc"] + row[3:], id="bad_cell"),
    pytest.param(lambda row: row[:1] + ["nan"] + row[2:], id="nan"),
    pytest.param(lambda row: row[:3] + ["-inf"], id="inf"),
    pytest.param(lambda row: row + ["1.0"], id="long_row"),
    pytest.param(lambda row: row[:3], id="short_row"),
])
@pytest.mark.parametrize("where", [40, 59], ids=lambda row: f"row{row}")
def test_error_in_a_child_chunk_is_the_serial_error(tmp_path, spy, bad, where):
    rows = cells()
    rows[where] = bad(rows[where])
    path = write(tmp_path / "d.csv", HEADERS["y_first"], rows,
                 blank=lambda i: "\n" if i % 7 == 0 else "")
    with pytest.raises(ValueError) as parallel:
        read_csv(path)
    assert spy.pids and spy.parallel == [False]
    with pytest.raises(ValueError) as plain:
        serial(read_csv, path)
    assert str(parallel.value) == str(plain.value)
    assert "line" in str(plain.value)


@pytest.mark.parametrize("bad, message", [
    pytest.param(lambda row: row[:2] + ["abc"] + row[3:],
                 "could not convert string 'abc' to float64 on line {}, column 3",
                 id="bad_cell"),
    pytest.param(lambda row: row[:1] + ["nan"] + row[2:],
                 "non-finite value in column 'a' on line {}", id="nan"),
    pytest.param(lambda row: row[:3], "the number of columns changed from 4 to 3 on line {}",
                 id="short_row"),
])
@pytest.mark.parametrize("blank", ["", "\n"], ids=["no_blank", "blank_after_header"])
def test_error_line_counts_every_header_line(tmp_path, spy, bad, message, blank):
    """The quoted last column name holds a line end, so the header spans
    two file lines and data row 40, in a child's chunk, is on line 43, or
    44 after a blank line."""
    rows = cells()
    rows[40] = bad(rows[40])
    path = tmp_path / "d.csv"
    path.write_text('y,a,b,"c\nd"\n' + blank + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(ValueError) as error:
        read_csv(str(path))
    assert spy.pids and spy.parallel == [False]
    assert message.format(43 + len(blank)) in str(error.value)


def test_every_chunk_ragged_alike_is_the_serial_error(tmp_path, spy):
    """Each chunk parses on its own, but the rows are wider than the header."""
    rows = [row + ["0.5"] for row in cells()]
    path = write(tmp_path / "d.csv", HEADERS["no_y"], rows)
    with pytest.raises(ValueError, match="row width does not match header") as parallel:
        read_csv(path)
    assert spy.pids and spy.parallel == [False]
    with pytest.raises(ValueError) as plain:
        serial(read_csv, path)
    assert str(parallel.value) == str(plain.value)


@pytest.mark.parametrize("fault", ["exit", "signal", "exit_after_sending", "short_payload"])
def test_failed_child_falls_back_to_the_serial_parse(tmp_path, spy, monkeypatch, fault):
    path = write(tmp_path / "d.csv", HEADERS["y_inside"], cells())
    fork, exit_, send = os.fork, os._exit, parallel_csv._send_chunk

    def dying_fork():
        pid = fork()
        if pid == 0:
            if fault == "exit":
                exit_(3)
            if fault == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
        return pid

    def send_short(fd, *args):
        code = send(os.dup(fd), *args)
        os.ftruncate(fd, os.fstat(fd).st_size - 8)
        return code

    monkeypatch.setattr(os, "fork", dying_fork)
    if fault == "exit_after_sending":  # only a child calls os._exit
        monkeypatch.setattr(os, "_exit", lambda code: exit_(3))
    if fault == "short_payload":
        monkeypatch.setattr(parallel_csv, "_send_chunk", send_short)
    got = read_csv(path)
    assert spy.pids and spy.parallel == [False]
    assert_same(got, serial(read_csv, path))


@pytest.mark.parametrize("data, pos, start", [
    (b"ab\ncd\n", 0, 3), (b"ab\ncd\n", 2, 3), (b"ab\ncd\n", 3, 6), (b"ab\ncd", 3, 5),
    (b"ab\rcd\r", 1, 3), (b"ab\r\ncd\r\n", 2, 4), (b"ab\r\ncd\r\n", 3, 4),
    (b"\n\nx", 0, 1), (b"\n\nx", 1, 2),
    # a "\r\n" split across the 64 KiB blocks the search reads
    (b"a" * 65535 + b"\r\nb\n", 0, 65537), (b"a" * 65535 + b"\r\rb\n", 0, 65536),
])
def test_line_start(tmp_path, data, pos, start):
    path = tmp_path / "lines"
    path.write_bytes(data)
    with open(path, "rb") as raw:
        assert parallel_csv._line_start(raw, pos) == start


_ORPHANS_SCRIPT = """
import os, sys
from fwdreg import cli, parallel_csv
parallel_csv.PARSE_CHUNK_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
fork, parse, parent = os.fork, parallel_csv._parse_chunk, os.getpid()

def reported_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def parse_or_die(*args):
    if os.getpid() == parent:
        os._exit(0)  # the parent dies while its children parse
    return parse(*args)

os.fork, parallel_csv._parse_chunk = reported_fork, parse_or_die
cli.read_csv(sys.argv[1])
"""


def test_children_of_a_dead_parent_exit(tmp_path):
    """A child whose parent is gone still finishes and exits, so it
    closes the stdout it inherited."""
    rows = cells(rows=1000, cols=40)
    path = write(tmp_path / "d.csv", [f"x{j}" for j in range(40)], rows)
    try:
        done = subprocess.run([sys.executable, "-c", _ORPHANS_SCRIPT, path],
                              capture_output=True, text=True, timeout=60, env=child_env())
    except subprocess.TimeoutExpired as exc:
        for pid in (exc.stdout or b"").split():
            os.kill(int(pid), signal.SIGKILL)
        raise
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 2


def test_failed_fork_falls_back_to_the_serial_parse(tmp_path, spy, monkeypatch):
    path = write(tmp_path / "d.csv", HEADERS["y_first"], cells())
    fork = os.fork

    def fork_once():
        if spy.pids:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    got = read_csv(path)
    assert len(spy.pids) == 1 and spy.parallel == [False]
    assert_same(got, serial(read_csv, path))


def test_fifo_is_parsed_serially(tmp_path, spy):
    src = write(tmp_path / "d.csv", HEADERS["y_last"], cells())
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([
        sys.executable, "-c",
        "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())",
        src, str(fifo)])
    try:
        got = read_csv(str(fifo))
    finally:
        assert writer.wait(timeout=60) == 0
    assert not spy.pids and spy.parallel == [False]
    assert_same(got, serial(read_csv, src))


def test_small_file_is_parsed_serially(tmp_path, spy, monkeypatch):
    path = write(tmp_path / "d.csv", HEADERS["y_last"], cells())
    monkeypatch.setattr(parallel_csv, "PARSE_CHUNK_BYTES", os.path.getsize(path) // 2)
    read_csv(path)
    assert not spy.pids and spy.parallel == [False]


@pytest.mark.parametrize("command", [["fit", "-t", "0.01"], ["compare", "-t", "0.01"],
                                     ["sparse-eig", "--s", "2"]], ids=lambda c: c[0])
def test_commands_report_alike_and_leave_no_child(tmp_path, spy, command):
    path = write(tmp_path / "d.csv", HEADERS["y_inside"], cells())
    out, ref = tmp_path / "out.json", tmp_path / "ref.json"
    assert main([*command, "-i", path, "-o", str(out)]) == EXIT_OK
    assert spy.pids and spy.parallel == [True]
    assert serial(main, [*command, "-i", path, "-o", str(ref)]) == EXIT_OK
    assert out.read_bytes() == ref.read_bytes()

    rows = cells()
    rows[50][0] = "oops"
    bad = write(tmp_path / "bad.csv", HEADERS["y_inside"], rows)
    assert main([*command, "-i", bad, "-o", str(out)]) == EXIT_INPUT
