"""Command-line front end.

Commands: fit, verify, rates, sparse-eig, compare. CSV input uses a
header row with the response in a column named "y" and every other
column treated as a covariate, in header order. JSON reports carry a
schema_version field and use shortest round-trip float formatting, so a
fixed seed yields byte-identical reports.

Exit codes: 0 ok, 2 input/config error, 3 data degeneracy,
4 bound-check failure.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import os
import re
import stat
import sys
import warnings
from collections import Counter
from dataclasses import asdict, replace
from functools import partial
from typing import Any, BinaryIO, Iterator, Optional, Sequence

import numpy as np

from . import experiment, parallel, theory_bounds
from .core_linalg import (
    Dataset,
    gram,
    least_squares_on_support,
    standardize,
)
from .errors import ColumnError, FwdregError, ZeroVarianceColumn
from .forward_select import forward_regression
from .simulate import SimConfig

SCHEMA_VERSION = "4"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_BOUND_FAILURE = 4


# ---------------------------------------------------------------------------
# I/O helpers


def write_json(path: str, payload: dict) -> None:
    """Write a JSON report, stamped with SCHEMA_VERSION."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


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


def parse_in_parallel(path: str, fd: int, header_lines: int,
                      width: int) -> Optional[list[np.ndarray]]:
    """read_csv's data rows of the open regular file ``fd``, parsed in runs
    of whole lines fanned out one per process (parallel.fan_out): the
    tables in row order, each parsed with the serial parse's np.loadtxt
    arguments from its bytes read as latin1, which for the ASCII text it
    accepts is the serial parse's UTF-8. None when the file is too small
    to split, this process cannot fork workers, or any run fails; the
    serial parse then reads the file and reports any error."""
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return None
    bounds = _chunk_bounds(path, header_lines, info.st_size, parallel.usable_cpus())
    if len(bounds) < 3:
        return None
    spans = list(zip(bounds, bounds[1:]))
    tables = parallel.fan_out(partial(_parse_chunk, path, width), spans, len(spans))
    if any(table is None for table in tables):
        return None
    return tables


def read_csv(path: str) -> tuple[list[str], np.ndarray, Optional[np.ndarray], Optional[int]]:
    """Read a data CSV: (covariate names, raw design, response or None,
    0-based header column of the response or None).

    The response column must be named "y"; if absent, every column is a
    covariate (useful for sparse-eig). A UTF-8 byte-order mark is dropped.
    Cells may be double-quoted, blank (or whitespace-only) lines are
    skipped and "#" is an ordinary character, not a comment. Raises
    ValueError for an empty file, a file without data rows, an empty or
    duplicate column name, a non-numeric or non-finite cell, or a row whose
    width differs from the header or from the rows before it. Row errors
    name the file line, counting every line the header spans.

    Rows stream into the parser, so the text is never held whole. With a
    "y" column the returned arrays are copies and the parsed table is
    freed on return; without one the design is the table itself.

    A regular file with at least 2 * PARSE_CHUNK_BYTES of data rows is
    parsed by parallel.fan_out: on a Linux-like system with more than one
    usable CPU and no other Python thread, forked children, at most one
    per CPU, each parse a run of whole lines while this process parses
    the first, and the design is assembled one run at a time. The result
    is byte-identical to the serial parse. A run that fails to parse (a
    bad, non-finite or ragged cell) sends the file to the serial parse,
    so errors and their file lines come from it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        start = reader.line_num + 1  # the header may span several lines
        blanks: list[int] = []  # file lines of the skipped blank lines

        def file_line(row: int) -> int:
            """File line of 0-based data row ``row``."""
            line = row + start
            for blank in blanks:
                if blank > line:
                    break
                line += 1
            return line

        def data_lines():
            for num, line in enumerate(fh, start):
                if line.isspace():
                    blanks.append(num)
                else:
                    yield line

        lines = data_lines()
        # checked before parsing, so numpy never warns about empty input
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        header = [h.strip() for h in header]
        if "" in header:
            raise ValueError(f"{path}: empty column name in column {header.index('') + 1}")
        dupes = [h for h, count in Counter(header).items() if count > 1]
        if dupes:
            raise ValueError(f"{path}: duplicate column name {dupes[0]!r}")
        names = [h for h in header if h != "y"]
        yi = header.index("y") if "y" in header else None
        tables = parse_in_parallel(path, fh.fileno(), reader.line_num, len(header))
        if tables is None:
            try:
                data = np.loadtxt(itertools.chain([first], lines), **LOADTXT_ARGS)
            except ValueError as exc:
                # loadtxt numbers the rows it was given: 0-based in "at row R,
                # column C" (a bad cell), 1-based in "at row R;" (a ragged row)
                def at_line(m: re.Match) -> str:
                    return f"on line {file_line(int(m[1]) - (m[2] is None))}{m[2] or ''}"

                message = re.sub(r"at row (\d+)(, column)?", at_line, str(exc))
                # drop loadtxt's advice to pass `usecols`, which the CLI has no option for
                message = re.sub(r"; use `usecols`.*", "", message)
                raise ValueError(f"{path}: {message}") from None
            if data.shape[1] != len(header):
                raise ValueError(f"{path}: row width does not match header")
            # reject NaN and inf here, before any arithmetic can spread them
            finite = np.isfinite(data)
            if not finite.all():
                row, col = np.argwhere(~finite)[0]
                raise ValueError(f"{path}: non-finite value in column {header[col]!r} "
                                 f"on line {file_line(row)}")
            del finite  # free the table-sized mask before the design is copied out
            tables = [data]
    return (names, *design_and_y(tables, yi), yi)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _standardize_csv(path: str, names: Sequence[str], x: np.ndarray,
                    yi: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """standardize(x) for a design that read_csv returned with ``names`` and
    ``yi``; a constant or overflowing column is named by its header name
    and its 1-based column in the file."""
    try:
        return standardize(x)
    except ColumnError as exc:
        j = exc.column
        column = j + 1 + (yi is not None and j >= yi)
        raise type(exc)(j, f"{path}: column {names[j]!r} (CSV column {column}) "
                           f"{exc.reason}") from None


def read_dataset(path: str) -> tuple[list[str], Dataset, np.ndarray, np.ndarray, float]:
    """Read a CSV into a Dataset of standardized covariates and centred "y":
    (names, dataset, column means, column scales, mean of y)."""
    names, x, y, yi = read_csv(path)
    if y is None:
        raise ValueError(f"{path}: no response column named 'y'")
    mean, scale = _standardize_csv(path, names, x, yi)
    with np.errstate(over="ignore", invalid="ignore"):  # forward_regression reports it
        y_mean = float(y.mean())
        y -= y_mean
    return names, Dataset(x=x, y=y), mean, scale, y_mean


# ---------------------------------------------------------------------------
# fit


def fit_csv(path: str, t: float) -> dict:
    """Standardize, run forward regression and express coefficients in the
    original units of the input columns."""
    names, ds, mean, scale, y_mean = read_dataset(path)
    fr = forward_regression(ds, t)

    # back-transformation: standardized slope b maps to b / scale in the
    # original units; the intercept restores both the column and y means
    beta = fr.theta_hat / scale
    intercept = y_mean - float(beta @ mean)
    return {
        "threshold": t,
        "support": list(fr.support),
        "support_names": [names[j] for j in fr.support],
        "coefficients": {names[j]: float(beta[j]) for j in fr.support},
        "intercept": intercept,
        "loss": fr.loss,
        "trace": [{**asdict(s), "name": names[s.index]} for s in fr.steps],
    }


def cmd_fit(args: argparse.Namespace) -> int:
    report = fit_csv(args.input, args.threshold)
    write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify and rates


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a repeated key, whose last value json would
    keep, raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_sim_config(path: str, seed: Optional[int]) -> SimConfig:
    """Read a SimConfig JSON file; a ``seed`` other than None replaces its seed.
    An error in the file (not UTF-8, not JSON, a repeated key, a bad field)
    is a ValueError that names ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = SimConfig(**json.load(fh, object_pairs_hook=_unique_keys))
    except TypeError as exc:
        raise ValueError(f"{path}: bad SimConfig ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg if seed is None else replace(cfg, seed=seed)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config, args.seed)
    report, all_pass = experiment.run_verify(
        cfg,
        replications=args.replications,
        safety=args.safety,
        phi_size=args.phi_size,
        threads=args.threads,
    )
    write_json(args.out, report)
    if not all_pass:
        print("bound check failed on at least one replication", file=sys.stderr)
        return EXIT_BOUND_FAILURE
    return EXIT_OK


def cmd_rates(args: argparse.Namespace) -> int:
    cfg = load_sim_config(args.config, args.seed)
    summary = experiment.run_rates(
        cfg,
        n_grid=args.n_grid,
        replications=args.replications,
        safety=args.safety,
        threads=args.threads,
    )
    rows = summary["rows"]
    write_csv(args.out, list(rows[0]), [list(r.values()) for r in rows])
    # the thresholds come from the sampled phi, an upper bound on phi_min
    print(json.dumps({"slope": summary["slope"],
                      "slope_flag": summary["slope_flag"],
                      "phi_upper_bound_only": True}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sparse-eig


def cmd_sparse_eig(args: argparse.Namespace) -> int:
    names, x, _y, yi = read_csv(args.input)
    if not names:  # a lone "y" column
        raise ValueError("need at least one observation and one covariate")
    _standardize_csv(args.input, names, x, yi)
    rep = theory_bounds.sparse_eig(gram(x), args.s)
    payload = {**asdict(rep), "witness_names": [names[j] for j in rep.witness]}
    write_json(args.out, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def compare_csv(path: str, t: float, k: Optional[int] = None) -> dict:
    """Greedy-vs-exhaustive comparison at equal support size.

    The greedy support is the first k forward selections (k defaults to
    the full selected size), refit by least squares; the exhaustive side
    is the best size-k subset. k must lie in 0..s_hat, the sizes the
    greedy side has; this is checked before the exhaustive search.
    """
    from . import oracle  # imported here, so that the other commands do not load it
    names, ds, *_moments = read_dataset(path)
    fr = forward_regression(ds, t)
    k = fr.s_hat if k is None else int(k)
    if not 0 <= k <= fr.s_hat:
        raise ValueError(
            f"k must be between 0 and the selected size {fr.s_hat}, got {k}"
        )

    greedy_support = tuple(sorted(s.index for s in fr.steps[:k]))
    _theta, greedy_loss = least_squares_on_support(ds, greedy_support)
    best_support, best_loss = oracle.best_subset(ds, k)
    return {
        "threshold": t,
        "k": k,
        "greedy_support": list(greedy_support),
        "greedy_support_names": [names[j] for j in greedy_support],
        "greedy_loss": greedy_loss,
        "best_subset_support": list(best_support),
        "best_subset_support_names": [names[j] for j in best_support],
        "best_subset_loss": best_loss,
        "greedy_gap": greedy_loss - best_loss,
    }


def cmd_compare(args: argparse.Namespace) -> int:
    report = compare_csv(args.input, args.threshold, args.k)
    write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch


def _n_grid(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwdreg",
        description="Thresholded forward regression with bound diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several commands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", "-o", required=True, help="output path")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", "-i", required=True)
    threshold = argparse.ArgumentParser(add_help=False)
    threshold.add_argument("--threshold", "-t", type=float, required=True)
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--config", required=True, help="SimConfig JSON path")
    sim.add_argument("--replications", type=int, default=100)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes for the replications: forks up to one "
                          "per usable CPU on Linux, runs in the calling process "
                          "elsewhere; the outputs do not depend on it")
    sim.add_argument("--safety", type=float, default=1.1)

    fit = sub.add_parser("fit", parents=[data, threshold, out],
                         help="fit a CSV dataset by forward regression")
    fit.set_defaults(func=cmd_fit)

    verify = sub.add_parser("verify", parents=[sim, out],
                            help="simulate and check prediction/selection bounds")
    verify.add_argument("--phi-size", type=int, default=None)
    verify.set_defaults(func=cmd_verify)

    rates = sub.add_parser("rates", parents=[sim, out],
                           help="error-rate sweep over sample sizes")
    rates.add_argument("--n-grid", type=_n_grid, required=True,
                       help="comma list, e.g. 200,400,800,1600")
    rates.set_defaults(func=cmd_rates)

    eig = sub.add_parser("sparse-eig", parents=[data, out],
                         help="minimum sparse eigenvalue of the Gram matrix, as an "
                              "interval [lower, value]; exact when C(p, s) is within "
                              "the enumeration budget")
    eig.add_argument("--s", type=int, required=True)
    eig.set_defaults(func=cmd_sparse_eig)

    compare = sub.add_parser("compare", parents=[data, threshold, out],
                             help="greedy vs exhaustive best subset")
    compare.add_argument("--k", type=int, default=None)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroVarianceColumn as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (FwdregError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    """The console script. The objects that numpy and fwdreg create at
    import live until exit, so they are frozen first: the full garbage
    collections during the run and at interpreter exit then skip them,
    and a collection in a forked worker leaves their pages shared."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
