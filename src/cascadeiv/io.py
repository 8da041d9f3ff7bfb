"""CSV/JSON file formats.

Tabular data is CSV with ``\n`` line endings, ``.`` decimals, and no
thousands separators; configs and error payloads are JSON; event logs are
JSON lines. Every output CSV starts with a provenance comment line
(``# cascadeiv <version> command=<cmd> seed=<seed>``) so reruns are
byte-comparable. Files are written as UTF-8 and read as UTF-8 with an
optional byte-order mark; a byte that is not UTF-8 is a ParseError.

Every CSV is opened by one function, ``write_csv``: it writes the
provenance line and the header, then blocks of rows from one of two
sources, encodes them as UTF-8 and takes the SHA-256 of the bytes as it
writes them. ``write_table`` is one source, a column at a time: in each
block of ``WRITE_BLOCK_ROWS`` rows, each distinct value of a column is
formatted once (``repr`` of a float, told apart by its bits; ``str`` of an
id, label or preformatted cell) and, where it could need quotes, quoted
once by the ``csv`` module. ``write_simulation_csvs`` is the other: it
writes a simulation's dataset and covariates from its pivotal records,
each distinct outcome and each record's constant cells formatted once per
run, with the bytes of ``write_table`` of the stacked rows. Every table is read by
``_read_rows``. One pass over the file's bytes counts its lines and takes
its SHA-256. If the file's companion (``<file>.arrays``, written with the
digest its CSV's writer returned) holds that digest, its arrays are copied
into the loader's arrays and the text is not parsed. Otherwise the file's lines stream past, and each block of
``READ_BLOCK_ROWS`` data lines goes through one pass of numpy's C text
reader, its columns copied into arrays allocated once for the whole file.
So a loader holds the parsed columns and one block of lines, never the
file's lines. Both give the same bytes and values as formatting and
parsing row by row with the ``csv`` module.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import csv
import hashlib
import io as _io
import itertools
import json
import os
import re

import numpy as np

from .data import Dataset, _factorize, _mapped
from .errors import ParseError, SchemaError
from .estimator import EstimateSet

DATASET_COLUMNS = "y, a_1..a_K, z_1..z_K, x_*, cluster, optional group"

# Rows formatted per write: bounds the strings alive at once
WRITE_BLOCK_ROWS = 8192
# Lines parsed per read: bounds the lines alive at once
READ_BLOCK_ROWS = 8192
# Bytes decoded at a time when looking for a byte that is not UTF-8
DECODE_CHUNK_BYTES = 1 << 20

# numpy's text reader, splitting fields the way csv.reader does
_CSV_READ = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def fmt_float(v: float) -> str:
    return repr(float(v))


def provenance_line(command: str, seed: int | None) -> str:
    from . import __version__

    return f"# cascadeiv {__version__} command={command} seed={'-' if seed is None else seed}"


# ---------------------------------------------------------------------------
# Dataset CSV
# ---------------------------------------------------------------------------


def float_cells(col) -> tuple[list[str], np.ndarray]:
    """``fmt_float`` of each distinct entry of a column of numbers, and the
    index of each entry among them. Entries are told apart by their bits,
    so ``-0.0`` and ``0.0`` stay two."""
    bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64), return_inverse=True)
    return list(map(repr, bits.view(float).tolist())), inverse


def text_cells(col) -> tuple[list[str], np.ndarray]:
    """``str`` of each distinct entry of an id, label, integer or
    preformatted column, and the index of each entry among them."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return float_cells(col)  # str of a float64 is repr of the float
    if isinstance(col, np.ndarray) and col.dtype.kind in "USiub" and col.size:
        keys, inverse = _factorize(col)  # np.unique's keys and inverse, sorting only run starts
        return list(map(str, keys)), inverse
    # other entries (Python objects; floats, where -0.0 == 0.0) by their text
    cells = [str(v) for v in col]
    codes = dict(zip(dict.fromkeys(cells), itertools.count()))
    return list(codes), np.fromiter(map(codes.__getitem__, cells), np.intp, len(cells))


def _csv_cells(cells: list[str], lone: bool) -> list[str]:
    """The cells as the ``csv`` module writes them: each one that could need
    quotes (it holds a delimiter, a quote or a line break, or it is empty
    and the only field of its row) written by ``csv.writer`` as a row of
    its own."""
    joined = "".join(cells)
    if not any(c in joined for c in ',"\r\n') and not (lone and "" in cells):
        return cells
    quoted = []
    for cell in cells:
        if any(c in cell for c in ',"\r\n') or (lone and not cell):
            buf = _io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([cell])
            cell = buf.getvalue()[:-1]
        quoted.append(cell)
    return quoted


def write_csv(path, command: str, seed, header: list[str], blocks) -> bytes:
    """The one CSV opener: the provenance line, the header, then each block
    of rows of ``blocks`` (strings of whole lines), each encoded as UTF-8
    and hashed as it is written. Returns the SHA-256 of the file's bytes."""
    head = provenance_line(command, seed) + "\n" + ",".join(_csv_cells(header, len(header) == 1))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in itertools.chain([head + "\n"], blocks):
            octets = text.encode("utf-8")
            digest.update(octets)
            fh.write(octets)
    return digest.digest()


def write_table(path, command: str, seed, header: list[str], columns: list) -> bytes:
    """Provenance line, header, then one row per entry of the columns;
    returns the SHA-256 of the bytes written (``write_csv``).

    ``columns`` are (column, cells) pairs: ``cells`` (``float_cells`` or
    ``text_cells``) formats the distinct entries of a block of rows of its
    column. Rows go out in blocks of ``WRITE_BLOCK_ROWS``, so each distinct
    value is formatted and quoted once per block.
    """
    return write_csv(path, command, seed, header, _column_blocks(columns, len(header) == 1))


def _column_blocks(columns: list, lone: bool):
    """The text of each block of ``WRITE_BLOCK_ROWS`` rows of the columns."""
    for lo in range(0, len(columns[0][0]), WRITE_BLOCK_ROWS):
        block = slice(lo, lo + WRITE_BLOCK_ROWS)
        texts = [cells(col[block]) for col, cells in columns]
        texts = [(_csv_cells(distinct, lone), inverse) for distinct, inverse in texts]
        # a row's line end rides on its last cell, so each row is one join
        last, inverse = texts[-1]
        texts[-1] = ([cell + "\n" for cell in last], inverse)
        rows = zip(*(np.array(d, dtype=object)[i].tolist() for d, i in texts))
        yield "".join(map(",".join, rows))


def write_dataset_csv(path, data: Dataset, command: str = "write", seed: int | None = None) -> bytes:
    return write_table(path, command, seed, *_dataset_table(data))


def _dataset_table(data: Dataset) -> tuple[list[str], list]:
    """The header and the ``write_table`` columns of a dataset CSV."""
    k = data.n_treatments
    p = data.x.shape[1]
    columns = [(data.y, float_cells)]
    columns += [(block[:, j], float_cells) for block in (data.a, data.z, data.x)
                for j in range(block.shape[1])]
    columns.append((data.cluster, text_cells))
    if data.group_label is not None:
        columns.append((data.group_label, text_cells))
    return _dataset_header(k, p, data.group_label is not None), columns


def _dataset_header(k: int, p: int, grouped: bool) -> list[str]:
    return (
        ["y"]
        + [f"a_{j + 1}" for j in range(k)]
        + [f"z_{j + 1}" for j in range(k)]
        + [f"x_{j + 1}" for j in range(p)]
        + ["cluster"]
        + ["group"] * grouped
    )


def _header_layout(header: list[str]) -> dict:
    layout: dict = {"a": {}, "z": {}, "x": [], "y": None, "cluster": None, "group": None}
    for pos, name in enumerate(header):
        if name in header[:pos]:
            raise SchemaError(f"duplicate column '{name}'")
        if name == "y":
            layout["y"] = pos
        elif name == "cluster":
            layout["cluster"] = pos
        elif name == "group":
            layout["group"] = pos
        elif m := re.fullmatch(r"([az])_(\d+)", name):
            block, ix = m.group(1), int(m.group(2))
            if ix in layout[block]:
                raise SchemaError(f"duplicate column '{name}'")
            layout[block][ix] = pos
        elif name.startswith("x_"):
            layout["x"].append(pos)
        else:
            raise SchemaError(f"unexpected column {name!r}; expected {DATASET_COLUMNS}")
    if layout["y"] is None:
        raise SchemaError("missing column 'y'")
    if layout["cluster"] is None:
        raise SchemaError("missing column 'cluster'")
    if not layout["x"]:
        raise SchemaError("missing control columns 'x_*'")
    for block in ("a", "z"):
        ks = sorted(layout[block])
        if not ks or ks != list(range(1, len(ks) + 1)):
            raise SchemaError(f"{block}_* columns must be {block}_1..{block}_K with no gaps")
    if len(layout["a"]) != len(layout["z"]):
        raise SchemaError(
            f"found {len(layout['a'])} treatment columns but "
            f"{len(layout['z'])} instrument columns"
        )
    return layout


def _data_lines(lines, start: int = 1) -> list[tuple[int, str]]:
    """(file line number, line) of each of ``lines``, the file's lines from
    line ``start`` on, that is not a comment (``#`` first) or blank."""
    return [(no, ln) for no, ln in enumerate(lines, start)
            if not (ln.startswith("#") or ln.isspace())]


def _first_lines(fh, count: int) -> list[tuple[int, str]]:
    """The first ``count`` data lines of an open CSV file (fewer if it has
    fewer), as ``_data_lines`` gives them; the file is left after the last."""
    found = []
    for no, line in enumerate(fh, start=1):
        found += _data_lines([line], no)
        if len(found) == count:
            break
    return found


def _fields(line: str) -> list[str]:
    """The fields of one CSV line, split as ``csv.reader`` splits them."""
    return next(csv.reader([line]))


def _table(path, fh):
    """The header of an open CSV file (names stripped of spaces) and its
    first data line (``_data_lines``); the file is left after that line. No
    header or no data line is a SchemaError."""
    found = _first_lines(fh, 2)
    if not found:
        raise SchemaError(f"{path}: no header row found")
    if len(found) == 1:
        raise SchemaError(f"{path}: no data rows")
    return [h.strip() for h in _fields(found[0][1])], found[1]


def _scan(path) -> tuple[int, bytes]:
    """One pass over the file's bytes: more than its lines (one more than
    its line breaks), and the SHA-256 of the bytes."""
    bound, digest = 1, hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            octets = np.frombuffer(chunk, np.uint8)
            bound += np.count_nonzero(octets == 10) + np.count_nonzero(octets == 13)
            digest.update(chunk)
    return int(bound), digest.digest()


@contextlib.contextmanager
def _open_csv(path):
    """A CSV file open for reading as UTF-8, a leading byte-order mark
    skipped; a byte that is not UTF-8 is a ParseError naming its file line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", _undecodable_line(path)) from None


def _undecodable_line(path) -> int | None:
    """The file line of the first byte that is not UTF-8, lines split as a
    text reader splits them (at ``\n``, ``\r`` and ``\r\n``). The file goes
    ``DECODE_CHUNK_BYTES`` at a time through an incremental decoder, so a
    sequence or a ``\r\n`` cut by a chunk's end is read whole."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    breaks, after_cr = 0, False  # line breaks so far; whether the bytes so far end in \r
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(DECODE_CHUNK_BYTES)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the chunk after the bytes held back from the
                # last one, an unfinished sequence, which holds no line break
                return 1 + breaks + _line_breaks(exc.object[: exc.start], after_cr)
            if not chunk:
                return None
            breaks += _line_breaks(chunk, after_cr)
            after_cr = chunk.endswith(b"\r")


def _line_breaks(octets: bytes, after_cr: bool) -> int:
    """The line breaks that start in ``octets``: each ``\n``, ``\r`` and
    ``\r\n`` once; a leading ``\n`` after a ``\r`` ends that ``\r``'s break."""
    count = octets.count(b"\n") + octets.count(b"\r") - octets.count(b"\r\n")
    return count - (after_cr and octets.startswith(b"\n"))


def _row_line(path, i: int) -> int:
    """The file line of data row ``i`` (0-based; the header is not a row)."""
    with _open_csv(path) as fh:
        return _first_lines(fh, i + 2)[-1][0]


def _parse_number(text: str) -> float:
    """``float`` limited to what numpy's text reader accepts: ASCII only,
    no digit-group underscores."""
    body = text.strip()
    if "_" in body or not body.isascii():
        raise ValueError(text)
    return float(body)


def _parse_cell(parse, cell: str, column: str, lineno: int):
    """``parse(cell)``; a ValueError is a ParseError naming the column and
    the file line."""
    try:
        return parse(cell)
    except ValueError:
        raise ParseError(f"could not parse {cell!r} in column {column!r}", lineno) from None


def _scan_rows(rows, linenos, header, numeric, text, codes, width):
    """A block parsed one line at a time by ``csv.reader``, each line one
    row, as ``_parse_block`` returns it.

    Raises the first ragged row or unparsable number in file order, the
    ``numeric`` columns checked in the order given. A ragged row's message
    names ``width`` as the line that set the field count.
    """
    values = np.zeros((len(rows), len(header)))
    for i, (raw, lineno) in enumerate(zip(rows, linenos)):
        row = _fields(raw)
        if len(row) != len(header):
            raise SchemaError(
                f"line {lineno}: row has {len(row)} fields, {width} has {len(header)}"
            )
        for pos in numeric:
            values[i, pos] = _parse_cell(_parse_number, row[pos], header[pos], lineno)
        for pos in text:
            values[i, pos] = codes[pos][row[pos]]
    return values


def _parse_block(lines, start, header, numeric, text, codes, width):
    """The data lines among ``lines`` (the file's lines from line ``start``
    on) as a float matrix of len(header) columns, each ``text`` field as
    the code of its string in its column's table ``codes[pos]`` (string ->
    code, each new string the next code).

    numpy's reader parses the block in one pass, so that it keeps checking
    that each row has the same field count. Where it fails, or finds
    another number of rows than there are lines (a quote left open runs on
    into the lines after it), the codes it gave are taken back and
    ``_scan_rows`` parses the block again one line at a time: it reports
    the first fault with its file line, or returns each line as one row.
    """
    rows = [ln for ln in lines if not (ln.startswith("#") or ln.isspace())]
    if not rows:  # comments and blank lines only
        return np.empty((0, len(header)))
    known = {pos: len(table) for pos, table in codes.items()}
    try:
        values = np.loadtxt(
            rows, dtype=float,
            converters={pos: table.__getitem__ for pos, table in codes.items()}, **_CSV_READ
        )
        if values.shape == (len(rows), len(header)):
            return values
    except ValueError:
        pass
    for pos, table in codes.items():
        for string in list(itertools.islice(table, known[pos], None)):
            del table[string]
        table.default_factory = itertools.count(known[pos]).__next__
    linenos = [no for no, _ in _data_lines(lines, start)]
    return _scan_rows(rows, linenos, header, numeric, text, codes, width)


def _read_rows(path, fh, first, header, columns, numeric, text=(), width="header"):
    """The data rows of an open CSV file, in their final arrays: from the
    file's companion if it holds the SHA-256 of the file's bytes
    (``_read_companion``), else parsed (``_parse_rows``).

    ``first`` is the first data line after the header, as ``_data_lines``
    gives it, and ``fh`` is left after it. ``columns`` lists the float
    arrays to fill: a position gives the (n,) array of that column, a list
    of positions the (n, len) array of those columns. Each array is
    allocated once, for more rows than the file has lines (``_scan``;
    ``_mapped``, so the rows never read take no memory), filled column by
    column, and cut to the rows read. Returns the arrays, and one string
    array per ``text`` column, as wide as its longest string.
    """
    bound, digest = _scan(path)
    outs = [_mapped(bound if isinstance(c, int) else (bound, len(c))) for c in columns]
    targets = {}
    for out, cols in zip(outs, columns):
        targets.update({cols: out} if isinstance(cols, int) else zip(cols, out.T))
    text = list(text)
    n, cells, codes = (
        _read_companion(path, digest, len(header), targets, text)
        or _parse_rows(fh, first, header, numeric, text, width, targets, bound)
    )
    labels = []
    for pos in text:
        out = _mapped(n, cells[pos].dtype)
        np.take(cells[pos], codes[pos][:n], out=out, mode="clip")  # "raise" would buffer
        labels.append(out)
    return [out[:n] for out in outs], labels


def _parse_rows(fh, first, header, numeric, text, width, targets, bound):
    """The data lines of an open CSV file (``first`` and the lines after it,
    fewer than ``bound``), read ``READ_BLOCK_ROWS`` lines at a time.

    Each block is parsed by ``_parse_block`` and its float columns copied
    into their ``targets[pos]`` arrays. Blocks are parsed in file order and
    each block reports its first fault, so the first fault of the file is
    the one raised. Returns the rows read, and each ``text`` column's
    distinct strings (a string array) and each row's code among them.
    """
    text_codes = _mapped((bound, len(text)), np.intp)
    # one table per text column (string -> code), so each column's strings
    # take the width of its own longest one
    codes = {pos: collections.defaultdict(itertools.count().__next__) for pos in text}
    start, line = first
    lines = itertools.chain([line], fh)
    n = 0
    while block := list(itertools.islice(lines, READ_BLOCK_ROWS)):
        values = _parse_block(block, start, header, numeric, text, codes, width)
        start += len(block)
        m = len(values)
        for pos, target in targets.items():
            target[n : n + m] = values[:, pos]
        text_codes[n : n + m] = values[:, text]
        n += m
    cells = {pos: np.array(list(codes[pos]), dtype=str) for pos in text}
    return n, cells, dict(zip(text, text_codes.T))


def load_dataset_csv(path) -> Dataset:
    """Read and validate a dataset CSV; K is inferred from the header."""
    with _open_csv(path) as fh:
        header, first = _table(path, fh)
        layout = _header_layout(header)
        k = len(layout["a"])
        a_pos = [layout["a"][j + 1] for j in range(k)]
        z_pos = [layout["z"][j + 1] for j in range(k)]
        text = [layout["cluster"]]
        if layout["group"] is not None:
            text.append(layout["group"])
        numeric = [layout["y"], *itertools.chain(*zip(a_pos, z_pos)), *layout["x"]]
        (y, a, z, x), labels = _read_rows(
            path, fh, first, header, [layout["y"], a_pos, z_pos, layout["x"]], numeric, text
        )
    return Dataset(
        y=y, a=a, z=z, x=x, cluster=labels[0],
        group_label=labels[1] if len(labels) == 2 else None,
    )


# ---------------------------------------------------------------------------
# Population CSV
# ---------------------------------------------------------------------------


def write_population_csv(path, pop, command: str = "write", seed=None):
    """Schema: merit, prefs (program ids joined by '|'), po_0..po_K, label_*."""
    k = pop.n_programs
    label_names = sorted(pop.labels)
    header = (
        ["merit", "prefs"]
        + [f"po_{j}" for j in range(k + 1)]
        + [f"label_{name}" for name in label_names]
    )
    # each distinct row of the padded preference array is formatted once
    arr = pop.pref_array()  # C-ordered int64
    rows, codes = np.unique(
        arr.view(np.dtype((np.void, arr.itemsize * arr.shape[1]))).ravel(),
        return_inverse=True,
    )
    prefs = ["|".join(str(p) for p in row if p)
             for row in rows.view(np.int64).reshape(-1, arr.shape[1]).tolist()]
    columns = [(pop.merit, text_cells), (codes, lambda block: (prefs, block))]
    columns += [(pop.po[:, j], float_cells) for j in range(k + 1)]
    columns += [(pop.labels[name], text_cells) for name in label_names]
    write_table(path, command, seed, header, columns)


def _program_ids(cell: str) -> tuple[int, ...]:
    return tuple(int(p) for p in cell.split("|")) if cell else ()


def load_population_csv(path):
    """Read a population CSV; every column but the ``po_*`` ones is text."""
    from .mechanism import Population

    with _open_csv(path) as fh:
        header, first = _table(path, fh)
        if header[:2] != ["merit", "prefs"]:
            raise SchemaError("population CSV must start with merit,prefs columns")
        po_pos = [pos for pos, h in enumerate(header) if h.startswith("po_")]
        if [header[pos] for pos in po_pos] != [f"po_{j}" for j in range(len(po_pos))]:
            raise SchemaError("po_* columns must be po_0..po_K in order")
        text = [pos for pos in range(len(header)) if pos not in po_pos]
        (po,), cells = _read_rows(path, fh, first, header, [po_pos], po_pos, text)
    merit, prefs = [], []
    for i, row in enumerate(zip(cells[0].tolist(), cells[1].tolist())):
        for parse, cell, column, out in zip((int, _program_ids), row, header, (merit, prefs)):
            try:
                out.append(parse(cell))
            except ValueError:
                raise ParseError(f"could not parse {cell!r} in column {column!r}",
                                 _row_line(path, i)) from None
    labels = {
        header[pos][6:]: col for pos, col in zip(text, cells) if header[pos].startswith("label_")
    }
    return Population(merit=np.asarray(merit, dtype=np.int64), prefs=prefs, po=po, labels=labels)


# ---------------------------------------------------------------------------
# Covariates CSV (for balance checks; rows aligned with the dataset)
# ---------------------------------------------------------------------------


def write_covariates_csv(path, covariates: dict, command: str = "write", seed=None) -> bytes:
    return write_table(path, command, seed, *_covariates_table(covariates))


def _covariates_table(covariates: dict) -> tuple[list[str], list]:
    """The header and the ``write_table`` columns of a covariates CSV."""
    return list(covariates), [(col, float_cells) for col in covariates.values()]


def load_covariates_csv(path) -> tuple[np.ndarray, tuple]:
    with _open_csv(path) as fh:
        names, first = _table(path, fh)
        cols = list(range(len(names)))
        (values,), _ = _read_rows(path, fh, first, names, [cols], cols)
    return values, tuple(names)


# ---------------------------------------------------------------------------
# Companion arrays (``<csv>.arrays``): a CSV's rows, for loads that skip the parser
# ---------------------------------------------------------------------------


COMPANION_SUFFIX = ".arrays"
# a companion's first bytes, before the SHA-256 of its CSV's bytes
_COMPANION_TAG = b"cascadeiv companion arrays 1\n"


def write_companion(path, table, digest: bytes):
    """Beside the CSV at ``path``, just written from ``table`` (a Dataset or
    a dict of covariate columns) with SHA-256 ``digest`` (as its writer
    returns it), its companion ``<path>.arrays``: what the CSV's loader
    parses, for loads that skip the parser.

    The companion is a sequence of ``np.save`` arrays: the tag and
    ``digest`` as one uint8 array, then each column in file order. A float
    column is uint8 where every entry's bits come back from it (0/1 and
    small integers), else float64, each NaN as the parser's
    ``float("nan")``. A text column is its distinct cells as ``text_cells``
    writes them, then each row's code among them in the narrowest unsigned
    type. It is written under a temporary name and renamed into place, so a
    reader finds a whole companion or none, and it holds no time, so reruns
    give the same bytes. Text cells must hold no line break (the parser
    reads each line as a row); no table ``simulate`` writes has one.
    """
    _, columns = (_dataset_table(table) if isinstance(table, Dataset)
                  else _covariates_table(table))
    _save_columns(path, columns, digest)


def _save_columns(path, columns, digest: bytes):
    """``write_companion``'s arrays, of ``columns``: (column, cells) pairs
    as ``write_table`` takes them, in file order."""
    companion = f"{path}{COMPANION_SUFFIX}"
    with open(companion + ".tmp", "wb") as fh:
        np.save(fh, np.frombuffer(_COMPANION_TAG + digest, np.uint8))
        for col, cells in columns:
            if cells is float_cells:
                np.save(fh, _stored_floats(np.asarray(col, dtype=float)))
                continue
            distinct, codes = cells(col)
            np.save(fh, np.array(distinct, dtype=str))
            np.save(fh, codes.astype(np.min_scalar_type(len(distinct))))
    os.replace(companion + ".tmp", companion)


def _stored_floats(col: np.ndarray) -> np.ndarray:
    """A float column as uint8 if every entry's bits come back from it, else
    as float64 with each NaN as ``float("nan")``, the NaN the parser reads."""
    with np.errstate(invalid="ignore"):  # an entry out of range casts to another's bits
        narrow = col.astype(np.uint8)
    if (narrow.astype(float).view(np.int64) == col.view(np.int64)).all():
        return narrow
    nan = np.isnan(col)
    return np.where(nan, np.nan, col) if nan.any() else col


def _read_companion(path, digest: bytes, width: int, targets: dict, text: list):
    """The rows of the CSV at ``path`` (``width`` columns) from its
    companion, if that holds ``digest``, the SHA-256 of the CSV's bytes:
    each float column copied into its ``targets[pos]`` array, each ``text``
    column's distinct strings and row codes, as ``_parse_rows`` returns
    them. None when there is no companion, or it holds another tag or
    digest, or it is not whole; then the CSV is parsed."""
    load = np.lib.format.read_array  # one array, never a pickle
    try:
        with open(f"{path}{COMPANION_SUFFIX}", "rb") as fh:
            if load(fh).tobytes() != _COMPANION_TAG + digest:
                return None
            n, cells, codes = None, {}, {}
            for pos in range(width):
                if pos in text:
                    cells[pos], col = load(fh), load(fh)
                    codes[pos] = col
                else:
                    col = load(fh)
                    targets[pos][: len(col)] = col
                if n not in (None, len(col)):
                    return None
                n = len(col)
            if fh.read(1):  # more arrays than columns
                return None
    except (OSError, ValueError, EOFError):
        return None
    return n, cells, codes


# ---------------------------------------------------------------------------
# A simulation's tables, written from its pivotal records
# ---------------------------------------------------------------------------


def write_simulation_csvs(out, run, command: str, seed) -> None:
    """``dataset.csv`` and ``covariates.csv`` in the directory ``out``, each
    followed by its companion, written from the pivotal records of ``run``
    (a ``SimulationOutput``): the bytes of ``write_dataset_csv`` of
    ``run.dataset`` and ``write_covariates_csv`` of ``run.covariates``, and
    of their companions, with neither table built.

    Each distinct outcome of the run is formatted once, and so is each
    record's text that is the same on all its rows (the z cells after its
    program's, the x dummies and the cluster name) and each (program,
    assignment) pair's a and leading z cells; lucks, nearly all distinct,
    are formatted a block at a time. A covariates line is formatted once
    per distinct applicant.
    """
    for name, (header, blocks, columns) in (("dataset.csv", _record_dataset(run)),
                                            ("covariates.csv", _record_covariates(run))):
        path = os.path.join(out, name)
        _save_columns(path, columns, write_csv(path, command, seed, header, blocks))


def _record_dataset(run):
    """The header, the body blocks and the companion columns (made one at a
    time) of ``run``'s dataset CSV."""
    k, p = run.n_treatments, run.n_controls
    names, progs, dummies, lucks, assignments, ys = zip(*run.record_rows())
    sizes = [len(luck) for luck in lucks]
    record = np.repeat(np.arange(len(sizes)), sizes)
    prog = np.array(progs)[record]
    luck, assignment, y = (np.concatenate(part) for part in (lucks, assignments, ys))
    labels = run.group_labels()

    def flags(j):
        return ",".join("1.0" if i == j else "0.0" for i in range(1, k + 1))

    # a row is its y, its (program, assignment) text, its luck, its record's
    # text and its group label
    end = "" if labels is None else ","
    mids = [f",{flags(s)},{'0.0,' * (prog - 1)}" for prog in range(1, k + 1) for s in range(k + 1)]
    x_cells = [",".join("1.0" if c in (0, dummy) else "0.0" for c in range(p)) for dummy in dummies]
    tails = [f"{',0.0' * (k - prog)},{x},{name}{end}" for prog, x, name in
             zip(progs, x_cells, _csv_cells(list(names), False))]
    pieces = [_coded(*float_cells(y)), _coded(mids, (prog - 1) * (k + 1) + assignment),
              _block_floats(luck), _coded(tails, record)]
    if labels is not None:
        distinct, codes = text_cells(labels)
        pieces.append(_coded(_csv_cells(distinct, False), codes))
    blocks = _row_blocks(pieces, len(y))

    def columns():
        yield y, float_cells
        for j in range(1, k + 1):
            yield (assignment == j).astype(float), float_cells
        for j in range(1, k + 1):
            z, on = np.zeros(len(y)), prog == j
            z[on] = luck[on]
            yield z, float_cells
        yield np.ones(len(y)), float_cells  # the constant
        dummy = np.array([0 if d is None else d for d in dummies])[record]
        for c in range(1, p):
            yield (dummy == c).astype(float), float_cells
        yield np.repeat(np.array(names), sizes), text_cells
        if labels is not None:
            yield labels, text_cells

    return _dataset_header(k, p, labels is not None), blocks, columns()


def _record_covariates(run):
    """The header, the body blocks and the companion columns (made one at a
    time) of ``run``'s covariates CSV: each distinct applicant's line is
    formatted once from ``member_covariates`` and gathered by
    ``applicants``."""
    table, rows = run.member_covariates(), run.applicants
    members, codes = np.unique(rows, return_inverse=True)
    lone = len(table) == 1
    texts = []
    for col in table.values():
        distinct, inverse = float_cells(col[members])
        texts.append(np.array(_csv_cells(distinct, lone), dtype=object)[inverse].tolist())
    lines = [",".join(cells) for cells in zip(*texts)]
    columns = ((col[rows], float_cells) for col in table.values())
    return list(table), _row_blocks([_coded(lines, codes)], len(rows)), columns


def _coded(texts: list[str], codes: np.ndarray):
    """The piece of a row whose text is ``texts[codes[row]]``."""
    texts = np.array(texts, dtype=object)
    return lambda block: texts[codes[block]].tolist()


def _block_floats(col: np.ndarray):
    """The piece of a row whose text is its entry of ``col``, the distinct
    entries of each block formatted once (``float_cells``)."""
    return lambda block: _coded(*float_cells(col[block]))(slice(None))


def _row_blocks(pieces, n: int):
    """The text of each block of ``WRITE_BLOCK_ROWS`` of ``n`` rows, a row
    being the concatenation of its text of each piece, then a line end: a
    piece gives the texts of a block (a slice) of rows."""
    for lo in range(0, n, WRITE_BLOCK_ROWS):
        block = slice(lo, lo + WRITE_BLOCK_ROWS)
        yield "".join(map("".join, zip(*(piece(block) for piece in pieces), itertools.repeat("\n"))))


# ---------------------------------------------------------------------------
# Estimates CSV + aligned table
# ---------------------------------------------------------------------------


_ESTIMATE_COLUMNS = (
    "beta", "rf", "wald", "cascade_T", "cascade_delta", "se_beta", "se_wald", "se_delta",
)


def write_estimates_csv(
    path,
    est: EstimateSet,
    command: str = "estimate",
    seed: int | None = None,
    bootstrap: dict | None = None,
):
    """One row per treatment; optional bootstrap columns are appended."""
    header = ["treatment", *_ESTIMATE_COLUMNS]
    columns = [(range(1, est.beta.size + 1), text_cells)]
    columns += [(getattr(est, name), float_cells) for name in _ESTIMATE_COLUMNS]
    for stat, res in (bootstrap or {}).items():
        header += [f"boot_se_{stat}", f"boot_ci_lo_{stat}", f"boot_ci_hi_{stat}"]
        columns += [(res.se, float_cells), (res.ci_lower, float_cells),
                    (res.ci_upper, float_cells)]
    write_table(path, command, seed, header, columns)


def format_estimates_table(est: EstimateSet) -> str:
    """Human-readable aligned summary, ending with the first-stage F line."""
    cols = ["treatment", "beta", "(se)", "wald", "(se)", "delta", "(se)", "rf"]
    rows = []
    for j in range(est.beta.size):
        rows.append(
            [
                str(j + 1),
                f"{est.beta[j]:+.5f}", f"({est.se_beta[j]:.5f})",
                f"{est.wald[j]:+.5f}", f"({est.se_wald[j]:.5f})",
                f"{est.cascade_delta[j]:+.5f}", f"({est.se_delta[j]:.5f})",
                f"{est.rf[j]:+.5f}",
            ]
        )
    widths = [max(len(r[i]) for r in [cols] + rows) for i in range(len(cols))]
    out = _io.StringIO()
    out.write("  ".join(c.rjust(w) for c, w in zip(cols, widths)) + "\n")
    for r in rows:
        out.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")
    out.write(f"n_obs={est.n_obs}  n_clusters={est.n_clusters}\n")
    out.write(
        "first-stage F (per instrument): "
        + " ".join(f"{v:.1f}" for v in est.first_stage_f)
        + "\n"
    )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Matrices, traces, events, configs
# ---------------------------------------------------------------------------


def load_matrix_csv(path) -> np.ndarray:
    """A headerless table of numbers; the first row sets the width, and the
    columns are named by their 1-based position in errors."""
    with _open_csv(path) as fh:
        found = _first_lines(fh, 1)
        if not found:
            raise SchemaError(f"{path}: empty matrix file")
        cols = list(range(len(_fields(found[0][1]))))
        names = [str(j + 1) for j in cols]
        (values,), _ = _read_rows(path, fh, found[0], names, [cols], cols, width="the first row")
    return values


def write_trace_csv(path, rounds: list[np.ndarray], command: str = "cascade", seed=None):
    terms = np.asarray(rounds)
    header = ["round"] + [f"contribution_{j + 1}" for j in range(terms.shape[1])]
    columns = [(range(len(terms)), text_cells)]
    columns += [(terms[:, j], float_cells) for j in range(terms.shape[1])]
    write_table(path, command, seed, header, columns)


def write_events_jsonl(path, events: np.ndarray):
    """One JSON object per record of a structured integer array, keys in
    sorted order: the bytes of ``json.dumps(record, sort_keys=True)``."""
    names = sorted(events.dtype.names)
    line = "{" + ", ".join(f'"{name}": %d' for name in names) + "}\n"
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, events.size, WRITE_BLOCK_ROWS):
            block = events[lo : lo + WRITE_BLOCK_ROWS]
            fh.writelines(map(line.__mod__, zip(*(block[f].tolist() for f in names))))


def load_run_config(path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON config: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: the config is not UTF-8 text") from None
    if not isinstance(cfg, dict):
        raise SchemaError("run config must be a JSON object")
    return cfg


def build_scenario(cfg: dict, default_seed: int):
    """Population + capacities from a run config (see docs/config.md)."""
    from .synth import SynthConfig, generate_population, scenario_three_program

    if "synth" not in cfg or "capacities" not in cfg:
        raise SchemaError("run config needs 'synth' and 'capacities' entries")
    caps, three_program = cfg["capacities"], cfg.get("scenario") == "three_program"
    if not (isinstance(caps, (list, tuple)) or caps == "auto" and three_program):
        raise SchemaError("'capacities' must be a list, or \"auto\" for a three_program scenario")
    if not isinstance(cfg["synth"], dict):
        raise SchemaError("'synth' must be an object")
    synth_kwargs = dict(cfg["synth"])
    synth_kwargs.setdefault("seed", default_seed)
    for tuple_key in (
        "merit_weights", "selectivity", "effects", "het_loadings",
        "label_effect_shift", "label_taste_shift", "complier_targets",
        "scenario_effects",
    ):
        value = synth_kwargs.get(tuple_key)
        if value is not None:
            if not isinstance(value, (list, tuple)):
                raise SchemaError(f"synth {tuple_key!r} must be a list, got {value!r}")
            synth_kwargs[tuple_key] = tuple(value)
    try:
        synth_cfg = SynthConfig(**synth_kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad synth config: {exc}") from None
    scenario = scenario_three_program(synth_cfg) if three_program else None
    pop = scenario.population if three_program else generate_population(synth_cfg)
    capacities = scenario.capacities if caps == "auto" else tuple(caps)
    return pop, capacities, scenario
