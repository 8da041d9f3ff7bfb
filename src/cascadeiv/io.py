"""CSV/JSON file formats.

Tabular data is CSV with ``\n`` line endings, ``.`` decimals, and no
thousands separators; configs and error payloads are JSON; event logs are
JSON lines. Every output CSV starts with a provenance comment line
(``# cascadeiv <version> command=<cmd> seed=<seed>``) so reruns are
byte-comparable.

Tables are written a column at a time (``repr`` of every float, ``str`` of
every id or label) and read by numpy's C text reader, with the same bytes
and values as formatting and parsing row by row with the ``csv`` module.
"""

from __future__ import annotations

import csv
import io as _io
import itertools
import json
import re

import numpy as np

from .data import Dataset
from .errors import ParseError, SchemaError
from .estimator import EstimateSet

DATASET_COLUMNS = "y, a_1..a_K, z_1..z_K, x_*, cluster, optional group"

# Rows formatted per write: bounds the strings alive at once
WRITE_BLOCK_ROWS = 8192

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


def _float_cells(col) -> list[str]:
    """``fmt_float`` of every entry of a float64 column."""
    return list(map(repr, col.tolist()))


def _str_cells(col) -> list[str]:
    """``str`` of every entry of an id, label or integer column."""
    return list(map(str, col))


def _write_table(path, command: str, seed, header: list[str], columns: list):
    """Provenance line, header, then one row per entry of the columns.

    ``columns`` are (column, cells) pairs: ``cells`` formats a block of
    rows of its column. Rows go out in blocks of ``WRITE_BLOCK_ROWS``.
    """
    n = len(columns[0][0])
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, n, WRITE_BLOCK_ROWS):
            block = slice(lo, lo + WRITE_BLOCK_ROWS)
            writer.writerows(zip(*(cells(col[block]) for col, cells in columns)))


def write_dataset_csv(path, data: Dataset, command: str = "write", seed: int | None = None):
    k = data.n_treatments
    p = data.x.shape[1]
    header = (
        ["y"]
        + [f"a_{j + 1}" for j in range(k)]
        + [f"z_{j + 1}" for j in range(k)]
        + [f"x_{j + 1}" for j in range(p)]
        + ["cluster"]
    )
    columns = [(data.y, _float_cells)]
    columns += [(block[:, j], _float_cells) for block in (data.a, data.z, data.x)
                for j in range(block.shape[1])]
    columns.append((data.cluster, _str_cells))
    if data.group_label is not None:
        header.append("group")
        columns.append((data.group_label, _str_cells))
    _write_table(path, command, seed, header, columns)


def _header_layout(header: list[str]) -> dict:
    layout: dict = {"a": {}, "z": {}, "x": [], "y": None, "cluster": None, "group": None}
    for pos, name in enumerate(header):
        if name == "y":
            if layout["y"] is not None:
                raise SchemaError("duplicate column 'y'")
            layout["y"] = pos
        elif name == "cluster":
            if layout["cluster"] is not None:
                raise SchemaError("duplicate column 'cluster'")
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


def _data_lines(path) -> tuple[list[str], list[int]]:
    """The lines of a CSV file that are not comments (``#`` first) or blank,
    with their 1-based file line numbers."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    linenos = [
        no for no, ln in enumerate(lines, start=1)
        if not (ln.startswith("#") or ln.isspace())
    ]
    return [lines[no - 1] for no in linenos], linenos


def _parse_number(text: str) -> float:
    """``float`` limited to what numpy's text reader accepts: ASCII only,
    no digit-group underscores."""
    body = text.strip()
    if "_" in body or not body.isascii():
        raise ValueError(text)
    return float(body)


def _scan_rows(rows, linenos, header, numeric, text=()):
    """The rows parsed one line at a time by ``csv.reader``, each line one row.

    Raises the first ragged row or unparsable number in file order, the
    ``numeric`` columns checked in the order given; else returns what
    ``_read_rows`` returns.
    """
    values = np.zeros((len(rows), len(header)))
    labels = []
    for i, (raw, lineno) in enumerate(zip(rows, linenos)):
        row = next(csv.reader([raw]))
        if len(row) != len(header):
            raise SchemaError(
                f"line {lineno}: row has {len(row)} fields, header has {len(header)}"
            )
        for pos in numeric:
            try:
                values[i, pos] = _parse_number(row[pos])
            except ValueError:
                raise ParseError(
                    f"could not parse {row[pos]!r} in column {header[pos]!r}", lineno
                ) from None
        labels.append([row[pos] for pos in text])
    return values, np.array(labels, dtype=str).reshape(len(rows), len(text))


def _read_rows(rows, linenos, header, numeric, text=()):
    """The data rows as an (n, len(header)) float matrix and their ``text``
    columns as an (n, len(text)) string array.

    numpy's reader parses every column in one pass, the text columns as
    their field lengths, so that it keeps checking that each row has the
    same field count. Where it fails, or finds another number of rows than
    there are lines (a quote left open runs on into the lines after it),
    ``_scan_rows`` parses the file again one line at a time: it reports the
    first fault with its file line, or returns each line as one row.
    """
    try:
        values = np.loadtxt(
            rows, dtype=float, converters=dict.fromkeys(text, len), **_CSV_READ
        )
    except ValueError:
        return _scan_rows(rows, linenos, header, numeric, text)
    if values.shape != (len(rows), len(header)):
        return _scan_rows(rows, linenos, header, numeric, text)
    if not text:
        return values, np.empty((len(rows), 0), dtype=str)
    return values, np.loadtxt(rows, dtype=str, usecols=text, **_CSV_READ)


def load_dataset_csv(path) -> Dataset:
    """Read and validate a dataset CSV; K is inferred from the header."""
    rows, linenos = _data_lines(path)
    if not rows:
        raise SchemaError(f"{path}: no header row found")
    header = [h.strip() for h in next(csv.reader(rows[:1]))]
    layout = _header_layout(header)
    rows, linenos = rows[1:], linenos[1:]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    k = len(layout["a"])
    a_pos = [layout["a"][j + 1] for j in range(k)]
    z_pos = [layout["z"][j + 1] for j in range(k)]
    text = [layout["cluster"]]
    if layout["group"] is not None:
        text.append(layout["group"])
    numeric = [layout["y"], *itertools.chain(*zip(a_pos, z_pos)), *layout["x"]]
    values, labels = _read_rows(rows, linenos, header, numeric, text)
    return Dataset(
        y=np.ascontiguousarray(values[:, layout["y"]]),
        a=np.ascontiguousarray(values[:, a_pos]),
        z=np.ascontiguousarray(values[:, z_pos]),
        x=np.ascontiguousarray(values[:, layout["x"]]),
        cluster=np.ascontiguousarray(labels[:, 0]),
        group_label=np.ascontiguousarray(labels[:, 1]) if len(text) == 2 else None,
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
    prefs = ["|".join(map(str, pl)) for pl in pop.prefs]
    columns = [(pop.merit, _str_cells), (prefs, _str_cells)]
    columns += [(pop.po[:, j], _float_cells) for j in range(k + 1)]
    columns += [(pop.labels[name], _str_cells) for name in label_names]
    _write_table(path, command, seed, header, columns)


def load_population_csv(path):
    from .mechanism import Population

    with open(path, newline="") as fh:
        lines = [ln for ln in fh.readlines() if not ln.startswith("#") and ln.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty population file")
    reader = csv.reader(lines)
    header = [h.strip() for h in next(reader)]
    if header[:2] != ["merit", "prefs"]:
        raise SchemaError("population CSV must start with merit,prefs columns")
    po_cols = [h for h in header if h.startswith("po_")]
    if [f"po_{j}" for j in range(len(po_cols))] != po_cols:
        raise SchemaError("po_* columns must be po_0..po_K in order")
    label_names = [h[6:] for h in header if h.startswith("label_")]
    merit, prefs, po = [], [], []
    labels: dict = {name: [] for name in label_names}
    for lineno, row in enumerate(reader, start=3):
        if len(row) != len(header):
            raise SchemaError(f"line {lineno}: wrong field count")
        try:
            merit.append(int(row[0]))
            prefs.append(
                tuple(int(p) for p in row[1].split("|")) if row[1] else ()
            )
            po.append([float(v) for v in row[2 : 2 + len(po_cols)]])
        except ValueError:
            raise ParseError("bad population value", lineno) from None
        for j, name in enumerate(label_names):
            labels[name].append(row[2 + len(po_cols) + j])
    return Population(
        merit=np.asarray(merit, dtype=np.int64),
        prefs=prefs,
        po=np.asarray(po),
        labels={name: np.asarray(vals) for name, vals in labels.items()},
    )


# ---------------------------------------------------------------------------
# Covariates CSV (for balance checks; rows aligned with the dataset)
# ---------------------------------------------------------------------------


def write_covariates_csv(path, covariates: dict, command: str = "write", seed=None):
    columns = [(np.asarray(col, dtype=float), _float_cells) for col in covariates.values()]
    _write_table(path, command, seed, list(covariates), columns)


def load_covariates_csv(path) -> tuple[np.ndarray, tuple]:
    rows, linenos = _data_lines(path)
    if not rows:
        raise SchemaError(f"{path}: empty covariates file")
    names = tuple(h.strip() for h in next(csv.reader(rows[:1])))
    rows, linenos = rows[1:], linenos[1:]
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    values, _ = _read_rows(rows, linenos, names, range(len(names)))
    return values, names


# ---------------------------------------------------------------------------
# Estimates CSV + aligned table
# ---------------------------------------------------------------------------


def write_estimates_csv(
    path,
    est: EstimateSet,
    command: str = "estimate",
    seed: int | None = None,
    bootstrap: dict | None = None,
):
    """One row per treatment; optional bootstrap columns are appended."""
    header = [
        "treatment", "beta", "rf", "wald", "cascade_T", "cascade_delta",
        "se_beta", "se_wald", "se_delta",
    ]
    boot_cols = []
    if bootstrap:
        for stat, res in bootstrap.items():
            boot_cols += [f"boot_se_{stat}", f"boot_ci_lo_{stat}", f"boot_ci_hi_{stat}"]
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header + boot_cols)
        k = est.beta.size
        for j in range(k):
            row = [
                str(j + 1),
                fmt_float(est.beta[j]), fmt_float(est.rf[j]), fmt_float(est.wald[j]),
                fmt_float(est.cascade_T[j]), fmt_float(est.cascade_delta[j]),
                fmt_float(est.se_beta[j]), fmt_float(est.se_wald[j]), fmt_float(est.se_delta[j]),
            ]
            if bootstrap:
                for stat, res in bootstrap.items():
                    row += [fmt_float(res.se[j]), fmt_float(res.ci_lower[j]), fmt_float(res.ci_upper[j])]
            writer.writerow(row)


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


def write_matrix_csv(path, mat: np.ndarray, command: str = "write", seed=None):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in mat:
            writer.writerow([fmt_float(v) for v in row])


def load_matrix_csv(path) -> np.ndarray:
    lines, linenos = _data_lines(path)
    rows = []
    for lineno, row in zip(linenos, csv.reader(lines)):
        if rows and len(row) != len(rows[0]):
            raise SchemaError(
                f"line {lineno}: row has {len(row)} fields, the first row has "
                f"{len(rows[0])}"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise ParseError("non-numeric matrix entry", lineno) from None
    if not rows:
        raise SchemaError(f"{path}: empty matrix file")
    return np.asarray(rows)


def write_trace_csv(path, rounds: list[np.ndarray], command: str = "cascade", seed=None):
    k = rounds[0].size
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round"] + [f"contribution_{j + 1}" for j in range(k)])
        for n, term in enumerate(rounds):
            writer.writerow([str(n)] + [fmt_float(v) for v in term])


def write_events_jsonl(path, events: np.ndarray):
    """One JSON object per record of a structured integer array, keys in
    sorted order: the bytes of ``json.dumps(record, sort_keys=True)``."""
    names = sorted(events.dtype.names)
    line = "{" + ", ".join(f'"{name}": %d' for name in names) + "}\n"
    with open(path, "w") as fh:
        for lo in range(0, events.size, WRITE_BLOCK_ROWS):
            block = events[lo : lo + WRITE_BLOCK_ROWS]
            fh.writelines(map(line.__mod__, zip(*(block[f].tolist() for f in names))))


def load_run_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON config: {exc}") from None
    if not isinstance(cfg, dict):
        raise SchemaError("run config must be a JSON object")
    return cfg


def build_scenario(cfg: dict, default_seed: int):
    """Population + capacities from a run config (see docs/config.md)."""
    from .synth import SynthConfig, generate_population, scenario_three_program

    if "synth" not in cfg or "capacities" not in cfg:
        raise SchemaError("run config needs 'synth' and 'capacities' entries")
    synth_kwargs = dict(cfg["synth"])
    synth_kwargs.setdefault("seed", default_seed)
    for tuple_key in (
        "merit_weights", "selectivity", "effects", "het_loadings",
        "label_effect_shift", "label_taste_shift", "complier_targets",
        "scenario_effects",
    ):
        if synth_kwargs.get(tuple_key) is not None:
            synth_kwargs[tuple_key] = tuple(synth_kwargs[tuple_key])
    try:
        synth_cfg = SynthConfig(**synth_kwargs)
    except TypeError as exc:
        raise SchemaError(f"bad synth config: {exc}") from None
    if cfg.get("scenario") == "three_program":
        scenario = scenario_three_program(synth_cfg)
        pop = scenario.population
        capacities = tuple(cfg["capacities"]) if cfg.get("capacities") != "auto" else scenario.capacities
    else:
        scenario = None
        pop = generate_population(synth_cfg)
        capacities = tuple(cfg["capacities"])
    return pop, capacities, scenario
