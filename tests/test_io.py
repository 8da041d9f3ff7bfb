import codecs
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cascadeiv.io as iomod
from cascadeiv import Dataset, estimate_all
from cascadeiv.errors import (
    DataError,
    NoPivotalProgramWarning,
    NoPivotalVariation,
    ParseError,
    SchemaError,
)
from cascadeiv.io import (
    READ_BLOCK_ROWS,
    WRITE_BLOCK_ROWS,
    _header_layout,
    fmt_float,
    load_covariates_csv,
    load_dataset_csv,
    load_matrix_csv,
    load_population_csv,
    load_run_config,
    provenance_line,
    write_covariates_csv,
    write_dataset_csv,
    write_estimates_csv,
    write_events_jsonl,
    write_population_csv,
)
from cascadeiv.mechanism import SIMULATION_EVENT_DTYPE, MechanismConfig, Population, simulate_run
from cascadeiv.synth import SynthConfig, generate_population

from conftest import bernoulli_iv_data


# ---------------------------------------------------------------------------
# reference paths: the row-by-row writers and loaders the columnar ones
# replace
# ---------------------------------------------------------------------------


def reference_write_dataset_csv(path, data, command="write", seed=None):
    k = data.n_treatments
    p = data.x.shape[1]
    header = (
        ["y"]
        + [f"a_{j + 1}" for j in range(k)]
        + [f"z_{j + 1}" for j in range(k)]
        + [f"x_{j + 1}" for j in range(p)]
        + ["cluster"]
    )
    if data.group_label is not None:
        header.append("group")
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(data.n_obs):
            row = (
                [fmt_float(data.y[i])]
                + [fmt_float(v) for v in data.a[i]]
                + [fmt_float(v) for v in data.z[i]]
                + [fmt_float(v) for v in data.x[i]]
                + [str(data.cluster[i])]
            )
            if data.group_label is not None:
                row.append(str(data.group_label[i]))
            writer.writerow(row)


def reference_write_population_csv(path, pop, command="write", seed=None):
    k = pop.n_programs
    label_names = sorted(pop.labels)
    header = (
        ["merit", "prefs"]
        + [f"po_{j}" for j in range(k + 1)]
        + [f"label_{name}" for name in label_names]
    )
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(pop.n):
            row = [str(int(pop.merit[i])), "|".join(str(p) for p in pop.prefs[i])]
            row += [fmt_float(v) for v in pop.po[i]]
            row += [str(pop.labels[name][i]) for name in label_names]
            writer.writerow(row)


def reference_write_covariates_csv(path, covariates, command="write", seed=None):
    names = list(covariates)
    n = len(next(iter(covariates.values())))
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for i in range(n):
            writer.writerow([fmt_float(covariates[name][i]) for name in names])


def reference_write_events_jsonl(path, events):
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def reference_write_table(path, command, seed, header, columns):
    """``write_table`` row by row: ``repr`` of each float, ``str`` of each
    text cell, every row quoted by ``csv.writer``."""
    fmt = {iomod.float_cells: fmt_float, iomod.text_cells: str}
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(command, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(columns[0][0])):
            writer.writerow([fmt[cells](col[i]) for col, cells in columns])


def reference_load_dataset_csv(path):
    with open(path, newline="") as fh:
        lines = fh.readlines()
    header = None
    rows = []
    row_lines = []
    for lineno, raw in enumerate(lines, start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        parsed = next(csv.reader([raw]))
        if header is None:
            header = [h.strip() for h in parsed]
        else:
            rows.append(parsed)
            row_lines.append(lineno)
    if header is None:
        raise SchemaError(f"{path}: no header row found")
    layout = _header_layout(header)
    k = len(layout["a"])
    n = len(rows)
    if n == 0:
        raise SchemaError(f"{path}: no data rows")
    y = np.empty(n)
    a = np.empty((n, k))
    z = np.empty((n, k))
    x = np.empty((n, len(layout["x"])))
    cluster = np.empty(n, dtype=object)
    group = np.empty(n, dtype=object) if layout["group"] is not None else None

    def fnum(row, pos, lineno):
        try:
            return float(row[pos])
        except ValueError:
            raise ParseError(
                f"could not parse {row[pos]!r} in column {header[pos]!r}", lineno
            ) from None

    for i, (row, lineno) in enumerate(zip(rows, row_lines)):
        if len(row) != len(header):
            raise SchemaError(
                f"line {lineno}: row has {len(row)} fields, header has {len(header)}"
            )
        y[i] = fnum(row, layout["y"], lineno)
        for j in range(k):
            a[i, j] = fnum(row, layout["a"][j + 1], lineno)
            z[i, j] = fnum(row, layout["z"][j + 1], lineno)
        for j, pos in enumerate(layout["x"]):
            x[i, j] = fnum(row, pos, lineno)
        cluster[i] = row[layout["cluster"]]
        if group is not None:
            group[i] = row[layout["group"]]
    return Dataset(y=y, a=a, z=z, x=x, cluster=cluster, group_label=group)


def reference_load_covariates_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.readlines() if not ln.startswith("#") and ln.strip()]
    reader = csv.reader(lines)
    names = tuple(h.strip() for h in next(reader))
    return np.asarray([[float(v) for v in row] for row in reader]), names


def same_floats(got, want):
    """Equal shape and bits (tells -0.0 from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == (
        np.ascontiguousarray(want).tobytes()
    )


def assert_same_dataset(got, want):
    for name in ("y", "a", "z", "x"):
        assert same_floats(getattr(got, name), getattr(want, name)), name
    assert [str(c) for c in got.cluster] == list(want.cluster)
    if want.group_label is None:
        assert got.group_label is None
    else:
        assert [str(g) for g in got.group_label] == list(want.group_label)


# ids and labels a CSV must quote or keep as they are
AWKWARD_IDS = [
    "c,1", 'say "hi"', " lead", "trail ", "#hash", "ünï", "漢字", '"', ",", "a\tb",
    "plain", "'q'", '""', "0", "-0.0", "x#y",
]
AWKWARD_FLOATS = [
    -0.0, 0.0, 1e-320, 5e-324, 0.1 + 0.2, 1.2345678901234567, -9.876543210987654e-300,
    1.7976931348623157e308, 2.0**-1074 * 3, 123456789012345678.0, 1e16, 1e-5,
]


def awkward_dataset(n, groups=True):
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n)
    y[: len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[:n]
    z = rng.random((n, 2))
    z[:, 1] = -z[:, 1] * 1e-310
    x = np.column_stack([np.ones(n), rng.standard_normal(n) / 3.0])
    ids = np.array([AWKWARD_IDS[i % len(AWKWARD_IDS)] for i in range(n)], dtype=object)
    labels = np.array([AWKWARD_IDS[(3 * i) % len(AWKWARD_IDS)] for i in range(n)])
    return Dataset(
        y=y, a=(rng.random((n, 2)) < 0.5).astype(float), z=z, x=x, cluster=ids,
        group_label=labels if groups else None,
    )


def test_dataset_round_trip_exact(tmp_path):
    d = bernoulli_iv_data(1, n=200, k=2, x_extra=2, group_share=0.5)
    path = tmp_path / "d.csv"
    write_dataset_csv(path, d, "test", 1)
    back = load_dataset_csv(path)
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.a, d.a)
    assert np.array_equal(back.z, d.z)
    assert np.array_equal(back.x, d.x)
    assert [str(c) for c in back.cluster] == [str(c) for c in d.cluster]
    assert list(back.group_label) == [str(g) for g in d.group_label]
    assert back.n_treatments == 2


def test_provenance_comment_first_line(tmp_path):
    d = bernoulli_iv_data(2, n=20, k=1)
    path = tmp_path / "d.csv"
    write_dataset_csv(path, d, "simulate", 42)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# cascadeiv ")
    assert "command=simulate" in first and "seed=42" in first


def test_missing_cluster_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a_1,z_1,x_1\n1.0,0,0.5,1.0\n")
    with pytest.raises(SchemaError, match="cluster"):
        load_dataset_csv(path)


@pytest.mark.parametrize("header, name", [
    ("y,a_1,z_1,x_1,cluster,group,group", "group"),
    ("y,a_1,z_1,x_1,x_1,cluster", "x_1"),
    ("y,a_1,z_1,x_1,cluster,y", "y"),
    ("y,a_1,z_1,x_1,cluster,cluster", "cluster"),
    ("y,a_1,a_01,z_1,z_2,x_1,cluster", "a_01"),
])
def test_duplicate_column_named(tmp_path, header, name):
    path = tmp_path / "d.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n" + ",".join(["1"] * width) + "\n")
    with pytest.raises(SchemaError, match=f"^duplicate column '{name}'$"):
        load_dataset_csv(path)


def test_unknown_column_named(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a_1,z_1,x_1,cluster,bogus\n1.0,0,0.5,1.0,c1,7\n")
    with pytest.raises(SchemaError, match="bogus"):
        load_dataset_csv(path)


def test_gapped_treatment_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a_1,a_3,z_1,z_3,x_1,cluster\n1.0,0,1,0.5,0.2,1.0,c1\n")
    with pytest.raises(SchemaError, match="no gaps"):
        load_dataset_csv(path)


def test_mismatched_instrument_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a_1,a_2,z_1,x_1,cluster\n1.0,0,1,0.5,1.0,c1\n")
    with pytest.raises(SchemaError, match="instrument"):
        load_dataset_csv(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "# comment\ny,a_1,z_1,x_1,cluster\n"
        "1.0,0,0.5,1.0,c1\n"
        "oops,1,0.2,1.0,c2\n"
    )
    with pytest.raises(ParseError) as exc:
        load_dataset_csv(path)
    assert exc.value.line == 4


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a_1,z_1,x_1,cluster\n1.0,0,0.5,1.0,c1\n1.0,0,0.5\n")
    with pytest.raises(SchemaError, match="line 3"):
        load_dataset_csv(path)


def test_matrix_round_trip(tmp_path):
    m = np.random.default_rng(3).standard_normal((3, 3))
    path = tmp_path / "m.csv"
    path.write_text(provenance_line("test", None) + "\n"
                    + "".join(",".join(map(fmt_float, row)) + "\n" for row in m))
    assert same_floats(load_matrix_csv(path), m)


def test_covariates_round_trip(tmp_path):
    cov = {"attr": np.array([0.1, -0.2]), "flag": np.array([1.0, 0.0])}
    path = tmp_path / "c.csv"
    write_covariates_csv(path, cov)
    mat, names = load_covariates_csv(path)
    assert names == ("attr", "flag")
    assert_allclose(mat, np.column_stack([cov["attr"], cov["flag"]]))


def test_estimates_csv_layout(tmp_path):
    d = bernoulli_iv_data(4, n=500, k=2)
    est = estimate_all(d)
    path = tmp_path / "e.csv"
    write_estimates_csv(path, est)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[:3] == ["treatment", "beta", "rf"]
    assert len(lines) == 2 + 2  # comment + header + one row per treatment
    got_beta = [float(ln.split(",")[1]) for ln in lines[2:]]
    assert_allclose(got_beta, est.beta)


def test_dataset_write_deterministic(tmp_path):
    d = bernoulli_iv_data(5, n=100, k=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset_csv(p1, d, "x", 1)
    write_dataset_csv(p2, d, "x", 1)
    assert p1.read_bytes() == p2.read_bytes()


def test_population_round_trip(tmp_path):
    from cascadeiv import SynthConfig, generate_population

    pop = generate_population(
        SynthConfig(n=80, k=3, seed=12, het_scale=0.4, label_share=0.5)
    )
    path = tmp_path / "pop.csv"
    write_population_csv(path, pop, "test", 12)
    back = load_population_csv(path)
    assert np.array_equal(back.merit, pop.merit)
    assert back.prefs == pop.prefs
    assert np.array_equal(back.po, pop.po)
    assert set(back.labels) == set(pop.labels)


# ---------------------------------------------------------------------------
# columnar writers and loaders against the row-by-row references
# ---------------------------------------------------------------------------

BLOCK_SIZES = [WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1]


@pytest.mark.parametrize("n", [2, 17, *BLOCK_SIZES, 2 * WRITE_BLOCK_ROWS])
def test_dataset_writer_and_loader_match_references(tmp_path, n):
    d = awkward_dataset(n, groups=n != 17)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_dataset_csv(got, d, "simulate", 7)
    reference_write_dataset_csv(want, d, "simulate", 7)
    assert got.read_bytes() == want.read_bytes()
    back = load_dataset_csv(got)
    assert_same_dataset(back, reference_load_dataset_csv(want))
    for name in ("y", "a", "z", "x"):
        assert same_floats(getattr(back, name), getattr(d, name))


@pytest.mark.parametrize("n", [1, 5, *BLOCK_SIZES])
def test_covariates_writer_and_loader_match_references(tmp_path, n):
    rng = np.random.default_rng(n)
    flags = np.resize(np.array(AWKWARD_FLOATS), n)
    cov = {
        "merit": rng.integers(0, 5, n),
        "attr": rng.standard_normal(n) * 1e-300,
        "flag": list(flags),
        "c,1": rng.random(n).astype(np.float32),
    }
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_covariates_csv(got, cov, "simulate", 3)
    reference_write_covariates_csv(want, cov, "simulate", 3)
    assert got.read_bytes() == want.read_bytes()
    mat, names = load_covariates_csv(got)
    ref_mat, ref_names = reference_load_covariates_csv(want)
    assert names == ref_names == ("merit", "attr", "flag", "c,1")
    assert same_floats(mat, ref_mat)


@pytest.mark.parametrize("n", [1, 9, *BLOCK_SIZES])
def test_population_writer_matches_reference(tmp_path, n):
    rng = np.random.default_rng(n)
    prefs = [tuple(int(p) + 1 for p in rng.permutation(3)[: i % 4]) for i in range(n)]
    po = rng.standard_normal((n, 4))
    po[0] = [-0.0, 1e-320, 0.1 + 0.2, 1.2345678901234567]
    labels = {
        "text": np.array([AWKWARD_IDS[i % len(AWKWARD_IDS)] for i in range(n)]),
        "int": rng.integers(-3, 3, n),
        "float": rng.standard_normal(n),
        "flag": rng.random(n) < 0.5,
        "list": [AWKWARD_IDS[(5 * i) % len(AWKWARD_IDS)] for i in range(n)],
    }
    pop = Population(merit=rng.integers(0, 6, n), prefs=prefs, po=po, labels=labels)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_population_csv(got, pop, "simulate", 1)
    reference_write_population_csv(want, pop, "simulate", 1)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", [0, 1, *BLOCK_SIZES])
def test_events_writer_matches_json_dumps(tmp_path, n):
    rng = np.random.default_rng(n)
    events = np.zeros(n, dtype=SIMULATION_EVENT_DTYPE)
    for name in SIMULATION_EVENT_DTYPE.names:
        events[name] = rng.integers(-(2**62), 2**62, n)
    if n:
        events[0] = (2**63 - 1, -(2**63), 0, -1, 1)
    records = [dict(zip(events.dtype.names, rec)) for rec in events.tolist()]
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    write_events_jsonl(got, events)
    reference_write_events_jsonl(want, records)
    assert got.read_bytes() == want.read_bytes()


ID_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00")
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    y = draw(st.lists(FINITE, min_size=n, max_size=n))
    z = draw(st.lists(FINITE, min_size=n * k, max_size=n * k))
    a = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * k, max_size=n * k))
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=6), min_size=n, max_size=n))
    group = draw(st.none() | st.lists(st.text(ID_CHARS, max_size=6), min_size=n, max_size=n))
    return Dataset(
        y=np.array(y), a=np.array(a).reshape(n, k), z=np.array(z).reshape(n, k),
        x=np.ones((n, 1)), cluster=np.array(ids, dtype=object),
        group_label=None if group is None else np.array(group, dtype=object),
    )


@settings(max_examples=200, deadline=None)
@given(datasets(), st.integers(1, 4))
def test_dataset_io_matches_references_on_generated_data(d, block):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(iomod, "WRITE_BLOCK_ROWS", block):
            write_dataset_csv(got, d, "test", None)
        reference_write_dataset_csv(want, d, "test", None)
        assert got.read_bytes() == want.read_bytes()
        with mock.patch.object(iomod, "READ_BLOCK_ROWS", block):
            back = load_dataset_csv(got)
        assert_same_dataset(back, reference_load_dataset_csv(want))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.text(ID_CHARS, max_size=5), min_size=1, max_size=4, unique=True),
    st.integers(1, 10),
    st.integers(1, 4),
    st.data(),
)
def test_covariates_io_matches_references_on_generated_data(names, n, block, data):
    assume(all(name.strip() == name for name in names))  # the loader strips names
    assume(not names[0].startswith("#") and any(names))  # else not a header line
    cov = {name: data.draw(st.lists(FINITE, min_size=n, max_size=n)) for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(iomod, "WRITE_BLOCK_ROWS", block):
            write_covariates_csv(got, cov, "test", 2)
        reference_write_covariates_csv(want, cov, "test", 2)
        assert got.read_bytes() == want.read_bytes()
        with mock.patch.object(iomod, "READ_BLOCK_ROWS", block):
            mat, got_names = load_covariates_csv(got)
        ref_mat, ref_names = reference_load_covariates_csv(want)
        assert got_names == ref_names == tuple(names)
        assert same_floats(mat, ref_mat)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10), st.integers(1, 4), st.data())
def test_population_and_events_writers_match_references_on_generated_data(k, n, block, data):
    prefs = [
        tuple(data.draw(st.permutations(range(1, k + 1)))[: data.draw(st.integers(0, k))])
        for _ in range(n)
    ]
    po = np.array(data.draw(st.lists(FINITE, min_size=n * (k + 1), max_size=n * (k + 1))))
    labels = {
        "text": np.array(data.draw(st.lists(st.text(ID_CHARS, max_size=5), min_size=n, max_size=n))),
        "num": np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n))),
    }
    merit = np.array(data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n)))
    pop = Population(merit=merit, prefs=prefs, po=po.reshape(n, k + 1), labels=labels)
    events = np.array(
        data.draw(st.lists(st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * 5), max_size=12)),
        dtype=SIMULATION_EVENT_DTYPE,
    )
    records = [dict(zip(events.dtype.names, rec)) for rec in events.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got", Path(tmp) / "want"
        with mock.patch.object(iomod, "WRITE_BLOCK_ROWS", block):
            write_population_csv(got, pop, "test", 4)
        reference_write_population_csv(want, pop, "test", 4)
        assert got.read_bytes() == want.read_bytes()
        with mock.patch.object(iomod, "WRITE_BLOCK_ROWS", block):
            write_events_jsonl(got, events)
        reference_write_events_jsonl(want, records)
        assert got.read_bytes() == want.read_bytes()


# cells the csv module quotes, or that round or print unlike their neighbours
EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.0**-1074 * 7,
    2.2250738585072014e-308 / 3, 1e16, 1e-5, 0.1, 2.0**53, 2.0**53 + 2, 2.0**63, -(2.0**70),
]
EDGE_TEXTS = ["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "x\r\ny", "plain", " ", "0", "z\x00"]
TEXT_CHARS = st.characters(blacklist_categories=("Cs",))


@st.composite
def table_columns(draw, n):
    """One column of n rows: floats (a float array, or integers of 2**53 and
    more as an int64 array) or text (a list, an object array or a numpy
    string array; strings, or strings and integers), drawn from few values
    so that they repeat. A float column may hold both zeros."""
    kind = draw(st.sampled_from(["float", "int", "text"]))
    if kind == "int":
        pool = st.integers(2**53, 2**63 - 1)
    elif kind == "float":
        pool = st.sampled_from(EDGE_FLOATS) | st.floats()
    else:
        pool = st.sampled_from(EDGE_TEXTS) | st.text(TEXT_CHARS, max_size=4) | st.integers(-3, 3)
    values = draw(st.lists(pool, min_size=1, max_size=3))
    if kind == "float" and draw(st.booleans()):
        values += [-0.0, 0.0]
    col = [values[draw(st.integers(0, len(values) - 1))] for _ in range(n)]
    if kind == "int":
        return np.array(col, dtype=np.int64), iomod.float_cells
    if kind == "float":  # a float64 column writes alike as a number or as text
        return np.array(col, dtype=float), draw(st.sampled_from([iomod.float_cells,
                                                                  iomod.text_cells]))
    wrap = draw(st.sampled_from([list, lambda c: np.array(c, dtype=object),
                                 lambda c: np.array(c, dtype=str)]))
    return wrap(col), iomod.text_cells


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 12), st.integers(1, 4), st.data())
def test_write_table_matches_row_by_row_reference(width, n, block, data):
    columns = [data.draw(table_columns(n)) for _ in range(width)]
    header = data.draw(st.lists(st.sampled_from(EDGE_TEXTS) | st.text(TEXT_CHARS, max_size=4),
                                min_size=width, max_size=width))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(iomod, "WRITE_BLOCK_ROWS", block):
            iomod.write_table(got, "test", 1, header, columns)
        reference_write_table(want, "test", 1, header, columns)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("block", [1, 3, WRITE_BLOCK_ROWS])
def test_float64_text_cells_write_as_row_by_row(tmp_path, monkeypatch, block):
    # float64 text columns (such as float population labels) take the
    # bit-keyed float path, where repr of the float is str of the float64;
    # float32 stays on the text path: str(np.float32(0.1)) is '0.1'
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e16, 0.1, 1e-5, 2.0**53, 5e-324] * 3)
    assert iomod.text_cells(values)[0] == iomod.float_cells(values)[0]
    assert iomod.text_cells(values.astype(np.float32))[0][:3] == ["-0.0", "0.0", "nan"]
    columns = [(values, iomod.text_cells), (values.astype(np.float32), iomod.text_cells),
               (values.tolist(), iomod.text_cells), (values, iomod.float_cells)]
    monkeypatch.setattr(iomod, "WRITE_BLOCK_ROWS", block)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    iomod.write_table(got, "test", 1, ["f64", "f32", "list", "float"], columns)
    reference_write_table(want, "test", 1, ["f64", "f32", "list", "float"], columns)
    assert got.read_bytes() == want.read_bytes()


# lines per read block: every line its own block, blocks of two and three
# lines, and the default
READ_BLOCKS = [1, 2, 3, READ_BLOCK_ROWS]


def _raised(load, path):
    try:
        load(path)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return None


@settings(max_examples=200, deadline=None)
@given(datasets(), st.data())
def test_loader_faults_match_reference(d, data):
    """Broken rows, comments and blank lines anywhere: the loader raises what
    the row-by-row reference raises, at the same file line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset_csv(path, d, "test", None)
        lines = path.read_text().splitlines(keepends=True)
        for _ in range(data.draw(st.integers(1, 3))):
            r = data.draw(st.integers(2, len(lines) - 1))
            if lines[r].startswith("#") or lines[r].isspace():
                continue
            row = next(csv.reader([lines[r]]))
            fault = data.draw(st.sampled_from(["value", "extra", "short", "open_quote"]))
            if fault == "open_quote":
                # a quote opened in some field and left open to the end of
                # the line, which drops the fields after it; in the last
                # field the line keeps its field count
                col = data.draw(st.integers(0, len(row) - 1))
                buf = io.StringIO()
                csv.writer(buf, lineterminator="").writerow(row[:col])
                text = data.draw(st.sampled_from(["c", "", "x,y", "1.5", 'q"']))
                lines[r] = (buf.getvalue() + "," if col else "") + '"' + text + "\n"
                continue
            if fault == "value":
                col = data.draw(st.integers(0, len(row) - 1))
                row[col] = data.draw(st.sampled_from(["oops", "", "1.5e", "0x1", "--1"]))
            elif fault == "extra":
                row.append("7")
            else:
                row.pop()
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(row)
            lines[r] = buf.getvalue()
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(1, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["# note\n", "\n", "  \n"])))
        path.write_text("".join(lines))
        want = _raised(reference_load_dataset_csv, path)
        with mock.patch.object(iomod, "READ_BLOCK_ROWS", data.draw(st.sampled_from(READ_BLOCKS))):
            assert _raised(load_dataset_csv, path) == want
            if want is None:
                assert_same_dataset(load_dataset_csv(path), reference_load_dataset_csv(path))


GOOD_ROW = "1.0,0,0.5,1.0,c1\n"
BLOCK_CASES = {
    # a fault of each kind behind rows that parse
    "ragged": [GOOD_ROW, GOOD_ROW, "1.0,0,0.5\n", GOOD_ROW],
    "parse_error": [GOOD_ROW, GOOD_ROW, GOOD_ROW, "1.0,0,bad,1.0,c1\n"],
    "extra_field": [GOOD_ROW, "1.0,0,0.5,1.0,c2,x\n", GOOD_ROW],
    # the first fault in file order wins, in whichever block it falls
    "parse_error_then_ragged": [GOOD_ROW, GOOD_ROW, "1.0,0,bad,1.0,c1\n", "1.0,0,0.5\n"],
    "ragged_then_parse_error": [GOOD_ROW, "1.0,0,0.5\n", "1.0,0,bad,1.0,c1\n"],
    # a quote left open at a line end: in the last field the line keeps its
    # field count, before it the fields after it are lost
    "open_quote_then_ragged": ['0.0,0.0,0.5,1.0,"c\n', "0.0,1.0,0.5,1.0,c,7\n", GOOD_ROW],
    "open_quote": [GOOD_ROW, '0.0,0.0,0.5,1.0,"c\n', GOOD_ROW, '0.5,1,0.25,1.0,"c,2\n', GOOD_ROW],
    "open_quote_in_number": [GOOD_ROW, '0.5,1,"0.25\n', GOOD_ROW],
    # comments and blank lines on both sides of block boundaries
    "comments": ["# a\n", GOOD_ROW, "\n", "  \n", "# b\n", "2.0,1,0.25,1.0,c2\n", "# c\n",
                 GOOD_ROW, "\n"],
    "comments_then_fault": [GOOD_ROW, "# a\n", "\n", GOOD_ROW, "# b\n", "1.0,0,0.5,1.0,c1,x\n"],
}


@pytest.mark.parametrize("block", READ_BLOCKS)
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_loader_matches_reference_across_read_blocks(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(iomod, "READ_BLOCK_ROWS", block)
    path = tmp_path / "d.csv"
    path.write_text("# c\ny,a_1,z_1,x_1,cluster\n" + "".join(BLOCK_CASES[case]))
    want = _raised(reference_load_dataset_csv, path)
    assert (want is None) == (case in ("open_quote", "comments"))
    assert _raised(load_dataset_csv, path) == want
    if want is None:
        assert_same_dataset(load_dataset_csv(path), reference_load_dataset_csv(path))


@pytest.mark.parametrize("block", READ_BLOCKS)
def test_each_text_column_takes_the_width_of_its_own_strings(tmp_path, monkeypatch, block):
    # two group labels beside longer cluster ids, as simulate writes them
    monkeypatch.setattr(iomod, "READ_BLOCK_ROWS", block)
    d = bernoulli_iv_data(3, n=40, k=2)
    ids = np.array([f"r{c}:p{c % 5 + 1}" for c in d.cluster])
    d = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=ids, group_label=np.where(d.y > 1, "1", "0"))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, d, "test", 1)
    back = load_dataset_csv(path)
    assert back.group_label.dtype == np.dtype("<U1")
    assert back.cluster.dtype == np.dtype(f"<U{max(map(len, ids))}")
    assert_same_dataset(back, reference_load_dataset_csv(path))


# ---------------------------------------------------------------------------
# loader faults reported with their file line
# ---------------------------------------------------------------------------


def test_open_quote_does_not_hide_a_ragged_row(tmp_path):
    # numpy's reader lets a quoted field run on past the end of its line;
    # the ragged row after it must still be reported, as the row-by-row
    # reference reports it
    path = tmp_path / "d.csv"
    path.write_text(
        "y,a_1,z_1,x_1,cluster\n"
        '0.0,0.0,0.5,1.0,"c\n'
        "0.0,1.0,0.5,1.0,c,7\n"
        "0.0,0.0,0.5,1.0,c\n"
    )
    want = (SchemaError, "line 3: row has 6 fields, header has 5", None)
    assert _raised(reference_load_dataset_csv, path) == want
    assert _raised(load_dataset_csv, path) == want


def test_open_quote_at_line_end_loads_each_line_as_a_row(tmp_path):
    # numpy's reader folds the lines after an open quote into its field;
    # read as the row-by-row reference reads them, each line is one row
    path = tmp_path / "d.csv"
    path.write_text(
        "y,a_1,z_1,x_1,cluster\n"
        '0.0,0.0,0.5,1.0,"c\n'
        "0.0,1.0,0.5,1.0,c\n"
        "0.0,0.0,0.5,1.0,c\n"
    )
    d = load_dataset_csv(path)
    assert d.n_obs == 3
    assert list(d.cluster) == ["c\n", "c", "c"]
    assert_same_dataset(d, reference_load_dataset_csv(path))
    cov = tmp_path / "c.csv"
    cov.write_text('u,v\n1.0,"2.5\n3.0,4.0\n5.0,6.0\n')
    mat, names = load_covariates_csv(cov)
    assert names == ("u", "v")
    assert same_floats(mat, np.array([[1.0, 2.5], [3.0, 4.0], [5.0, 6.0]]))


def test_extra_field_reports_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "# c\ny,a_1,z_1,x_1,cluster\n1.0,0,0.5,1.0,c1\n\n1.0,0,0.5,1.0,c2,x\n"
    )
    with pytest.raises(SchemaError, match=re.escape("line 5: row has 6 fields, header has 5")):
        load_dataset_csv(path)


def test_first_fault_in_file_order_wins(tmp_path):
    path = tmp_path / "d.csv"
    head = "y,a_1,z_1,x_1,cluster\n1.0,0,0.5,1.0,c1\n"
    path.write_text(head + "1.0,0,bad,1.0,c1\n1.0,0,0.5\n")
    with pytest.raises(ParseError, match="'bad' in column 'z_1'") as exc:
        load_dataset_csv(path)
    assert exc.value.line == 3
    path.write_text(head + "1.0,0,0.5\n1.0,0,bad,1.0,c1\n")
    with pytest.raises(SchemaError, match="line 3: row has 3 fields"):
        load_dataset_csv(path)


@pytest.mark.parametrize("value", ["1_000", "\u0661\u0662", "\uff11"])
def test_numbers_float_accepts_but_csv_format_rejects(tmp_path, value):
    # float() takes digit-group underscores and non-ASCII digits; the
    # dataset format does not
    float(value)
    path = tmp_path / "d.csv"
    path.write_text(f"y,a_1,z_1,x_1,cluster\n1.0,0,0.5,1.0,c1\n{value},0,0.5,1.0,c1\n")
    with pytest.raises(ParseError, match="in column 'y'") as exc:
        load_dataset_csv(path)
    assert exc.value.line == 3


def test_dataset_ids_keep_quotes_commas_and_spaces(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        'y,a_1,z_1,x_1,cluster,group\n'
        '1.0,0," 0.5 ",1.0,"a,b",\n'
        '2.0,1,0.25,1.0," #x ","q""t"\n'
    )
    d = load_dataset_csv(path)
    assert list(d.cluster) == ["a,b", " #x "]
    assert list(d.group_label) == ["", 'q"t']
    assert d.z[:, 0].tolist() == [0.5, 0.25]


def test_covariates_ragged_row_reports_file_line(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    for block in READ_BLOCKS:
        monkeypatch.setattr(iomod, "READ_BLOCK_ROWS", block)
        path.write_text("# c\nattr,flag\n0.1,1.0\n\n0.2\n")
        with pytest.raises(SchemaError, match=re.escape("line 5: row has 1 fields, header has 2")):
            load_covariates_csv(path)
        path.write_text("# c\nattr,flag\n0.1,1.0,3.0\n0.2,0.0,1.0\n")
        with pytest.raises(SchemaError, match="line 3: row has 3 fields"):
            load_covariates_csv(path)


def test_covariates_parse_error_reports_file_line(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    path.write_text("# c\nattr,flag\n0.1,1.0\n0.3,0.0\n0.2,yes\n")
    for block in READ_BLOCKS:
        monkeypatch.setattr(iomod, "READ_BLOCK_ROWS", block)
        with pytest.raises(ParseError, match="'yes' in column 'flag'") as exc:
            load_covariates_csv(path)
        assert exc.value.line == 5


def test_covariates_without_rows_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# c\nattr,flag\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_covariates_csv(path)


def test_matrix_faults_report_file_line(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    for block in READ_BLOCKS:
        monkeypatch.setattr(iomod, "READ_BLOCK_ROWS", block)
        path.write_text("# c\n0.4,0.1\n\n0.2,x\n")
        with pytest.raises(ParseError) as exc:
            load_matrix_csv(path)
        assert exc.value.line == 4
        path.write_text("# c\n0.4,0.1\n0.2\n")
        with pytest.raises(SchemaError, match="^line 3: row has 1 fields, the first row has 2$"):
            load_matrix_csv(path)


def test_matrix_reads_as_the_dataset_does(tmp_path):
    # quoted and padded numbers, comments and blank lines anywhere
    path = tmp_path / "m.csv"
    path.write_text('# c\n" 0.4 ",-0.05\n\n# note\n-0.04,0.3\n')
    assert load_matrix_csv(path).tolist() == [[0.4, -0.05], [-0.04, 0.3]]
    path.write_text("0.4,0.1\n0.2,1_000\n")
    with pytest.raises(ParseError, match="'1_000' in column '2'") as exc:
        load_matrix_csv(path)
    assert exc.value.line == 2
    path.write_text("# c\n\n")
    with pytest.raises(SchemaError, match="empty matrix file"):
        load_matrix_csv(path)


POPULATION_ROWS = (
    "merit,prefs,po_0,po_1,po_2,label_group\n"
    '3,2|1,0.5,0.25,-0.0,"f,x"\n'
    '1,,1e-3,2.0,3.0,"say ""m"""\n'
)


def test_population_reads_quoted_labels_and_empty_prefs(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("# c\n" + POPULATION_ROWS.replace("\n3,", "\n\n# note\n3,", 1))
    pop = load_population_csv(path)
    assert pop.merit.tolist() == [3, 1]
    assert pop.prefs == [(2, 1), ()]
    assert same_floats(pop.po, np.array([[0.5, 0.25, -0.0], [1e-3, 2.0, 3.0]]))
    assert list(pop.labels["group"]) == ["f,x", 'say "m"']


@pytest.mark.parametrize("provenance", ["# cascadeiv test\n", ""])
def test_population_faults_report_file_line(tmp_path, monkeypatch, provenance):
    # a comment and a blank line before the bad row: with the provenance
    # line it is file line 6, without it line 5
    path = tmp_path / "pop.csv"
    want = 6 if provenance else 5
    cases = [
        ("x,1,0.5,0.25,0.0,m\n", ParseError, "'x' in column 'merit'"),
        ("2.5,1,0.5,0.25,0.0,m\n", ParseError, "'2.5' in column 'merit'"),
        ("2,1|y,0.5,0.25,0.0,m\n", ParseError, "'1|y' in column 'prefs'"),
        ("2,1,0.5,oops,0.0,m\n", ParseError, "'oops' in column 'po_1'"),
        ("2,1,0.5,0.25,0.0\n", SchemaError, f"line {want}: row has 5 fields, header has 6"),
    ]
    for block, (bad, error, message) in itertools.product(READ_BLOCKS, cases):
        monkeypatch.setattr(iomod, "READ_BLOCK_ROWS", block)
        path.write_text(provenance + POPULATION_ROWS[:POPULATION_ROWS.index("\n1,") + 1]
                        + "# note\n\n" + bad)
        with pytest.raises(error, match=re.escape(message)) as exc:
            load_population_csv(path)
        if error is ParseError:
            assert exc.value.line == want


# ---------------------------------------------------------------------------
# companion arrays: a load from one equals the parse, array by array
# ---------------------------------------------------------------------------


def dataset_arrays(d):
    return [d.y, d.a, d.z, d.x, d.cluster, d.group_label]


def assert_same_arrays(got, want):
    """Same dtype (string widths included), same shape and same bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes()


def load_with_and_without_companion(path, table, digest, load):
    """``load(path)`` from the companion written from ``table`` with the
    ``digest`` its writer returned, then parsed once the companion is
    deleted."""
    assert digest == iomod._scan(path)[1]  # the SHA-256 of the bytes written
    iomod.write_companion(path, table, digest)
    with mock.patch.object(iomod, "_parse_rows", side_effect=AssertionError("parsed")):
        stored = load(path)
    Path(f"{path}{iomod.COMPANION_SUFFIX}").unlink()
    return stored, load(path)


LABELS = st.sampled_from(AWKWARD_IDS) | st.text(ID_CHARS, min_size=1, max_size=6)
# uint8 entries beside entries whose bits a uint8 would not keep
STORED_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.0, 255.0, 256.0, 0.5, -1.0]) | FINITE


@st.composite
def companion_datasets(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))

    def floats(*shape):
        return np.array(draw(st.lists(STORED_FLOATS, min_size=n * k, max_size=n * k)))[
            : int(np.prod(shape))].reshape(shape)

    x = np.column_stack([np.ones(n), floats(n)])
    x[0, 1] = 0.0  # so the constant column stays the only nonzero constant one
    a = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n * k, max_size=n * k)))
    group = draw(st.none() | st.lists(LABELS | st.just(""), min_size=n, max_size=n))
    return Dataset(
        y=floats(n), a=a.reshape(n, k), z=floats(n, k), x=x,
        cluster=np.array(draw(st.lists(LABELS, min_size=n, max_size=n)), dtype=object),
        group_label=None if group is None else np.array(group, dtype=object),
    )


@settings(max_examples=150, deadline=None)
@given(companion_datasets())
def test_dataset_companion_loads_as_the_parser_does(d):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        digest = write_dataset_csv(path, d, "simulate", 1)
        stored, parsed = load_with_and_without_companion(path, d, digest, load_dataset_csv)
        assert_same_arrays(dataset_arrays(stored), dataset_arrays(parsed))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(ID_CHARS, max_size=5), min_size=1, max_size=4, unique=True),
    st.integers(1, 10),
    st.data(),
)
def test_covariates_companion_loads_as_the_parser_does(names, n, data):
    assume(all(name.strip() == name for name in names))  # the loader strips names
    assume(not names[0].startswith("#") and any(names))  # else not a header line
    entries = STORED_FLOATS | st.floats()  # NaNs of any sign and payload, infinities
    cov = {name: data.draw(st.lists(entries, min_size=n, max_size=n)) for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "covariates.csv"
        digest = write_covariates_csv(path, cov, "simulate", 1)
        (mat, got), (ref, want) = load_with_and_without_companion(path, cov, digest,
                                                                  load_covariates_csv)
        assert got == want
        assert_same_arrays([mat], [ref])


def _change_a_digit(text: str, start: int) -> str:
    """``text`` with its first digit from ``start`` on replaced by another."""
    at = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


@pytest.mark.parametrize("damage", [
    "missing", "another_tag", "cut_in_half", "cut_by_one_byte", "cut_after_the_digest",
    "stale_provenance", "stale_cell",
])
def test_a_companion_that_does_not_match_is_ignored(tmp_path, damage):
    d = awkward_dataset(40)
    path = tmp_path / "dataset.csv"
    iomod.write_companion(path, d, write_dataset_csv(path, d, "simulate", 1))
    companion = Path(f"{path}{iomod.COMPANION_SUFFIX}")
    raw, text = companion.read_bytes(), path.read_text(encoding="utf-8")
    tag = iomod._COMPANION_TAG
    if damage == "missing":
        companion.unlink()
    elif damage == "another_tag":
        companion.write_bytes(raw.replace(tag, tag.replace(b"1", b"2"), 1))
    elif damage.startswith("cut"):
        head = raw.index(tag) + len(tag) + 32  # the tag and the digest
        cut = {"cut_in_half": len(raw) // 2, "cut_by_one_byte": len(raw) - 1}.get(damage, head)
        companion.write_bytes(raw[:cut])
    else:  # one byte of the CSV changed: of its provenance line, or of a cell
        start = 0 if damage == "stale_provenance" else text.index("\n", text.index("\n") + 1)
        path.write_text(_change_a_digit(text, start), encoding="utf-8")
    with mock.patch.object(iomod, "_parse_rows", wraps=iomod._parse_rows) as parse:
        loaded = load_dataset_csv(path)
    assert parse.called
    companion.unlink(missing_ok=True)
    assert_same_arrays(dataset_arrays(loaded), dataset_arrays(load_dataset_csv(path)))


def test_a_byte_order_mark_is_skipped(tmp_path):
    d = awkward_dataset(30)
    cov = {"merit": np.arange(30.0), "attr": np.linspace(-1.0, 1.0, 30)}
    write_dataset_csv(tmp_path / "d.csv", d, "simulate", 1)
    write_covariates_csv(tmp_path / "c.csv", cov, "simulate", 1)
    (tmp_path / "m.csv").write_text("0.4,-0.05\n-0.04,0.3\n")
    (tmp_path / "config.json").write_text(json.dumps({"synth": {"n": 10}, "capacities": [2]}))
    loads = {"d.csv": lambda p: dataset_arrays(load_dataset_csv(p)),
             "c.csv": lambda p: list(load_covariates_csv(p)[0:1]),
             "m.csv": lambda p: [load_matrix_csv(p)],
             "config.json": load_run_config}
    for name, load in loads.items():
        path = tmp_path / name
        plain = load(path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        if name == "config.json":
            assert load(path) == plain
        else:
            assert_same_arrays(load(path), plain)


def test_tables_are_written_as_utf8_whatever_the_locale(tmp_path):
    # an ASCII locale, with neither UTF-8 mode nor locale coercion
    env = dict(os.environ, PYTHONPATH=str(Path(iomod.__file__).parents[1]), LC_ALL="C",
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    script = ("import sys\nfrom cascadeiv.io import text_cells, write_table\n"  # ASCII source
              "labels = ['caf\\u00e9', '\\u6f22\\u5b57']\n"
              "write_table(sys.argv[1], 'test', None, ['label'], [(labels, text_cells)])\n")
    path = tmp_path / "t.csv"
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
    assert path.read_bytes().decode("utf-8").splitlines()[1:] == ["label", "café", "漢字"]


# ---------------------------------------------------------------------------
# a simulation's tables, written from its records
# ---------------------------------------------------------------------------


@st.composite
def labelled_markets(draw):
    """n <= 12, K from 1 to 4, two merit brackets, nonempty lists and at
    most n/2 seats a program, so most draws have a pivotal group; a
    ``group`` label, one of whose levels holds a comma and a quote."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    merits = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    prefs = [tuple(draw(st.permutations(range(1, k + 1)))[: draw(st.integers(1, k))])
             for _ in range(n)]
    caps = tuple(draw(st.lists(st.integers(1, n // 2), min_size=k, max_size=k)))
    seed = draw(st.integers(0, 2**32 - 1))
    po = np.random.default_rng(seed).standard_normal((n, k + 1))
    po[0, 0] = -0.0  # an outcome whose sign the stacked rows drop
    levels = ['say "a,b"', "plain", "ünï"]
    labels = {"attr": np.random.default_rng(seed + 1).standard_normal(n),
              "group": np.array(draw(st.lists(st.sampled_from(levels), min_size=n,
                                              max_size=n)))}
    pop = Population(merit=np.asarray(merits, dtype=np.int64), prefs=prefs, po=po,
                     labels=labels)
    return pop, MechanismConfig(capacities=caps, lottery_seed=seed)


def cut_to_one_row(run):
    """``run`` with each record cut to its first member: a pivotal group has
    two members or more, so only a cut run has one-row records."""
    run._records = [(r, prog, idx[:1], luck[:1], asg[:1])
                    for r, prog, idx, luck, asg in run._records]
    run._sizes = np.ones(run.n_clusters, dtype=int)
    run._bounds = list(range(run.n_clusters + 1))
    run.n_obs = run.n_clusters
    return run


@settings(max_examples=150, deadline=None)
@given(labelled_markets(), st.integers(1, 3), st.sampled_from([None, "group"]),
       st.sampled_from([1, 3, WRITE_BLOCK_ROWS]), st.booleans())
def test_records_write_the_bytes_of_the_stacked_tables(market, reps, label, block, one_row):
    pop, cfg = market
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoPivotalProgramWarning)
        try:
            run = simulate_run(pop, cfg, reps, cfg.lottery_seed, label=label)
        except NoPivotalVariation:
            return
    if one_row:
        run = cut_to_one_row(run)
    event(f"K = {run.n_treatments}, {'with' if label else 'without'} a label")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(iomod, "WRITE_BLOCK_ROWS", block):  # blocks that cut records
        got, want = Path(tmp) / "got", Path(tmp) / "want"
        got.mkdir()
        want.mkdir()
        digests, write_csv = {}, iomod.write_csv

        def hashing(path, *args):
            digests[path] = write_csv(path, *args)
            return digests[path]

        with mock.patch.object(iomod, "write_csv", hashing):
            iomod.write_simulation_csvs(got, run, "simulate", 5)
        assert not {"dataset", "covariates"} & set(vars(run))
        assert len(digests) == 2
        for path, digest in digests.items():
            assert digest == iomod._scan(path)[1]
        for name, table, write in (("dataset.csv", run.dataset, write_dataset_csv),
                                   ("covariates.csv", run.covariates, write_covariates_csv)):
            iomod.write_companion(want / name, table, write(want / name, table, "simulate", 5))
        for name in ("dataset.csv", "covariates.csv"):
            for file in (name, name + iomod.COMPANION_SUFFIX):
                assert (got / file).read_bytes() == (want / file).read_bytes(), file


def test_simulation_tables_hold_no_stacked_rows():
    pop = generate_population(SynthConfig(n=2000, k=3, seed=2, label_share=0.5))
    run = simulate_run(pop, MechanismConfig(capacities=(150, 150, 150), lottery_seed=0), 3, 4,
                       label="group")
    with tempfile.TemporaryDirectory() as tmp:
        iomod.write_simulation_csvs(tmp, run, "simulate", 4)
        assert not {"dataset", "covariates"} & set(vars(run))
        lines = (Path(tmp) / "dataset.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + run.n_obs


def reference_undecodable_line(raw: bytes) -> int | None:
    """The first line, as ``bytes.splitlines`` splits them, that is not UTF-8."""
    for no, line in enumerate(raw.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return no
    return None


@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"caf\xe9"])
def test_undecodable_line_streams_past_mixed_line_endings(tmp_path, bad):
    # \n, \r and \r\n breaks and a sequence of three bytes before the bad
    # one; every chunk size from 1 byte up cuts a \r\n, or the sequence, or
    # the bad bytes somewhere
    head, tail = b"# c\r\ny,x\r1,\xe2\x82\xac\n\r\n2,3\r\r\n4,", b"\r\n5,6\n"
    raw = head + bad + tail
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    want = reference_undecodable_line(raw)
    assert want == 7
    for size in range(1, len(raw) + 2):
        with mock.patch.object(iomod, "DECODE_CHUNK_BYTES", size):
            assert iomod._undecodable_line(path) == want, size
    path.write_bytes(raw + b"7,\xe2\x82")  # cut at the end of the file
    (tmp_path / "ok.csv").write_bytes(head + b"8" + tail)
    with mock.patch.object(iomod, "DECODE_CHUNK_BYTES", 4):
        assert iomod._undecodable_line(path) == want
        assert iomod._undecodable_line(tmp_path / "ok.csv") is None
    path.write_bytes(head + b"8" + tail + b"7,\xe2\x82")
    assert iomod._undecodable_line(path) == reference_undecodable_line(path.read_bytes()) == 9
