"""Applicant-level rectangular data consumed by all estimators."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Dataset"]


@dataclass(frozen=True)
class Dataset:
    """Outcome, treatments, instruments, controls, and cluster ids.

    Attributes
    ----------
    y : (N,) outcome vector.
    a : (N, K) treatment indicator matrix. Entries must be 0/1 unless
        ``binary_treatments`` is False (continuous allocations, e.g. goods
        bought in a market).
    z : (N, K) instrument matrix. The system is just identified: one
        instrument per treatment. Overidentified inputs are rejected.
    x : (N, p) control matrix containing exactly one (nonzero) constant
        column.
    cluster : (N,) cluster identifiers; every id must be nonempty.
    group_label : optional (N,) categorical labels (e.g. gender).
    binary_treatments : enforce the 0/1 invariant on ``a``.

    The estimators partial the controls out inside their fit; a Dataset
    always holds the raw data, as read-only views of the given arrays (the
    caller's arrays stay writable), so the cluster coding and the moment
    object every estimator reads, each made once on first use, stay valid;
    ``dataclasses.replace`` gives a new Dataset, which makes its own.
    """

    y: np.ndarray
    a: np.ndarray
    z: np.ndarray
    x: np.ndarray
    cluster: np.ndarray
    group_label: np.ndarray | None = None
    binary_treatments: bool = True

    def __post_init__(self):
        arrays = {"y": np.asarray(self.y, dtype=float), "cluster": np.asarray(self.cluster)}
        for name in ("a", "z", "x"):
            arrays[name] = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
        if self.group_label is not None:
            arrays["group_label"] = np.asarray(self.group_label)
        for name, arr in arrays.items():
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self._validate()

    def _validate(self):
        n = self.y.shape[0]
        if self.y.ndim != 1:
            raise DataError("y must be one-dimensional")
        for name, block in (("a", self.a), ("z", self.z), ("x", self.x)):
            if block.ndim != 2:
                raise DataError(f"{name} must be two-dimensional")
            if block.shape[0] != n:
                raise DataError(
                    f"{name} has {block.shape[0]} rows; expected {n} to match y"
                )
        if self.cluster.shape != (n,):
            raise DataError("cluster must be a length-N vector")
        if self.group_label is not None and self.group_label.shape != (n,):
            raise DataError("group_label must be a length-N vector")
        if self.a.shape[1] != self.z.shape[1]:
            raise DataError(
                f"just-identified systems only: {self.a.shape[1]} treatments "
                f"but {self.z.shape[1]} instruments"
            )
        if not np.all(np.isfinite(self.a)) or not np.all(np.isfinite(self.z)):
            raise DataError("a and z must be finite")
        if not np.all(np.isfinite(self.y)) or not np.all(np.isfinite(self.x)):
            raise DataError("y and x must be finite")
        if self.binary_treatments and not np.all((self.a == 0.0) | (self.a == 1.0)):
            raise DataError("treatment indicators must be 0/1")
        if n == 0:
            raise DataError("a Dataset needs at least one row")
        # exactly one nonzero constant column
        constant = (self.x == self.x[0]).all(axis=0)
        const_cols = np.flatnonzero(constant & (self.x[0] != 0))
        if const_cols.size != 1:
            raise DataError(
                f"x must contain exactly one nonzero constant column; "
                f"found {const_cols.size}"
            )
        kind = self.cluster.dtype.kind
        if kind in "US":
            empty = np.char.str_len(self.cluster) == 0
        elif kind == "O":
            empty = (self.cluster == None) | (self.cluster == "")  # noqa: E711
        else:
            empty = np.False_
        if empty.any():
            raise DataError("every cluster id must be nonempty")

    # -- sizes ------------------------------------------------------------

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_treatments(self) -> int:
        return self.a.shape[1]

    @property
    def n_controls(self) -> int:
        return self.x.shape[1]

    @property
    def n_clusters(self) -> int:
        return self._coding[0]

    def cluster_codes(self) -> np.ndarray:
        """Integer codes 0..G-1 for the cluster ids (read-only; made once)."""
        return self._coding[1]

    @functools.cached_property
    def _coding(self) -> tuple[int, np.ndarray]:
        ids, codes = _factorize(self.cluster)
        codes.flags.writeable = False
        return ids.size, codes

    @functools.cached_property
    def _moments(self) -> _Moments:
        return _Moments(self.cluster_codes(), *_block_writer((self.x, self.z, self.a, self.y)),
                        self.group_label)


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` without a sorted copy of
    every entry: only the first entry of each run of equal entries is
    sorted, and each entry is looked up among the distinct values."""
    distinct = np.unique(values[_run_starts(values)])
    return distinct, np.searchsorted(distinct, values)


class _Moments:
    """Per-(cluster, level) cross-products of W = [x, z, a, y] and their row
    counts, built on first use by a Dataset or a simulation run from each
    row's cluster code, W's width d, a writer ``write(rows, out)`` of rows
    ``rows`` (a slice or an ascending index array) of W into a zeroed
    ``out``, and the rows' group labels (one level without), whose sorted
    distinct values are the ``levels``. The G x L x d x d tensor is kept
    only when G L d <= N, each cell's rows written into one array and W
    never stacked; for clusters of a few rows it would outgrow the rows,
    which are kept instead, sorted into a run per level, row i weighted by
    c[code_i]. The same rows, codes and labels give the same bits whoever
    writes them."""

    def __init__(self, codes: np.ndarray, d: int, write, labels=None):
        n = codes.size
        self.g = int(codes.max()) + 1
        self.levels, level = (None, None) if labels is None else _factorize(labels)
        n_lev = 1 if labels is None else self.levels.size
        tensor = self.g * n_lev * d <= n
        # one run of rows per (cluster, level) cell, or per level; codes may
        # be narrow, so they are widened before a product that could wrap
        key = (level if not tensor else codes if labels is None
               else codes.astype(np.intp) * n_lev + level)
        order, self.runs = slice(None), [(0, 0, n)]
        if key is not None:
            starts = _run_starts(key)
            if starts.size > np.unique(key[starts]).size:  # a cell split into runs
                order = np.argsort(key, kind="stable")
                key = key[order]
                starts = _run_starts(key)
            ends = np.r_[starts[1:], n]
            self.runs = list(zip(key[starts].tolist(), starts.tolist(), ends.tolist()))
        if tensor:
            self.rows = np.bincount(key[starts], ends - starts, self.g * n_lev).astype(np.intp)
            self.rows, self.m = self.rows.reshape(self.g, n_lev), np.zeros((self.g, n_lev, d, d))
        else:
            self.m, self.w, self.codes = None, np.zeros((n, d)), codes[order]
        for cell, lo, hi in self.runs:
            wc = np.zeros((hi - lo, d)) if tensor else self.w[lo:hi]
            write(slice(lo, hi) if isinstance(order, slice) else order[lo:hi], wc)
            if tensor:
                self.m[divmod(cell, n_lev)] = wc.T @ wc

    def grams(self, c: np.ndarray):
        """Each level's Gram at cluster weights c, (L, d, d), and row count, (L,)."""
        if self.m is not None:
            return np.tensordot(c, self.m, 1), c @ self.rows
        v = c.astype(float)[self.codes]
        out = np.empty((len(self.runs), self.w.shape[1], self.w.shape[1]))
        rows = np.empty(len(self.runs), dtype=np.intp)
        for level, lo, hi in self.runs:
            out[level] = (self.w[lo:hi].T * v[lo:hi]) @ self.w[lo:hi]
            rows[level] = v[lo:hi].sum()
        return out, rows

    def scores(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """G x m sums over each cluster's rows of (w_i'left[:, j]) (w_i'right[:, j])."""
        if self.m is not None:
            return ((self.m.sum(axis=1) @ right) * left).sum(axis=1)
        out = np.empty((left.shape[1], self.g))
        for j in range(0, left.shape[1], 4):  # 4 x N products, beside the G x m sums
            prod = (left[:, j : j + 4].T @ self.w.T) * (right[:, j : j + 4].T @ self.w.T)
            for i, row in enumerate(prod, start=j):
                out[i] = np.bincount(self.codes, weights=row, minlength=self.g)
        return out.T


def _run_starts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal keys starts."""
    return np.r_[0, np.flatnonzero(key[1:] != key[:-1]) + 1]


def _block_writer(blocks) -> tuple:
    """The width d of W = [blocks], each an (N,) or (N, m) array, and its
    writer for ``_Moments``: rows ``rows`` of each block into its columns."""
    blocks = [b.reshape(len(b), -1) for b in blocks]

    def write(rows, out):
        col = 0
        for b in blocks:
            out[:, col : col + b.shape[1]] = b[rows]
            col += b.shape[1]

    return sum(b.shape[1] for b in blocks), write


def _mapped(shape, dtype=float) -> np.ndarray:
    """A zeroed array in a memory map of its own, for the rows a command
    holds: the map goes back to the system as soon as the array's last view
    does, so arrays of rows that come and go never fragment the heap, and
    pages never written (rows allocated but never read) take no memory."""
    import mmap

    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)
