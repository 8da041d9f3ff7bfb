"""Applicant-level rectangular data consumed by all estimators."""

from __future__ import annotations

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
    always holds the raw data.
    """

    y: np.ndarray
    a: np.ndarray
    z: np.ndarray
    x: np.ndarray
    cluster: np.ndarray
    group_label: np.ndarray | None = None
    binary_treatments: bool = True

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        z = np.atleast_2d(np.asarray(self.z, dtype=float))
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        cluster = np.asarray(self.cluster)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cluster", cluster)
        if self.group_label is not None:
            object.__setattr__(self, "group_label", np.asarray(self.group_label))
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
        return np.unique(self.cluster).size

    def cluster_codes(self) -> np.ndarray:
        """Integer codes 0..G-1 for the cluster ids."""
        _, codes = np.unique(self.cluster, return_inverse=True)
        return codes
