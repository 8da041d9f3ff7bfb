import contextlib
import functools
import inspect
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from cascadeiv import Dataset
from cascadeiv import mechanism
from cascadeiv.data import _Moments
from cascadeiv.errors import RankDeficientControls, SingularInstrumentGram


def default_pi(k):
    pi = np.full((k, k), -0.04)
    np.fill_diagonal(pi, 0.4)
    return pi


def bernoulli_iv_data(
    seed,
    n=4000,
    k=3,
    beta=None,
    pi=None,
    base=0.3,
    noise=0.5,
    n_clusters=40,
    intercept=1.0,
    x_extra=0,
    group_share=None,
):
    """IV data with a known linear first stage and binary treatments."""
    rng = np.random.default_rng(seed)
    pi = default_pi(k) if pi is None else np.asarray(pi, dtype=float)
    beta = np.linspace(0.5, -0.5, k) if beta is None else np.asarray(beta, dtype=float)
    z = rng.random((n, k))
    a = (rng.random((n, k)) < base + z @ pi.T).astype(float)
    x = np.ones((n, 1))
    gamma = np.zeros(0)
    if x_extra:
        x = np.column_stack([x, rng.standard_normal((n, x_extra))])
        gamma = rng.uniform(-0.5, 0.5, x_extra)
    y = intercept + a @ beta + (x[:, 1:] @ gamma if x_extra else 0.0)
    y = y + noise * rng.standard_normal(n)
    cluster = rng.integers(0, n_clusters, n)
    group = None
    if group_share is not None:
        group = np.where(rng.random(n) < group_share, "f", "m")
    return Dataset(y=y, a=a, z=z, x=x, cluster=cluster, group_label=group)


def take_rows(data, rows):
    """The Dataset of ``rows`` of ``data``, in that order: group subsamples
    and resampled clusters in the tests."""
    return replace(
        data,
        y=data.y[rows],
        a=data.a[rows],
        z=data.z[rows],
        x=data.x[rows],
        cluster=data.cluster[rows],
        group_label=None if data.group_label is None else data.group_label[rows],
    )


@contextlib.contextmanager
def counting_moment_builds():
    """Counts the moment objects built (``_Moments`` has one constructor,
    whether a Dataset's rows or a simulation's records write them) and the
    codings of a Dataset's cluster ids (its one ``np.unique`` of them)."""
    counts = {"built": 0, "coded": 0}
    init = _Moments.__init__
    coding = Dataset._coding.func

    def built(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def coded(self):
        counts["coded"] += 1
        return coding(self)

    counted = functools.cached_property(coded)
    counted.__set_name__(Dataset, "_coding")
    with mock.patch.object(_Moments, "__init__", built), \
            mock.patch.object(Dataset, "_coding", counted):
        yield counts


@contextlib.contextmanager
def counting_sweeps():
    """Counts the cutoff sweeps started from -inf (``cold``) and from an
    earlier sweep's result (``warm``)."""
    counts = {"cold": 0, "warm": 0}
    sweep = mechanism._sweep
    signature = inspect.signature(sweep)

    def counted(*args, **kwargs):
        start = signature.bind(*args, **kwargs).arguments.get("start")
        counts["cold" if start is None else "warm"] += 1
        return sweep(*args, **kwargs)

    with mock.patch.object(mechanism, "_sweep", counted):
        yield counts


def assert_same_sweep(got, want):
    """Two cutoff sweeps end in the same state, bit for bit: cutoffs, seats
    and stop positions, and each program's holders with their priorities,
    compared in applicant order (a sweep keeps them in no particular
    order)."""
    for name in ("cutoffs", "assignment", "pos"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for ids, held, want_ids, want_held in zip(got.holders, got.held, want.holders, want.held):
        order, want_order = np.argsort(ids), np.argsort(want_ids)
        assert np.array_equal(ids[order], want_ids[want_order])
        assert np.array_equal(held[order], want_held[want_order])


def noiseless_iv_data(seed, n=2000, k=3, beta=(0.5, -0.2, 0.0), base=0.3):
    """y built exactly from the treatments; no residual noise."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    z = rng.random((n, k))
    a = (rng.random((n, k)) < base + z @ default_pi(k).T).astype(float)
    y = 1.0 + a @ beta
    cluster = rng.integers(0, 30, n)
    return Dataset(y=y, a=a, z=z, x=np.ones((n, 1)), cluster=cluster)


def well_conditioned_pi(rng, k, max_cond=50.0):
    while True:
        pi = rng.uniform(-0.5, 0.5, (k, k))
        np.fill_diagonal(pi, rng.uniform(0.8, 1.5, k) * np.sign(rng.uniform(-1, 1, k)))
        if np.linalg.cond(pi.T) < max_cond:
            return pi


def _pivoted_qr(m):
    """Economic pivoted QR of m, ``m[:, piv] == q @ r``, with its numerical rank."""
    n, p = m.shape
    q, r, piv = scipy.linalg.qr(m, mode="economic", pivoting=True)
    rdiag = np.abs(np.diag(r))
    tol = np.finfo(float).eps * max(n, p) * (rdiag[0] if rdiag.size else 0.0)
    return q, r, piv, int(np.sum(rdiag > tol))


@dataclass(frozen=True)
class ReferenceFit:
    """y, a and z net of the controls, and Pi' and RF from one QR of z."""

    y: np.ndarray
    a: np.ndarray
    z: np.ndarray
    n_controls: int
    pi_t: np.ndarray
    rf: np.ndarray

    @property
    def n_obs(self) -> int:
        return self.a.shape[0]


def reference_fit(data):
    """The fit on the rows, by pivoted QR: an orthonormal basis of the
    controls, the residuals on it, and a pivoted QR of the residual
    instruments. Raises the package's errors for dependent controls and
    instruments, with the QR's own rank tolerance (eps * max(n, p) of the
    largest pivot). Held as the reference the Gram fit is tested against."""
    q, r, piv, rank = _pivoted_qr(data.x)
    if rank < data.x.shape[1]:
        # fewer rows than controls leave no diagonal entry at the rank
        top, bad = abs(r[0, 0]), abs(r[rank, rank]) if rank < r.shape[0] else 0.0
        raise RankDeficientControls(column=int(piv[rank]),
                                    cond=float(np.inf if bad == 0 else top / bad))
    y, a, z = (m - q @ (q.T @ m) for m in (data.y, data.a, data.z))
    qz, r, piv, rank = _pivoted_qr(z)
    k = data.n_treatments
    if rank < k:
        raise SingularInstrumentGram(f"offending instrument column {piv[rank] + 1}")
    # z[:, piv] = QR, so z (z'z)^-1 = Q R^-T with its columns un-pivoted
    proj_t = np.empty((k, data.n_obs))
    proj_t[piv] = scipy.linalg.solve_triangular(r, qz.T)
    return ReferenceFit(y, a, z, data.n_controls, proj_t @ a, proj_t @ y)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
