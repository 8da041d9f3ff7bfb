import numpy as np
import pytest

from cascadeiv import Dataset
from cascadeiv.errors import DataError

from conftest import bernoulli_iv_data


def test_valid_dataset_roundtrips_fields():
    d = bernoulli_iv_data(0, n=50, k=2)
    assert d.n_obs == 50
    assert d.n_treatments == 2
    assert d.n_clusters <= 40


def test_row_count_mismatch_rejected():
    d = bernoulli_iv_data(0, n=50, k=2)
    with pytest.raises(DataError, match="rows"):
        Dataset(y=d.y[:-1], a=d.a, z=d.z, x=d.x, cluster=d.cluster)


def test_nonbinary_treatments_rejected():
    d = bernoulli_iv_data(0, n=50, k=2)
    a = d.a.copy()
    a[0, 0] = 0.5
    with pytest.raises(DataError, match="0/1"):
        Dataset(y=d.y, a=a, z=d.z, x=d.x, cluster=d.cluster)
    # allowed when flagged continuous
    Dataset(y=d.y, a=a, z=d.z, x=d.x, cluster=d.cluster, binary_treatments=False)


def test_overidentified_rejected():
    d = bernoulli_iv_data(0, n=50, k=2)
    z = np.column_stack([d.z, d.z[:, 0]])
    with pytest.raises(DataError, match="just-identified"):
        Dataset(y=d.y, a=d.a, z=z, x=d.x, cluster=d.cluster)


def test_constant_column_required():
    d = bernoulli_iv_data(0, n=50, k=2)
    rng = np.random.default_rng(1)
    with pytest.raises(DataError, match="constant"):
        Dataset(y=d.y, a=d.a, z=d.z, x=rng.standard_normal((50, 2)), cluster=d.cluster)
    with pytest.raises(DataError, match="constant"):
        Dataset(y=d.y, a=d.a, z=d.z, x=np.ones((50, 2)), cluster=d.cluster)


def test_zero_row_dataset_rejected():
    with pytest.raises(DataError, match="at least one row"):
        Dataset(y=np.zeros(0), a=np.zeros((0, 2)), z=np.zeros((0, 2)), x=np.ones((0, 1)),
                cluster=np.zeros(0, dtype=str))


def test_empty_cluster_id_rejected():
    d = bernoulli_iv_data(0, n=50, k=2)
    cluster = d.cluster.astype(object)
    cluster[3] = ""
    with pytest.raises(DataError, match="nonempty"):
        Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=cluster)


@pytest.mark.parametrize(
    "empty, dtype",
    [("", str), ("", object), (None, object), (np.str_(""), object), (b"", bytes)],
)
def test_empty_cluster_id_forms_rejected(empty, dtype):
    d = bernoulli_iv_data(0, n=50, k=2)
    cluster = np.array([f"c{i % 7}" for i in range(50)], dtype=object)
    if dtype is bytes:
        cluster = np.array([c.encode() for c in cluster])
    cluster[-1] = empty
    cluster = cluster.astype(dtype)
    with pytest.raises(DataError, match="every cluster id must be nonempty"):
        Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=cluster)
    # the same ids without the empty one are accepted, and so are ids that
    # only look empty
    cluster[-1] = cluster[0]
    Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=cluster)
    cluster[-1] = " " if dtype is not bytes else b" "
    Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=cluster)


def test_numeric_cluster_ids_accepted():
    d = bernoulli_iv_data(0, n=50, k=2)
    Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=np.arange(50) % 5)
