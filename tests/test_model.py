import numpy as np
import pytest

import nerboot as nb
from nerboot.errors import (
    DataError,
    DimensionMismatch,
    EmptyCluster,
    InsufficientDegreesOfFreedom,
    NonPositiveScale,
)

import _brute
from conftest import benchmark_dataset


def test_build_dataset_basic_counts():
    d = nb.from_arrays(list("aabbcc"), [0.0, 1.0] * 3, [1.0, 2.0] * 3)
    assert d.n == 3
    assert d.total == 6
    assert d.r == 1
    assert d.total - d.n - d.r == 2
    assert d.cluster_ids == ("a", "b", "c")


def test_build_dataset_singleton_cluster_rejected():
    with pytest.raises(EmptyCluster):
        nb.from_arrays(["a", "a", "b"], [0.0, 1.0, 0.5], [1.0, 2.0, 1.5])


def test_benchmark_design_dimensions():
    d = benchmark_dataset(n=60, m=3)
    assert d.n == 60
    assert d.total == 180
    assert np.all(d.sizes == 3)
    assert np.all(d.s == 1.0)


def test_build_dataset_validation_errors():
    labels = ["a", "a", "b", "b"]
    x, y = [0.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 1.0]
    with pytest.raises(DataError):
        nb.from_arrays(labels[:2], x[:2], y[:2])  # only one cluster
    with pytest.raises(DimensionMismatch):
        nb.from_arrays(labels, x[:3], y)
    with pytest.raises(NonPositiveScale):
        nb.from_arrays(labels, x, y, [1.0, 1.0, 0.0, 1.0])
    # 2 clusters x 2 obs with r = 2: N - n = 2 <= r
    x2 = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]
    with pytest.raises(InsufficientDegreesOfFreedom):
        nb.from_arrays(labels, x2, [1.0, 2.0, 1.5, 1.2])


def test_interleaved_rows_grouped_in_first_appearance_order():
    labels = ["b", "a", "b", "a"]
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([10.0, 20.0, 30.0, 40.0])
    d = nb.from_arrays(labels, x, y)
    assert d.cluster_ids == ("b", "a")
    np.testing.assert_array_equal(_brute.clusters(d)[0].y, [10.0, 30.0])
    np.testing.assert_array_equal(_brute.clusters(d)[1].y, [20.0, 40.0])


def test_summarize_unit_scales():
    d = nb.from_arrays(list("aaabb"), [0.0, 1.0, 2.0, 1.0, 2.0], [0.0, 1.0, 2.0, 1.0, 2.0])
    np.testing.assert_allclose(d.design.a, [3.0, 2.0])
    np.testing.assert_allclose(d.design.x_bar, d.design.x_under, atol=1e-12)


def test_summarize_hand_example():
    # n_i = 2, s = (1, 2), x = (1, 3): a = 1.25, weighted mean = 1.4
    d = nb.from_arrays(list("aabb"), [1.0, 3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0],
                       [1.0, 2.0, 1.0, 1.0])
    assert d.design.a[0] == pytest.approx(1.25)
    assert d.design.x_bar[0, 0] == pytest.approx((1.0 * 1.0 + 0.25 * 3.0) / 1.25)
    assert d.design.x_bar[0, 0] == pytest.approx(1.4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_summarize_matches_brute_force(seed):
    from conftest import random_ragged_dataset

    d = random_ragged_dataset(seed, r=2)
    a, xbar, ybar, xunder = _brute.summaries(d)
    np.testing.assert_allclose(d.design.a, a, rtol=1e-12)
    np.testing.assert_allclose(d.design.x_bar, xbar, rtol=1e-12)
    np.testing.assert_allclose(_brute.summarize(d, d.y), ybar, rtol=1e-12)
    np.testing.assert_allclose(d.design.x_under, xunder, rtol=1e-12)
    # a (B, N) block of response rows gives one row of means per world
    block = np.stack([d.y, 2.0 * d.y])
    np.testing.assert_allclose(
        _brute.summarize(d, block), [ybar, 2.0 * ybar], rtol=1e-12
    )


def test_summarize_scale_consistency():
    from conftest import random_ragged_dataset

    d = random_ragged_dataset(3)
    c = 2.5  # rescale every s_ij in every cluster by c
    d2 = nb.from_arrays(
        np.repeat(np.arange(d.n), d.sizes), d.x.copy(), d.y.copy(), d.s * c
    )
    np.testing.assert_allclose(d2.design.a, d.design.a / c**2, rtol=1e-12)
    np.testing.assert_allclose(d2.design.x_bar, d.design.x_bar, rtol=1e-12)
    np.testing.assert_allclose(
        _brute.summarize(d2, d2.y), _brute.summarize(d, d.y), rtol=1e-12
    )


def test_with_responses_shares_design_and_checks_shape():
    d = benchmark_dataset(n=5, m=3)
    d2 = _brute.with_responses(d, d.y + 1.0)
    assert d2.x is d.x and d2.s is d.s
    assert d2._cache is d._cache
    with pytest.raises(DimensionMismatch):
        _brute.with_responses(d, np.zeros(3))


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "cluster,y,s,x1\n"
        "a,1.5,1.0,0.25\n"
        "a,2.5,2.0,0.75\n"
        "b,0.5,1.0,0.5\n"
        "b,1.0,1.0,0.6\n"
    )
    d = nb.read_csv_dataset(path)
    assert d.cluster_ids == ("a", "b")
    np.testing.assert_allclose(_brute.clusters(d)[0].s, [1.0, 2.0])

    # s column optional, defaults to 1
    path2 = tmp_path / "nos.csv"
    path2.write_text("cluster,y,x1\na,1,0.2\na,2,0.4\nb,0,0.1\nb,1,0.9\n")
    d2 = nb.read_csv_dataset(path2)
    assert np.all(d2.s == 1.0)

    bad = tmp_path / "bad.csv"
    bad.write_text("id,y,x1\na,1,0.2\n")
    with pytest.raises(DataError):
        nb.read_csv_dataset(bad)


def test_csv_ignores_columns_that_are_not_covariates(tmp_path):
    # only x<digits> headers are covariates; "xtra" and "x" are not
    path = tmp_path / "extra.csv"
    path.write_text(
        "cluster,y,xtra,x1,x,x2\n"
        "a,1.5,9,0.25,7,1.0\n"
        "a,2.5,9,0.75,7,3.0\n"
        "a,2.0,9,0.55,7,4.0\n"
        "b,0.5,9,0.5,7,2.0\n"
        "b,1.0,9,0.6,7,5.0\n"
    )
    d = nb.read_csv_dataset(path)
    assert d.r == 2
    np.testing.assert_array_equal(
        d.x, [[0.25, 1.0], [0.75, 3.0], [0.55, 4.0], [0.5, 2.0], [0.6, 5.0]]
    )
    np.testing.assert_array_equal(d.y, [1.5, 2.5, 2.0, 0.5, 1.0])

    only_extra = tmp_path / "only_extra.csv"
    only_extra.write_text("cluster,y,xtra\na,1,0.2\na,2,0.4\n")
    with pytest.raises(DataError):
        nb.read_csv_dataset(only_extra)
