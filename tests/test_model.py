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
    raw = [(c, [float(j)], 1.0 + j, 1.0) for c in "abc" for j in range(2)]
    d = nb.build_dataset(raw)
    assert d.n == 3
    assert d.total == 6
    assert d.r == 1
    assert d.total - d.n - d.r == 2
    assert d.cluster_ids == ("a", "b", "c")


def test_build_dataset_singleton_cluster_rejected():
    raw = [("a", [0.0], 1.0, 1.0), ("a", [1.0], 2.0, 1.0), ("b", [0.5], 1.5, 1.0)]
    with pytest.raises(EmptyCluster):
        nb.build_dataset(raw)


def test_benchmark_design_dimensions():
    d = benchmark_dataset(n=60, m=3)
    assert d.n == 60
    assert d.total == 180
    assert np.all(d.sizes == 3)
    assert np.all(d.s == 1.0)


def test_build_dataset_validation_errors():
    ok = [("a", [0.0], 1.0, 1.0), ("a", [1.0], 2.0, 1.0)]
    with pytest.raises(DataError):
        nb.build_dataset(ok)  # only one cluster
    with pytest.raises(DimensionMismatch):
        nb.build_dataset(ok + [("b", [0.0, 1.0], 1.0, 1.0), ("b", [1.0], 1.0, 1.0)])
    with pytest.raises(NonPositiveScale):
        nb.build_dataset(ok + [("b", [0.0], 1.0, 0.0), ("b", [1.0], 1.0, 1.0)])
    # 2 clusters x 2 obs with r = 2: N - n = 2 <= r
    rows = [
        ("a", [0.0, 1.0], 1.0, 1.0),
        ("a", [1.0, 0.0], 2.0, 1.0),
        ("b", [0.5, 0.5], 1.5, 1.0),
        ("b", [0.2, 0.8], 1.2, 1.0),
    ]
    with pytest.raises(InsufficientDegreesOfFreedom):
        nb.build_dataset(rows)


def test_interleaved_rows_grouped_in_first_appearance_order():
    labels = ["b", "a", "b", "a"]
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([10.0, 20.0, 30.0, 40.0])
    d = nb.from_arrays(labels, x, y)
    assert d.cluster_ids == ("b", "a")
    np.testing.assert_array_equal(d.cluster(0).y, [10.0, 30.0])
    np.testing.assert_array_equal(d.cluster(1).y, [20.0, 40.0])


def test_summarize_unit_scales():
    d = nb.build_dataset([("a", [float(j)], float(j), 1.0) for j in range(3)] +
                         [("b", [1.0], 1.0, 1.0), ("b", [2.0], 2.0, 1.0)])
    cs = nb.summarize(d)
    np.testing.assert_allclose(cs.a, [3.0, 2.0])
    np.testing.assert_allclose(cs.x_bar, cs.x_under, atol=1e-12)


def test_summarize_hand_example():
    # n_i = 2, s = (1, 2), x = (1, 3): a = 1.25, weighted mean = 1.4
    d = nb.build_dataset(
        [("a", [1.0], 0.0, 1.0), ("a", [3.0], 0.0, 2.0),
         ("b", [0.0], 0.0, 1.0), ("b", [1.0], 1.0, 1.0)]
    )
    cs = nb.summarize(d)
    assert cs.a[0] == pytest.approx(1.25)
    assert cs.x_bar[0, 0] == pytest.approx((1.0 * 1.0 + 0.25 * 3.0) / 1.25)
    assert cs.x_bar[0, 0] == pytest.approx(1.4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_summarize_matches_brute_force(seed):
    from conftest import random_ragged_dataset

    d = random_ragged_dataset(seed, r=2)
    cs = nb.summarize(d)
    a, xbar, ybar, xunder = _brute.summaries(d)
    np.testing.assert_allclose(cs.a, a, rtol=1e-12)
    np.testing.assert_allclose(cs.x_bar, xbar, rtol=1e-12)
    np.testing.assert_allclose(cs.y_bar, ybar, rtol=1e-12)
    np.testing.assert_allclose(cs.x_under, xunder, rtol=1e-12)


def test_summarize_scale_consistency():
    from conftest import random_ragged_dataset

    d = random_ragged_dataset(3)
    cs = nb.summarize(d)
    c = 2.5  # rescale every s_ij in every cluster by c
    d2 = nb.from_arrays(
        np.repeat(np.arange(d.n), d.sizes), d.x.copy(), d.y.copy(), d.s * c
    )
    cs2 = nb.summarize(d2)
    np.testing.assert_allclose(cs2.a, cs.a / c**2, rtol=1e-12)
    np.testing.assert_allclose(cs2.x_bar, cs.x_bar, rtol=1e-12)
    np.testing.assert_allclose(cs2.y_bar, cs.y_bar, rtol=1e-12)


def test_with_responses_shares_design_and_checks_shape():
    d = benchmark_dataset(n=5, m=3)
    d2 = d.with_responses(d.y + 1.0)
    assert d2.x is d.x and d2.s is d.s
    assert d2._cache is d._cache
    with pytest.raises(DimensionMismatch):
        d.with_responses(np.zeros(3))


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
    np.testing.assert_allclose(d.cluster(0).s, [1.0, 2.0])

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
