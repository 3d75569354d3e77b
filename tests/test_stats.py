import numpy as np
import pytest

from mapcsim import empirical_cdf
from mapcsim.stats import nearest_rank
from oracles import nearest_rank_reference


def test_percentile_spec_cases():
    assert nearest_rank(np.arange(1, 101), 0.95) == 95
    assert nearest_rank(np.array([42.0]), 0.3) == 42.0
    assert nearest_rank(np.array([42.0]), 1.0) == 42.0
    assert nearest_rank(np.sort([3, 1, 2]), 0.5) == 2


def test_percentile_errors():
    with pytest.raises(ValueError):
        nearest_rank(np.array([1.0]), 1.5)


def test_percentile_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        samples = rng.uniform(-10, 10, size=n).tolist()
        q = float(rng.uniform(0, 1))
        assert nearest_rank(np.sort(samples), q) == nearest_rank_reference(samples, q)


def test_empirical_cdf_cases():
    assert empirical_cdf([5.0]) == [(5.0, 1.0)]
    cdf = empirical_cdf([4, 2, 1, 3])
    assert [v for v, _ in cdf] == [1, 2, 3, 4]
    assert [f for _, f in cdf] == [0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_empirical_cdf_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        samples = rng.normal(size=int(rng.integers(1, 40)))
        cdf = empirical_cdf(samples)
        values = [v for v, _ in cdf]
        fracs = [f for _, f in cdf]
        assert values == sorted(values)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0
