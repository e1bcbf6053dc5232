import numpy as np
import pytest

from nucleartight.rng import stream


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
def test_stream_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        stream(seed, "x")


def test_stream_accepts_numpy_integer_seeds():
    want = stream(3, "x").standard_normal(8)
    assert np.array_equal(stream(np.int64(3), "x").standard_normal(8), want)
    assert np.array_equal(stream(np.uint32(3), "x").standard_normal(8), want)


@pytest.mark.parametrize("index", [True, 1.5, np.float64(2.0), "2"], ids=["bool", "float", "float64", "str"])
def test_stream_rejects_an_index_that_is_not_an_integer(index):
    with pytest.raises(TypeError, match=f"^stream index must be an integer, not {type(index).__name__}$"):
        stream(1, "x", 0, index)


def test_stream_accepts_numpy_integer_indices():
    want = stream(1, "x", 2).standard_normal(8)
    assert np.array_equal(stream(1, "x", np.int64(2)).standard_normal(8), want)
