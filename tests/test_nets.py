import numpy as np
import pytest

from labelforge.nets import class_major_sum, class_max, class_sum, softmax

# leading shapes on both sides of the 64-row rule; the class axis is appended
SHAPES = [(), (0,), (1,), (63,), (64,), (257,), (7, 33)]


def reference_softmax(z):
    """Softmax from numpy's own reductions over the class axis."""
    z = np.atleast_2d(z)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def assert_same_floats(got, want):
    """Equal shape, dtype and values, NaN where NaN, and the same sign bit everywhere."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def class_axis_inputs(num_classes, lead, rng):
    """Logits over magnitudes 1e-6..1e6; a second copy also holds +-inf, NaN and +-0.0."""
    shape = lead + (num_classes,)
    plain = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    special = plain.copy().reshape(-1)
    hit = rng.random(special.size) < 0.4
    special[hit] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 0.0], size=int(hit.sum()))
    zeros = rng.choice([-0.0, 0.0], size=shape)  # sign-of-zero cases only
    return [plain, special.reshape(shape), zeros]


@pytest.mark.parametrize("num_classes", range(1, 13))  # 8 and up take numpy's own reduce
@pytest.mark.parametrize("lead", SHAPES)
def test_class_reductions_equal_numpy_axis_reductions(num_classes, lead):
    rng = np.random.default_rng(num_classes * 100 + len(lead) * 10 + sum(lead))
    with np.errstate(invalid="ignore", over="ignore"):
        for c_order in class_axis_inputs(num_classes, lead, rng):
            for z in (c_order, np.asfortranarray(c_order)):
                assert_same_floats(class_max(z), z.max(axis=-1, keepdims=True))
                assert_same_floats(class_sum(z), z.sum(axis=-1, keepdims=True))
                assert_same_floats(softmax(z), reference_softmax(z))


@pytest.mark.parametrize("num_classes", [*range(1, 21), 64, 127, 128])
def test_class_major_sum_equals_numpy_row_sums(num_classes):
    """Each column of a (k, C, n) array sums to numpy's sum of the same values as a
    contiguous row: in order below 8 classes, pairwise from 8.
    The sign of a NaN may differ; every other bit is the same."""
    rng = np.random.default_rng(num_classes)
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in class_axis_inputs(num_classes, (3, 70), rng):
            want = rows.sum(axis=-1, keepdims=True).transpose(0, 2, 1)
            got = class_major_sum(np.ascontiguousarray(rows.transpose(0, 2, 1)))
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            number = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


def test_no_classes_takes_numpy_reduce():
    z = np.zeros((3, 0))
    assert_same_floats(class_sum(z), z.sum(axis=-1, keepdims=True))
    with pytest.raises(ValueError):
        class_max(z)


def test_reductions_return_new_arrays():
    z = np.arange(64.0)[:, None]  # one class, 64 rows: the column path
    for out in (class_max(z), class_sum(z), softmax(z)):
        out += 1.0
    assert np.array_equal(z, np.arange(64.0)[:, None])
