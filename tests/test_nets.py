import numpy as np
import pytest

from labelforge.nets import MlpNet, class_major_sum, class_max, class_sum, softmax

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


def reference_fit(net, x, targets, epochs, lr, batch_size, l2, shuffle_seed, rows):
    """``MlpNet.fit`` as it was with every covered row permuted into one buffer per epoch."""
    n = len(rows)
    rng = np.random.default_rng(shuffle_seed)
    size = n if batch_size is None else min(batch_size, n)
    xs, ts = np.empty((n, x.shape[1])), np.empty_like(targets, order="C")
    grad = np.empty_like(net.theta)
    gw2, gb2, gw1, gb1 = net._views(grad)
    for _ in range(epochs):
        order = rng.permutation(n) if batch_size is not None else np.arange(n)
        np.take(x, rows[order], axis=0, out=xs, mode="clip")
        np.take(targets, order, axis=0, out=ts, mode="clip")
        for start in range(0, n, size):
            xb, tb = xs[start:start + size], ts[start:start + size]
            h_pre = xb @ net.w1
            h_pre += net.b1
            h = np.maximum(h_pre, 0.0)
            dz2 = h @ net.w2
            dz2 += net.b2
            softmax(dz2, out=dz2)
            dz2 -= tb
            dz2 /= xb.shape[0]
            np.matmul(h.T, dz2, out=gw2)
            np.add.reduce(dz2, axis=0, out=gb2)
            dh = dz2 @ net.w2.T
            np.putmask(dh, h_pre <= 0, 0.0)
            np.matmul(xb.T, dh, out=gw1)
            np.add.reduce(dh, axis=0, out=gb1)
            if l2:
                gw2 += l2 * net.w2
                gw1 += l2 * net.w1
            grad *= lr
            net.theta -= grad
    return net


# n on both sides of one and two ROW_BLOCK chunks; batch sizes that split a chunk
# evenly, unevenly, in one row, or exceed it
@pytest.mark.parametrize("n", [1, 31, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("batch_size", [1, 32, 1000, 2048, None])
def test_chunked_fit_equals_one_permuted_buffer_per_epoch(n, batch_size):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n + 7, 27))
    rows = np.sort(rng.permutation(n + 7)[:n])  # the covered rows, as build_targets keeps them
    targets = softmax(rng.normal(size=(n, 3)))
    for l2 in (0.0, 1e-3):
        got = MlpNet(27, 8, 3, rng_seed=1).fit(x, targets, epochs=2, lr=0.05,
                                               batch_size=batch_size, l2=l2, shuffle_seed=2,
                                               rows=rows)
        want = reference_fit(MlpNet(27, 8, 3, rng_seed=1), x, targets, 2, 0.05, batch_size, l2,
                             2, rows)
        assert_same_floats(got.theta, want.theta)


def test_fit_holds_a_chunk_of_rows_not_a_copy_of_the_table():
    import tracemalloc

    rng = np.random.default_rng(0)
    x = rng.normal(size=(16_000, 27))
    targets = softmax(rng.normal(size=(16_000, 2)))
    net = MlpNet(27, 8, 2)
    tracemalloc.start()
    try:
        net.fit(x, targets, epochs=1, lr=0.01, batch_size=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4, f"fit peaked at {peak} bytes for a {x.nbytes}-byte table"
