"""Reference kernel tests.

The vectorized kernels are checked against straightforward loop
implementations (written here, independently of the library) and against
hand-computed values; hypothesis drives randomized cross-checks.  The
kernels take (N, C, H, W) batches, so single samples go in as N=1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.nn import functional as F


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------


def naive_conv2d(x, w, b=None, stride=(1, 1), pad=(0, 0)):
    x = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1])))
    f, c, kh, kw = w.shape
    oh = (x.shape[1] - kh) // stride[0] + 1
    ow = (x.shape[2] - kw) // stride[1] + 1
    out = np.zeros((f, oh, ow), dtype=np.float64)
    for o in range(f):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ch in range(c):
                    for m in range(kh):
                        for n in range(kw):
                            acc += (w[o, ch, m, n] *
                                    x[ch, i * stride[0] + m,
                                      j * stride[1] + n])
                out[o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def naive_pool(x, kernel, stride, op):
    c, h, w = x.shape
    oh = (h - kernel[0]) // stride[0] + 1
    ow = (w - kernel[1]) // stride[1] + 1
    out = np.zeros((c, oh, ow))
    for ch in range(c):
        for i in range(oh):
            for j in range(ow):
                window = x[ch,
                           i * stride[0]:i * stride[0] + kernel[0],
                           j * stride[1]:j * stride[1] + kernel[1]]
                out[ch, i, j] = op(window)
    return out


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        assert np.array_equal(F.conv2d(x[None], w)[0], x)

    def test_hand_computed_sum_kernel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = F.conv2d(x[None], w)[0]
        # windows sums: [[0+1+3+4, 1+2+4+5], [3+4+6+7, 4+5+7+8]]
        assert np.array_equal(out, [[[8, 12], [20, 24]]])

    def test_bias(self):
        x = np.zeros((1, 3, 3), dtype=np.float32)
        w = np.zeros((2, 1, 2, 2), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        out = F.conv2d(x[None], w, b)[0]
        assert np.allclose(out[0], 1.5) and np.allclose(out[1], -2.0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            F.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 2, 2)))

    def test_bad_bias_shape(self):
        with pytest.raises(ShapeError):
            F.conv2d(np.zeros((1, 1, 4, 4)), np.zeros((2, 1, 2, 2)),
                     np.zeros(3))

    def test_bad_weight_rank(self):
        with pytest.raises(ShapeError):
            F.conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 2, 2)))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError):
            F.conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(1, 3), f=st.integers(1, 3),
        h=st.integers(4, 10), w=st.integers(4, 10),
        k=st.integers(1, 3), s=st.integers(1, 2), p=st.integers(0, 1),
        seed=st.integers(0, 2**31),
    )
    def test_matches_naive(self, c, f, h, w, k, s, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c, h, w)).astype(np.float32)
        wt = rng.normal(size=(f, c, k, k)).astype(np.float32)
        b = rng.normal(size=f).astype(np.float32)
        got = F.conv2d(x[None], wt, b, (s, s), (p, p))[0]
        want = naive_conv2d(x, wt, b, (s, s), (p, p))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestIm2col:
    def test_shape(self):
        x = np.zeros((3, 8, 8), dtype=np.float32)
        cols = F.im2col(x[None], (3, 3))[0]
        assert cols.shape == (27, 36)

    def test_column_content(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        cols = F.im2col(x[None], (2, 2))[0]
        # first output position (0,0): elements 0,1,4,5
        np.testing.assert_array_equal(cols[:, 0], [0, 1, 4, 5])
        # last output position (2,2): elements 10,11,14,15
        np.testing.assert_array_equal(cols[:, -1], [10, 11, 14, 15])

    def test_window_too_big(self):
        with pytest.raises(ShapeError):
            F.im2col(np.zeros((1, 1, 2, 2)), (3, 3))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class TestPooling:
    def test_max_pool_hand(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = F.max_pool2d(x[None], (2, 2))[0]
        assert np.array_equal(out, [[[5, 7], [13, 15]]])

    def test_avg_pool_hand(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = F.avg_pool2d(x[None], (2, 2))[0]
        assert np.array_equal(out, [[[2.5, 4.5], [10.5, 12.5]]])

    def test_ceil_mode_extends(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        out = F.max_pool2d(x[None], (2, 2), ceil_mode=True)[0]
        assert out.shape == (1, 3, 3)
        assert out[0, 2, 2] == 24  # the lone corner element survives

    def test_floor_mode(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        out = F.max_pool2d(x[None], (2, 2), ceil_mode=False)[0]
        assert out.shape == (1, 2, 2)

    def test_avg_ceil_pads_with_zero(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        out = F.avg_pool2d(x[None], (2, 2), ceil_mode=True)[0]
        # corner window has one real element + three padded zeros
        assert out[0, 1, 1] == pytest.approx(0.25)

    @settings(max_examples=20, deadline=None)
    @given(c=st.integers(1, 3), h=st.integers(4, 9), k=st.integers(1, 3),
           s=st.integers(1, 3), seed=st.integers(0, 2**31))
    def test_matches_naive_floor(self, c, h, k, s, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c, h, h)).astype(np.float32)
        got_max = F.max_pool2d(x[None], (k, k), (s, s), ceil_mode=False)[0]
        got_avg = F.avg_pool2d(x[None], (k, k), (s, s), ceil_mode=False)[0]
        np.testing.assert_allclose(
            got_max, naive_pool(x, (k, k), (s, s), np.max), rtol=1e-6)
        np.testing.assert_allclose(
            got_avg, naive_pool(x, (k, k), (s, s), np.mean), rtol=1e-5,
            atol=1e-6)


# ---------------------------------------------------------------------------
# fully connected + activations + softmax
# ---------------------------------------------------------------------------


class TestFullyConnected:
    def test_hand_computed(self):
        x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        w = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.float32)
        b = np.array([10.0, -1.0], dtype=np.float32)
        np.testing.assert_array_equal(
            F.fully_connected(x[None], w, b)[0], [11, 4])

    def test_implicit_flatten(self):
        x = np.ones((2, 2, 2), dtype=np.float32)
        w = np.ones((1, 8), dtype=np.float32)
        assert F.fully_connected(x[None], w)[0][0] == 8

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            F.fully_connected(np.ones((1, 3)), np.ones((2, 4)))
        with pytest.raises(ShapeError):
            F.fully_connected(np.ones((1, 3)), np.ones((2, 3)), np.ones(3))


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            F.relu(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = F.sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        np.testing.assert_allclose(y + F.sigmoid(-x), 1.0, atol=1e-12)
        assert F.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_no_overflow(self):
        y = F.sigmoid(np.array([-1000.0, 1000.0]))
        assert y[0] == 0.0 and y[1] == 1.0

    def test_tanh(self):
        np.testing.assert_allclose(
            F.tanh(np.array([0.0, 1e3])), [0.0, 1.0], atol=1e-12)


class TestSoftmax:
    def test_sums_to_one(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert F.softmax(x)[0].sum() == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(0).normal(size=(1, 10))
        np.testing.assert_allclose(
            np.exp(F.log_softmax(x)), F.softmax(x), rtol=1e-6)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(F.softmax(x), F.softmax(x + 100),
                                   rtol=1e-6)

    def test_large_values_stable(self):
        x = np.array([[1000.0, 1000.0]])
        np.testing.assert_allclose(F.softmax(x)[0], [0.5, 0.5])

    def test_preserves_shape(self):
        x = np.ones((1, 4, 1, 1))
        assert F.softmax(x)[0].shape == (4, 1, 1)
        assert F.log_softmax(x)[0].shape == (4, 1, 1)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=20))
    def test_argmax_preserved(self, values):
        # Near-ties may collapse to exact ties after exponentiation, so we
        # assert the input argmax is *an* output maximum, not *the* argmax.
        x = np.array(values)
        y = F.softmax(x[None])[0]
        assert y[np.argmax(x)] == y.max()



# ---------------------------------------------------------------------------
# batch-size invariance: row i of an N-batch equals sample i run alone
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 5), c=st.integers(1, 3), h=st.integers(4, 9),
       seed=st.integers(0, 2**31))
def test_kernels_batch_size_invariant(n, c, h, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, h)).astype(np.float32)
    wt = rng.normal(size=(3, c, 3, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    fc_w = rng.normal(size=(4, c * h * h)).astype(np.float32)
    kernels = [
        lambda v: F.conv2d(v, wt, b, (1, 1), (1, 1)),
        lambda v: F.max_pool2d(v, (2, 2)),
        lambda v: F.avg_pool2d(v, (3, 3), (2, 2)),
        lambda v: F.fully_connected(v, fc_w),
        F.softmax,
        F.log_softmax,
    ]
    for kernel in kernels:
        batched = kernel(x)
        for i in range(n):
            assert np.array_equal(batched[i], kernel(x[i:i + 1])[0])
