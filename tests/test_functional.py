"""Unit tests for the low-level array kernels."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.compute import Workspace


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8

    def test_stride(self):
        assert F.conv_output_size(8, 3, 2, 1) == 4

    def test_no_pad(self):
        assert F.conv_output_size(8, 3, 1, 0) == 6

    def test_raises_on_too_small_input(self):
        with pytest.raises(ValueError, match="non-positive"):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        cols, oh, ow = F.im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)
        assert (oh, ow) == (8, 8)

    def test_roundtrip_counts(self):
        """col2im(ones) counts how many windows cover each pixel."""
        x_shape = (1, 1, 4, 4)
        cols = np.ones((1, 9, 16))
        img = F.col2im(cols, x_shape, 3, 3, 1, 1)
        # Centre pixels are covered by all 9 windows.
        assert img[0, 0, 1, 1] == 9
        assert img[0, 0, 0, 0] == 4  # corner

    def test_identity_kernel_window(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 5, 5))
        cols, _, _ = F.im2col(x, 1, 1, 1, 0)
        assert np.array_equal(cols.reshape(1, 2, 25), x.reshape(1, 2, 25))


# ----------------------------------------------------------------------
# differential properties: the kernels against strided-loop references
# ----------------------------------------------------------------------
def _im2col_ref(x, kh, kw, stride, pad):
    """One strided slice copy per kernel offset ``(i, j)``."""
    n, c, h, w = x.shape
    oh = F.conv_output_size(h, kh, stride, pad)
    ow = F.conv_output_size(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            ys = slice(i, i + stride * oh, stride)
            xs = slice(j, j + stride * ow, stride)
            cols[:, :, i, j] = xp[:, :, ys, xs]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im_ref(cols, x_shape, kh, kw, stride, pad):
    """One strided scatter-add per kernel offset, in ascending ``(i, j)``
    order, onto a zeroed padded image."""
    n, c, h, w = x_shape
    oh = F.conv_output_size(h, kh, stride, pad)
    ow = F.conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            ys = slice(i, i + stride * oh, stride)
            xs = slice(j, j + stride * ow, stride)
            xp[:, :, ys, xs] += cols[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


@st.composite
def _conv_geometry(draw):
    """Kernel 1-5, stride 1-3, pad 0..k-1, non-square inputs at least as
    large as the padded kernel needs."""
    kh = draw(st.integers(1, 5))
    kw = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, min(kh, kw) - 1))
    h = draw(st.integers(max(1, kh - 2 * pad), 9))
    w = draw(st.integers(max(1, kw - 2 * pad), 9))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    return (n, c, h, w), kh, kw, stride, pad


def _values(rng, shape, dtype):
    """Normals over 16 decades with exact and signed zeros mixed in, so
    a changed summation order or a lost ``-0.0`` shows in the bytes."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v.astype(dtype)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelsMatchLoopReferences:
    """Byte equality, not closeness: the kernels must reproduce the loop
    references bit for bit in both compute dtypes, pooled or not.  With a
    workspace each kernel runs twice on different data, so a stale pooled
    buffer would show in the second result."""

    @given(
        geom=_conv_geometry(),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(["float64", "float32"]),
        pooled=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_im2col(self, geom, seed, dtype, pooled):
        shape, kh, kw, stride, pad = geom
        rng = np.random.default_rng(seed)
        ws = Workspace() if pooled else None
        for _ in range(2 if pooled else 1):
            x = _values(rng, shape, dtype)
            cols, oh, ow = F.im2col(x, kh, kw, stride, pad, ws)
            assert _same_bits(cols, _im2col_ref(x, kh, kw, stride, pad))
            assert cols.shape[2] == oh * ow

    @given(
        geom=_conv_geometry(),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(["float64", "float32"]),
        pooled=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_col2im(self, geom, seed, dtype, pooled):
        shape, kh, kw, stride, pad = geom
        n, c, h, w = shape
        oh = F.conv_output_size(h, kh, stride, pad)
        ow = F.conv_output_size(w, kw, stride, pad)
        rng = np.random.default_rng(seed)
        ws = Workspace() if pooled else None
        for _ in range(2 if pooled else 1):
            cols = _values(rng, (n, c * kh * kw, oh * ow), dtype)
            img = F.col2im(cols, shape, kh, kw, stride, pad, ws)
            assert _same_bits(img, _col2im_ref(cols, shape, kh, kw, stride, pad))

    @given(
        geom=_conv_geometry(),
        f=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(["float64", "float32"]),
        pooled=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_conv2d_backward_dx(self, geom, f, seed, dtype, pooled):
        shape, kh, kw, stride, pad = geom
        n, c, _, _ = shape
        rng = np.random.default_rng(seed)
        ws = Workspace() if pooled else None
        for _ in range(2 if pooled else 1):
            x = _values(rng, shape, dtype)
            weight = _values(rng, (f, c, kh, kw), dtype)
            out, cols = F.conv2d_forward(x, weight, None, stride, pad, ws)
            dout = _values(rng, out.shape, dtype)
            dx, _, _ = F.conv2d_backward(
                dout, cols, shape, weight, stride, pad, with_bias=False, ws=ws
            )
            dcols = np.matmul(weight.reshape(f, -1).T[None], dout.reshape(n, f, -1))
            assert _same_bits(dx, _col2im_ref(dcols, shape, kh, kw, stride, pad))


class TestIndexPlans:
    def test_cached_plans_are_read_only(self):
        """Plans are shared by every caller, threads included."""
        plans = [F._window_plan(6, 7, 3, 3, 1), F._scatter_plan(4, 6, 7, 3, 3, 1)]
        for plan in plans:
            assert not plan.flags.writeable
            with pytest.raises(ValueError):
                plan[0] = 1
        assert F._window_plan(6, 7, 3, 3, 1) is plans[0]

    def test_threads_share_plans_under_eviction(self):
        """More threads than cores, a tiny switch interval and more shapes
        than the scatter-plan cache holds: plans are built, shared and
        evicted concurrently, and every result still matches the loops."""
        rng = np.random.default_rng(0)
        cases = []
        for n in range(1, 41):
            x = _values(rng, (n, 2, 5, 4), "float64")
            cols = _values(rng, (n, 2 * 9, 5 * 4), "float64")
            want_cols = _im2col_ref(x, 3, 3, 1, 1)
            want_img = _col2im_ref(cols, x.shape, 3, 3, 1, 1)
            cases.append((x, cols, want_cols, want_img))
        failures = []

        def worker(order):
            ws = Workspace()
            for i in order:
                x, cols, want_cols, want_img = cases[i]
                if not _same_bits(F.im2col(x, 3, 3, 1, 1, ws)[0], want_cols):
                    failures.append(("im2col", i))
                if not _same_bits(F.col2im(cols, x.shape, 3, 3, 1, 1, ws), want_img):
                    failures.append(("col2im", i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            orders = [rng.permutation(2 * len(cases)) % len(cases) for _ in range(4)]
            threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestConv2d:
    def _naive_conv(self, x, w, b, stride, pad):
        n, c, h, ww = x.shape
        f, _, kh, kw = w.shape
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (ww + 2 * pad - kw) // stride + 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out = np.zeros((n, f, oh, ow))
        for ni in range(n):
            for fi in range(f):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                        out[ni, fi, i, j] = (patch * w[fi]).sum() + (b[fi] if b is not None else 0)
        return out

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0), (2, 0)])
    def test_matches_naive(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride, pad)
        assert np.allclose(out, self._naive_conv(x, w, b, stride, pad))

    def test_backward_shapes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        dout = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(dout, cols, x.shape, w, 1, 1)
        assert dx.shape == x.shape
        assert dw.shape == w.shape
        assert db.shape == b.shape

    def test_backward_numeric(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cols = F.conv2d_forward(x, w, b, 1, 1)
        dout = rng.normal(size=out.shape)
        dx, dw, db = F.conv2d_backward(dout, cols, x.shape, w, 1, 1)
        eps = 1e-6
        # check a few weight coordinates numerically
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 2)]:
            w2 = w.copy()
            w2[idx] += eps
            up = (F.conv2d_forward(x, w2, b, 1, 1)[0] * dout).sum()
            w2[idx] -= 2 * eps
            down = (F.conv2d_forward(x, w2, b, 1, 1)[0] * dout).sum()
            num = (up - down) / (2 * eps)
            assert abs(num - dw[idx]) < 1e-5

    def test_no_bias(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d_forward(x, w, None, 1, 1)
        dout = rng.normal(size=out.shape)
        _, _, db = F.conv2d_backward(dout, cols, x.shape, w, 1, 1, with_bias=False)
        assert db is None


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(F.relu(x), [0, 0, 2])

    def test_relu_grad(self):
        x = np.array([-1.0, 0.5, 2.0])
        d = F.relu_grad(x, np.ones_like(x))
        assert np.allclose(d, [0, 1, 1])

    def test_gelu_monotone_region(self):
        x = np.linspace(0, 3, 50)
        y = F.gelu(x)
        assert np.all(np.diff(y) > 0)

    def test_gelu_grad_numeric(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=20)
        eps = 1e-6
        num = (F.gelu(x + eps) - F.gelu(x - eps)) / (2 * eps)
        ana = F.gelu_grad(x, np.ones_like(x))
        assert np.allclose(num, ana, atol=1e-6)

    def test_gelu_near_tanh_values(self):
        # GELU(0) == 0, GELU(large) ~ identity
        assert F.gelu(np.array([0.0]))[0] == 0.0
        assert abs(F.gelu(np.array([10.0]))[0] - 10.0) < 1e-6


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(7).normal(size=(4, 9))
        p = F.softmax(x)
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        x = np.random.default_rng(8).normal(size=(3, 5))
        assert np.allclose(F.softmax(x), F.softmax(x + 100.0))

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(9).normal(size=(3, 5))
        assert np.allclose(np.exp(F.log_softmax(x)), F.softmax(x))

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, -1000.0, 0.0]])
        p = F.softmax(x)
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) < 1e-12
