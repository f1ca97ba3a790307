"""Forward semantics of the tensor engine against small hand and loop oracles."""

import tracemalloc

import numpy as np
import pytest

from stylemix import autodiff as ad
from stylemix.autodiff import ChannelStats, Graph, ShapeError, Tensor


def conv2d_bruteforce(x, w, b, stride, padding):
    """Direct quadruple-loop convolution used as the independent oracle."""
    bs, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, co, oh, ow))
    for bi in range(bs):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = b[o]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, ci, i * stride + u, j * stride + v] * w[o, ci, u, v]
                    out[bi, o, i, j] = acc
    return out


def deconv2d_bruteforce(x, w, b, stride, padding, output_padding):
    """Scatter-accumulate transposed convolution oracle."""
    bs, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    full_h = (h - 1) * stride + kh + output_padding
    full_w = (wd - 1) * stride + kw + output_padding
    full = np.zeros((bs, co, full_h, full_w))
    for bi in range(bs):
        for c in range(ci):
            for i in range(h):
                for j in range(wd):
                    for o in range(co):
                        for u in range(kh):
                            for v in range(kw):
                                full[bi, o, i * stride + u, j * stride + v] += (
                                    x[bi, c, i, j] * w[c, o, u, v]
                                )
    out_h = (h - 1) * stride - 2 * padding + kh + output_padding
    out_w = (wd - 1) * stride - 2 * padding + kw + output_padding
    out = full[:, :, padding:padding + out_h, padding:padding + out_w].copy()
    return out + b[None, :, None, None]


def im2col(x, kh, kw, stride, padding):
    """Reference unroll of [B,C,H,W], zero-padded, into columns [C*kh*kw, B*oh*ow]."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # [B, C, oh, ow, kh, kw]
    b, c, oh, ow = windows.shape[:4]
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, b * oh * ow), oh, ow


class TestConv2d:
    def test_identity_kernel(self):
        y = ad.conv2d(Tensor([[[[5.0]]]]), Tensor([[[[1.0]]]]), Tensor([0.0]))
        assert y.data.tolist() == [[[[5.0]]]]

    def test_hand_case_all_ones_kernel(self):
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        y = ad.conv2d(x, Tensor(np.ones((1, 1, 2, 2))), Tensor([0.0]))
        assert y.data.reshape(-1).tolist() == [12.0, 16.0, 24.0, 28.0]

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_bruteforce(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        want = conv2d_bruteforce(x, w, b, stride, padding)
        assert np.allclose(got.data, want, atol=1e-12)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                      Tensor(np.zeros(1)))

    def test_rejects_nonpositive_stride(self):
        with pytest.raises(ValueError, match="stride"):
            ad.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
                      Tensor(np.zeros(1)), stride=0)

    def test_rejects_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError, match="smaller than kernel"):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
                      Tensor(np.zeros(1)))


class TestDeconv2d:
    def test_identity(self):
        y = ad.deconv2d(Tensor([[[[7.0]]]]), Tensor([[[[1.0]]]]), Tensor([0.0]))
        assert y.data.tolist() == [[[[7.0]]]]

    def test_disjoint_block_scatter(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        w = Tensor(np.ones((1, 1, 2, 2)))
        y = ad.deconv2d(x, w, Tensor([0.0]), stride=2)
        want = np.array([
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ], dtype=float)
        assert np.array_equal(y.data[0, 0], want)

    @pytest.mark.parametrize("stride,padding,opad", [(1, 0, 0), (2, 0, 1), (2, 1, 1), (3, 1, 2)])
    def test_matches_bruteforce(self, stride, padding, opad):
        rng = np.random.default_rng(stride * 100 + padding * 10 + opad)
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=2)
        got = ad.deconv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                          padding=padding, output_padding=opad)
        want = deconv2d_bruteforce(x, w, b, stride, padding, opad)
        assert np.allclose(got.data, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_adjoint_identity_with_conv(self, seed):
        rng = np.random.default_rng(seed)
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        cx = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(5)),
                       stride=stride, padding=padding)
        y = rng.normal(size=cx.shape)
        opad = x.shape[2] - ((cx.shape[2] - 1) * stride - 2 * padding + 3)
        dy = ad.deconv2d(Tensor(y), Tensor(w), Tensor(np.zeros(3)), stride=stride,
                         padding=padding, output_padding=opad)
        lhs = float((cx.data * y).sum())
        rhs = float((x * dy.data).sum())
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_bias_is_added_once_to_the_scatter(self):
        """Bitwise the unbiased output plus the bias, in float32 as FontNet runs it."""
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 6, 5, 4)).astype(np.float32)
        w = rng.normal(size=(6, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        for stride, padding, opad in [(1, 0, 0), (1, 1, 0), (2, 1, 1)]:
            got = ad.deconv2d(x, w, b, stride, padding, opad).data
            bare = ad.deconv2d(x, w, np.zeros(3, np.float32), stride, padding, opad).data
            assert got.dtype == np.float32
            assert np.array_equal(got, bare + b[:, None, None])

    def test_forward_holds_only_the_columns_and_the_output(self):
        """A FontNet decoder.5-sized forward in float32 (3 items, 64 -> 16
        channels, 32^2 -> 64^2) from a batch-major input, whose channel rows
        are a copy, holds the column matrix and the output: 2.44 MiB. Also
        holding those rows, a padded scatter buffer and a biased copy of the
        output peaked at 3.31 MiB."""
        rng = np.random.default_rng(32)
        x = rng.normal(size=(3, 64, 32, 32)).astype(np.float32)
        w = rng.normal(size=(64, 16, 3, 3)).astype(np.float32)
        b = rng.normal(size=16).astype(np.float32)
        tracemalloc.start()
        try:
            out = ad.deconv2d(x, w, b, stride=2, padding=1, output_padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (3, 16, 64, 64)
        assert out.data.transpose(1, 0, 2, 3).flags.c_contiguous  # no padding gaps
        cols = 16 * 9 * 3 * 32 * 32 * 4
        assert peak <= cols + out.data.nbytes + (128 << 10)

    def test_rejects_output_padding_not_below_stride(self):
        with pytest.raises(ValueError, match="output_padding"):
            ad.deconv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))),
                        Tensor(np.zeros(1)), stride=2, output_padding=2)


class TestConvKernels:
    """The unrolled kernel pair and the batch folded into its GEMM."""

    @pytest.mark.parametrize("shape,kh,kw,stride,padding", [
        ((2, 3, 6, 7), 3, 3, 1, 1),
        ((3, 2, 5, 8), 3, 2, 2, 0),
        ((2, 2, 8, 8), 3, 3, 2, 1),  # last padded row and column in no window
        ((1, 4, 7, 5), 1, 1, 3, 2),
    ])
    def test_col2im_is_the_adjoint_of_im2col(self, shape, kh, kw, stride, padding):
        rng = np.random.default_rng(sum(shape) + kh + kw)
        x = rng.normal(size=shape)
        cols, _, _ = im2col(x, kh, kw, stride, padding)
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * ad._col2im(c, shape, kh, kw, stride, padding)).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_conv2d_nonsquare_matches_bruteforce(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.normal(size=(3, 2, 5, 8))
        w = rng.normal(size=(4, 2, 3, 2))
        b = rng.normal(size=4)
        got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        assert np.allclose(got.data, conv2d_bruteforce(x, w, b, stride, padding), atol=1e-12)

    @pytest.mark.parametrize("stride,padding,opad", [(1, 0, 0), (2, 1, 1), (3, 1, 2)])
    def test_deconv2d_nonsquare_matches_bruteforce(self, stride, padding, opad):
        rng = np.random.default_rng(stride * 100 + padding * 10 + opad)
        x = rng.normal(size=(3, 2, 3, 5))
        w = rng.normal(size=(2, 4, 2, 3))
        b = rng.normal(size=4)
        got = ad.deconv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                          padding=padding, output_padding=opad)
        want = deconv2d_bruteforce(x, w, b, stride, padding, opad)
        assert np.allclose(got.data, want, atol=1e-12)

    @pytest.mark.parametrize("op,kernel_shape,kwargs", [
        (ad.conv2d, (4, 3, 3, 3), dict(stride=2, padding=1)),
        (ad.conv2d, (4, 3, 3, 2), dict(stride=1, padding=0)),
        (ad.deconv2d, (3, 4, 3, 3), dict(stride=2, padding=1, output_padding=1)),
        (ad.deconv2d, (3, 4, 2, 3), dict(stride=1, padding=0)),
    ])
    def test_batch_equals_stacked_items(self, op, kernel_shape, kwargs):
        """Outputs and input gradients per item, kernel gradient summed over items."""
        rng = np.random.default_rng(len(kwargs))
        x = rng.normal(size=(3, 3, 6, 5))
        w = Tensor(rng.normal(size=kernel_shape), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)

        def run(batch):
            xt = Tensor(batch, requires_grad=True)
            g = Graph()
            with g:
                out = op(xt, w, b, **kwargs)
                proj = np.cos(np.arange(out.size // out.shape[0])).reshape(out.shape[1:])
                loss = (out * proj).sum()
            g.backward(loss)
            grads = xt.grad, w.grad
            w.grad = b.grad = None
            return out.data, grads

        out, (gx, gw) = run(x)
        items = [run(x[i:i + 1]) for i in range(x.shape[0])]
        assert np.abs(out - np.concatenate([o for o, _ in items])).max() <= 1e-12
        assert np.abs(gx - np.concatenate([g[0] for _, g in items])).max() <= 1e-12
        assert np.abs(gw - sum(g[1] for _, g in items)).max() <= 1e-12

    @pytest.mark.parametrize("x_shape,cout,k,stride,padding", [
        ((4, 4, 64, 64), 16, 5, 1, 2),  # FontNet's first encoder layer, batch 4
        ((4, 16, 64, 64), 32, 3, 2, 1),  # and its k3 s2 p1 layers, 64 -> 1
        ((4, 32, 32, 32), 64, 3, 2, 1),
        ((4, 64, 16, 16), 128, 3, 2, 1),
        ((4, 128, 8, 8), 128, 3, 2, 1),
        ((4, 128, 4, 4), 128, 3, 2, 1),
        ((4, 128, 2, 2), 128, 3, 2, 1),
        ((1, 3, 256, 256), 16, 3, 1, 1),  # the first 256 px NST layer
        ((3, 5, 33, 37), 7, 3, 2, 1),
        ((2, 3, 17, 9), 4, 5, 2, 2),
        ((2, 8, 20, 20), 6, 1, 1, 0),
    ])
    def test_im2col_matmul_equals_one_gemm(self, x_shape, cout, k, stride, padding):
        """Bit for bit at the default block, whichever way the columns are split."""
        rng = np.random.default_rng(sum(x_shape) + cout)
        x = rng.normal(size=x_shape)
        wmat = rng.normal(size=(cout, x_shape[1] * k * k))
        got, oh, ow = ad._im2col_matmul(wmat, x, k, k, stride, padding)
        cols, want_oh, want_ow = im2col(x, k, k, stride, padding)
        assert (oh, ow) == (want_oh, want_ow)
        assert np.array_equal(got, wmat @ cols)

    @pytest.mark.parametrize("block", [
        1200,  # two whole items per block, the last block holds one
        350,  # one item does not fit: three whole rows per block
        10,  # one row exceeds the block: one row per block
    ])
    def test_im2col_matmul_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(ad, "IM2COL_BLOCK", block)
        rng = np.random.default_rng(block)
        x = rng.normal(size=(5, 3, 9, 8))
        wmat = rng.normal(size=(4, 27))
        got, _, _ = ad._im2col_matmul(wmat, x, 3, 3, 2, 1)  # 27 * 4 = 108 per row, 5 rows
        assert np.abs(got - wmat @ im2col(x, 3, 3, 2, 1)[0]).max() <= 1e-12

    def test_conv2d_forward_never_holds_the_column_matrix(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 32, 256, 256)))
        w = Tensor(rng.normal(size=(16, 32, 3, 3)))
        b = Tensor(np.zeros(16))
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = 32 * 258 * 258 * 8
        assert peak <= padded + out.data.nbytes + (2 << 20)  # the columns are 151 MB

    @pytest.mark.parametrize("x_shape,k,stride,padding", [
        ((1, 3, 3, 3), 5, 1, 2),  # one block whose halo lies above and below the input
        ((2, 3, 15, 11), 3, 2, 1),  # odd sizes at stride 2
        ((3, 2, 9, 7), 5, 2, 2),
    ])
    def test_im2col_matmul_padded_per_block(self, x_shape, k, stride, padding):
        rng = np.random.default_rng(sum(x_shape) + k)
        x = rng.normal(size=x_shape)
        wmat = rng.normal(size=(4, x_shape[1] * k * k))
        got, _, _ = ad._im2col_matmul(wmat, x, k, k, stride, padding)
        assert np.array_equal(got, wmat @ im2col(x, k, k, stride, padding)[0])

    @pytest.mark.parametrize("x_shape,k,stride,padding,block", [
        ((5, 3, 9, 8), 3, 2, 1, 10),  # one row per block
        ((5, 3, 9, 8), 3, 2, 1, 350),  # three rows per block
        ((2, 3, 17, 9), 5, 2, 2, 10),
        ((2, 3, 17, 9), 5, 2, 2, 350),
        ((1, 4, 7, 5), 1, 3, 2, 10),  # the first and last rows lie wholly in the padding
    ])
    def test_im2col_matmul_small_blocks_bitwise(self, monkeypatch, x_shape, k, stride,
                                                padding, block):
        """Each row block's GEMM equals one GEMM over the same columns of im2col(x)."""
        monkeypatch.setattr(ad, "IM2COL_BLOCK", block)
        rng = np.random.default_rng(block + sum(x_shape))
        x = rng.normal(size=x_shape)
        c = x_shape[1] * k * k
        wmat = rng.normal(size=(4, c))
        got, oh, ow = ad._im2col_matmul(wmat, x, k, k, stride, padding)
        cols = im2col(x, k, k, stride, padding)[0]
        rows = max(block // (c * ow), 1)
        assert block < c * oh * ow  # the split is by rows of one item
        starts = [(i * oh + r) * ow for i in range(x_shape[0]) for r in range(0, oh, rows)]
        ends = starts[1:] + [cols.shape[1]]
        want = np.concatenate(
            [wmat @ np.ascontiguousarray(cols[:, s:e]) for s, e in zip(starts, ends)], axis=1)
        assert np.array_equal(got, want)

    def test_conv2d_forward_holds_no_padded_input(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 32, 256, 256)))
        w = Tensor(rng.normal(size=(16, 32, 3, 3)))
        b = Tensor(np.zeros(16))
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + (2 << 20)  # the padded input alone is 17 MB

    @pytest.mark.parametrize("block", [
        1200,  # two whole items per block, the last block holds one
        350,  # one item does not fit: three whole rows per block
        10,  # one row exceeds the block: one row per block
    ])
    def test_streamed_gradients_equal_one_gemm(self, monkeypatch, block):
        """Each gather in a VJP equals one GEMM against the whole column matrix.

        conv2d maps a [5,3,8,8] to b [5,4,4,4] and deconv2d maps b back to the
        shape of a, both k3 s2 p1 with the kernel w [4,3,3,3]; as the upstream
        gradient, each op gets the other's input. Every unroll has 27 * 16
        elements per item.
        """
        monkeypatch.setattr(ad, "IM2COL_BLOCK", block)
        rng = np.random.default_rng(block)
        a, b, w = (rng.normal(size=s) for s in ((5, 3, 8, 8), (5, 4, 4, 4), (4, 3, 3, 3)))

        def grads(op, x, g, **kwargs):
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            graph = Graph()
            with graph:
                out = op(xt, wt, Tensor(np.zeros(3 if op is ad.deconv2d else 4)),
                         stride=2, padding=1, **kwargs)
                loss = (out * Tensor(g)).sum()
            graph.backward(loss)
            return xt.grad, wt.grad

        def rows(v):
            return v.transpose(1, 0, 2, 3).reshape(v.shape[1], -1)

        _, conv_gw = grads(ad.conv2d, a, b)
        deconv_gx, deconv_gw = grads(ad.deconv2d, b, a, output_padding=1)
        cols_a = im2col(a, 3, 3, 2, 1)[0]
        assert np.abs(conv_gw - (rows(b) @ cols_a.T).reshape(w.shape)).max() <= 1e-12
        assert np.abs(deconv_gw - (rows(b) @ cols_a.T).reshape(w.shape)).max() <= 1e-12
        want_gx = (w.reshape(4, 27) @ cols_a).reshape(4, 5, 4, 4).transpose(1, 0, 2, 3)
        assert np.abs(deconv_gx - want_gx).max() <= 1e-12

    @staticmethod
    def _backward_peak(make_loss):
        """tracemalloc peak of the backward pass alone, the forward taped beforehand."""
        graph = Graph()
        with graph:
            loss = make_loss()
        tracemalloc.start()
        try:
            graph.backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_conv2d_kernel_gradient_never_holds_the_column_matrix(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 32, 256, 256)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 32, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, np.float32))
        peak = self._backward_peak(lambda: ad.conv2d(x, w, b, padding=1).sum())
        assert peak <= 8 << 20  # the column matrix alone is 75.5 MB

    def test_deconv2d_backward_never_holds_the_column_matrix(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 32, 128, 128)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(16, np.float32))
        peak = self._backward_peak(lambda: ad.deconv2d(
            x, w, b, stride=2, padding=1, output_padding=1).sum())
        assert peak <= 10 << 20  # the 4 MB upstream gradient unrolls into 9.4 MB

    def test_conv2d_input_gradient_never_holds_the_column_matrix(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 32, 256, 256)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 32, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(16, np.float32))
        peak = self._backward_peak(lambda: ad.conv2d(x, w, b, padding=1).sum())
        assert peak <= 32 << 20  # the scattered [288, 65536] column matrix alone is 75.5 MB

    @pytest.mark.parametrize("kernel, padding", [((3, 3), 1), ((2, 3), 0), ((3, 2), 4)])
    def test_stride1_conv2d_backward_never_scatters(self, monkeypatch, kernel, padding):
        def scatter(*args):
            raise AssertionError("a stride-1 conv2d gradient went through _col2im")

        monkeypatch.setattr(ad, "_col2im", scatter)
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 6, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, *kernel)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        graph = Graph()
        with graph:
            loss = ad.conv2d(x, w, b, padding=padding).sum()
        graph.backward(loss)
        assert x.grad.shape == x.shape and w.grad.shape == w.shape


def taped_vjp(make_out):
    """The VJP that the last op taped by ``make_out`` recorded, to call on a chosen g."""
    graph = Graph()
    with graph:
        make_out()
    return graph._nodes[-1].vjp


def vjp_peak(vjp, g, needs):
    """tracemalloc peak of one VJP call, its upstream gradient allocated beforehand."""
    tracemalloc.start()
    try:
        vjp(g, needs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def channel_major(rng, shape, dtype):
    """A [B,C,H,W] view of a [C,B,H,W] array, the layout conv2d and deconv2d return."""
    b, c, h, w = shape
    return rng.normal(1.0, 3.0, size=(c, b, h, w)).astype(dtype).transpose(1, 0, 2, 3)


def reference_batchnorm_train_vjp(g, x, gamma, epsilon=1e-5):
    """The three-sum train-mode gradient the engine computed before it reassociated."""
    n = x.shape[0] * x.shape[2] * x.shape[3]
    mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = (x - mu[:, None, None]) * inv[:, None, None]
    gxh = g * gamma[:, None, None]
    sum_gxh = gxh.sum(axis=(0, 2, 3), keepdims=True)
    sum_gxh_xhat = (gxh * xhat).sum(axis=(0, 2, 3), keepdims=True)
    gx = (inv[:, None, None] / n) * (n * gxh - sum_gxh - xhat * sum_gxh_xhat)
    return gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.0))
        y = ad.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(y.data, 0.0)

    def test_zero_gamma_yields_beta(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        y = ad.batchnorm2d(x, Tensor(np.zeros(3)), Tensor(np.full(3, 2.5)))
        assert np.allclose(y.data, 2.5)

    def test_train_mode_output_statistics(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 3, 8, 8)))
        y = ad.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        mean = y.data.mean(axis=(0, 2, 3))
        var = y.data.var(axis=(0, 2, 3))
        x_var = x.data.var(axis=(0, 2, 3))
        assert np.abs(mean).max() <= 1e-9
        assert np.abs(var - x_var / (x_var + ad.BN_EPSILON)).max() <= 1e-12

    def test_eval_mode_uses_running_stats(self):
        stats = ChannelStats(mean=np.array([1.0]), std=np.array([2.0]))
        x = Tensor(np.full((1, 1, 2, 2), 5.0))
        y = ad.batchnorm2d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                           mode="eval", running_stats=stats)
        assert np.allclose(y.data, (5.0 - 1.0) / np.sqrt(4.0 + ad.BN_EPSILON), atol=1e-12)

    def test_running_stats_move_toward_batch(self):
        stats = ChannelStats(mean=np.zeros(2), std=np.ones(2))
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(5.0, 1.0, size=(4, 2, 6, 6)))
        ad.batchnorm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       running_stats=stats)
        assert np.all(stats.mean > 0.3)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            ad.batchnorm2d(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 16, 8, 8), (3, 128, 1, 1), (1, 5, 7, 9)])
    def test_equals_the_textbook_formula_bitwise(self, mode, dtype, shape):
        """gamma * ((x - mu) * inv) + beta, with the statistics the mode selects."""
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        x = rng.normal(1.0, 3.0, size=shape).astype(dtype)
        gamma, beta = rng.normal(1.0, 0.5, size=c), rng.normal(size=c)
        stats = ChannelStats(mean=rng.normal(size=c), std=rng.uniform(0.2, 3.0, size=c))
        if mode == "eval":
            mu, var = stats.mean, stats.std ** 2
        else:
            mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + 1e-5)
        want = (gamma[:, None, None] * ((x - mu[:, None, None]) * inv[:, None, None])
                + beta[:, None, None])
        got = ad.batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), mode=mode,
                             running_stats=stats).data
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_mode_equals_the_textbook_formula_bitwise_on_channel_major_input(self, dtype):
        rng = np.random.default_rng(21)
        x = channel_major(rng, (3, 16, 8, 8), dtype)
        gamma = rng.normal(1.0, 0.5, size=16).astype(dtype)
        beta = rng.normal(size=16).astype(dtype)
        mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + 1e-5)
        want = (gamma[:, None, None] * ((x - mu[:, None, None]) * inv[:, None, None])
                + beta[:, None, None])
        got = ad.batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("layout", ["batch_major", "channel_major"])
    def test_train_vjp_agrees_with_the_three_sum_expression(self, dtype, tol, layout):
        rng = np.random.default_rng(22)
        shape = (3, 16, 8, 8)
        if layout == "channel_major":
            x, g = channel_major(rng, shape, dtype), channel_major(rng, shape, dtype)
        else:
            x = rng.normal(1.0, 3.0, size=shape).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
        gamma = rng.normal(1.0, 0.5, size=16).astype(dtype)
        beta = rng.normal(size=16).astype(dtype)
        vjp = taped_vjp(lambda: ad.batchnorm2d(
            Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
            Tensor(beta, requires_grad=True)))
        got = vjp(g, (True, True, True))
        for name, have, want in zip(("x", "gamma", "beta"), got,
                                    reference_batchnorm_train_vjp(g, x, gamma)):
            assert have.dtype == dtype and have.shape == want.shape, name
            assert np.abs(have - want).max() <= tol * np.abs(want).max(), name

    def test_train_vjp_holds_one_output_sized_array(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 16, 32, 32)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        ones, zeros = np.ones(16, np.float32), np.zeros(16, np.float32)
        vjp = taped_vjp(lambda: ad.batchnorm2d(
            Tensor(x, requires_grad=True), Tensor(ones, requires_grad=True),
            Tensor(zeros, requires_grad=True)))
        assert vjp_peak(vjp, g, (True, True, True)) <= 1.5 * x.nbytes  # 3.1x with three sums

    def test_eval_mode_with_float32_stats_computes_in_float32(self):
        rng = np.random.default_rng(8)
        x = rng.normal(1.0, 3.0, size=(3, 16, 8, 8)).astype(np.float32)
        gamma, beta = (rng.normal(1.0, 0.5, size=16).astype(np.float32),
                       rng.normal(size=16).astype(np.float32))
        stats = ChannelStats(mean=rng.normal(size=16).astype(np.float32),
                             std=rng.uniform(0.2, 3.0, size=16).astype(np.float32))
        inv = 1.0 / np.sqrt(stats.std ** 2 + 1e-5)
        want = (gamma[:, None, None] * ((x - stats.mean[:, None, None]) * inv[:, None, None])
                + beta[:, None, None])
        got = ad.batchnorm2d(Tensor(x), Tensor(gamma), Tensor(beta), mode="eval",
                             running_stats=stats).data
        assert want.dtype == got.dtype == np.float32
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("stats_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    def test_train_mode_running_stats_keep_their_dtype(self, stats_dtype, x_dtype):
        stats = ChannelStats(mean=np.zeros(2, dtype=stats_dtype),
                             std=np.ones(2, dtype=stats_dtype))
        x = np.random.default_rng(9).normal(5.0, 1.0, size=(4, 2, 6, 6)).astype(x_dtype)
        ad.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                       running_stats=stats)
        assert stats.mean.dtype == stats.std.dtype == stats_dtype
        assert np.all(stats.mean > 0.3)

    def test_eval_mode_allocates_only_its_output(self):
        rng = np.random.default_rng(7)
        # planes above 8192 elements: numpy buffers broadcast ops on smaller ones (64 KiB)
        x = Tensor(rng.normal(size=(1, 16, 128, 128)))
        gamma, beta = Tensor(rng.normal(size=16)), Tensor(rng.normal(size=16))
        stats = ChannelStats(mean=rng.normal(size=16), std=rng.uniform(0.5, 2.0, size=16))
        tracemalloc.start()
        try:
            out = ad.batchnorm2d(x, gamma, beta, mode="eval", running_stats=stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + (64 << 10)


class TestActivations:
    def test_leaky_relu_values(self):
        y = ad.leaky_relu(Tensor([-1.0, 0.0, 2.0]), slope=0.2)
        assert np.allclose(y.data, [-0.2, 0.0, 2.0])

    def test_leaky_relu_slope_one_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=17)
        assert np.array_equal(ad.leaky_relu(Tensor(x), slope=1.0).data, x)

    @pytest.mark.parametrize("slope", [0.0, 0.05, 0.2, 1.0])
    def test_leaky_relu_equals_the_masked_form(self, slope):
        """max(a, slope*a) is bitwise np.where(a >= 0, a, slope*a), signed zeros too."""
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.normal(size=64), rng.normal(size=8) * 1e300,
                            [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]])
        got = ad.leaky_relu(Tensor(x), slope).data
        want = np.where(x >= 0, x, slope * x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_leaky_relu_propagates_nan_and_relu_maps_inf_to_nan(self):
        x = Tensor([np.nan, np.inf, -np.inf])
        assert np.isnan(ad.leaky_relu(x, 0.2).data[0])
        assert ad.leaky_relu(x, 0.2).data[1:].tolist() == [np.inf, -np.inf]
        with np.errstate(invalid="ignore"):  # 0 * inf
            assert np.isnan(ad.relu(x).data).all()

    def test_leaky_relu_allocates_only_its_output(self):
        x = Tensor(np.random.default_rng(6).normal(size=(1, 16, 256, 256)))
        tracemalloc.start()
        try:
            out = ad.leaky_relu(x, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + (64 << 10)

    @pytest.mark.parametrize("slope", [0.0, 0.05, 0.2, 1.0])
    def test_leaky_relu_gradient_equals_the_float_mask_form(self, slope):
        """The VJP is bitwise g * np.where(a >= 0, 1.0, slope), signed zeros too."""
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.nan, np.inf, -np.inf]
        a = np.concatenate([rng.normal(size=40), special, rng.permutation(special)])
        g = np.concatenate([rng.normal(size=40), rng.permutation(special), special])
        x = Tensor(a, requires_grad=True)
        graph = Graph()
        with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
            with graph:
                loss = (ad.leaky_relu(x, slope) * Tensor(g)).sum()
            graph.backward(loss)
            want = g * np.where(a >= 0, 1.0, slope)
        assert np.array_equal(x.grad, want, equal_nan=True)
        finite = ~np.isnan(want)
        assert np.array_equal(np.signbit(x.grad[finite]), np.signbit(want[finite]))

    @pytest.mark.parametrize("slope", [0.0, 0.2])
    @pytest.mark.parametrize("layout", ["batch_major", "mixed"])
    def test_leaky_relu_float32_gradient_equals_the_float_mask_form(self, slope, layout):
        """Also for a channel-major ``a`` under a batch-major ``g``, as in FontNet's backward."""
        rng = np.random.default_rng(24)
        shape = (3, 4, 5, 6)
        if layout == "mixed":
            a = channel_major(rng, shape, np.float32)
        else:
            a = rng.normal(size=shape).astype(np.float32)
        a.flat[:4] = [0.0, -0.0, np.inf, -np.inf]
        g = rng.normal(size=shape).astype(np.float32)
        with np.errstate(invalid="ignore"):  # relu's forward maps inf to 0 * inf
            vjp = taped_vjp(lambda: ad.leaky_relu(Tensor(a, requires_grad=True), slope))
        (got,) = vjp(g, (True,))
        want = g * np.where(a >= 0, np.float32(1.0), np.float32(slope))
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_leaky_relu_gradient_holds_its_output_and_a_bool_mask(self):
        rng = np.random.default_rng(25)
        a = channel_major(rng, (4, 16, 64, 64), np.float32)
        g = rng.normal(size=a.shape).astype(np.float32)
        vjp = taped_vjp(lambda: ad.leaky_relu(Tensor(a, requires_grad=True), 0.2))
        assert vjp_peak(vjp, g, (True,)) <= 1.3 * g.nbytes  # np.where held 2.3x

    def test_taped_float32_conv_and_leaky_relu_give_float32_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=4).astype(np.float32), requires_grad=True)
        graph = Graph()
        with graph:
            loss = ad.leaky_relu(ad.conv2d(x, w, b, padding=1), 0.2).sum()
        graph.backward(loss)
        assert [t.grad.dtype for t in (x, w, b)] == [np.float32] * 3

    @pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(Tensor([1.0]), slope)

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            y = ad.sigmoid(Tensor([-100.0, 100.0]))
        assert 0.0 < y.data[0] <= 1e-6
        assert 1.0 - 1e-6 <= y.data[1] <= 1.0


class TestConcatChannels:
    def test_zero_width_second_operand(self):
        a = Tensor(np.ones((1, 2, 3, 3)))
        b = Tensor(np.zeros((1, 0, 3, 3)))
        assert np.array_equal(ad.concat_channels(a, b).data, a.data)

    def test_two_singletons(self):
        y = ad.concat_channels(Tensor([[[[1.0]]]]), Tensor([[[[2.0]]]]))
        assert y.data.reshape(-1).tolist() == [1.0, 2.0]

    def test_round_trip_split(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 5, 4, 4))
        y = ad.concat_channels(Tensor(a), Tensor(b))
        assert np.array_equal(y.data[:, :3], a)
        assert np.array_equal(y.data[:, 3:], b)

    def test_rejects_spatial_mismatch(self):
        with pytest.raises(ShapeError, match="mismatch"):
            ad.concat_channels(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 4, 4))))


class TestUpsampleAndPool:
    def test_upsample_factor_one_is_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 3, 3))
        assert np.array_equal(ad.upsample_nearest(Tensor(x), 1).data, x)

    def test_upsample_replicates_blocks(self):
        y = ad.upsample_nearest(Tensor(np.array([[[[1.0, 2.0]]]])), 2)
        assert y.data.reshape(-1).tolist() == [1, 1, 2, 2, 1, 1, 2, 2]

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_upsample_preserves_sum_times_factor_squared(self, factor):
        rng = np.random.default_rng(factor)
        x = rng.normal(size=(2, 3, 4, 5))
        y = ad.upsample_nearest(Tensor(x), factor)
        assert np.isclose(y.data.sum(), factor ** 2 * x.sum())

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_upsample_equals_repeat_and_allocates_only_its_output(self, factor):
        x = np.random.default_rng(factor).normal(size=(2, 8, 64, 48))
        tracemalloc.start()
        try:
            out = ad.upsample_nearest(Tensor(x), factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out.data, np.repeat(np.repeat(x, factor, axis=2), factor, axis=3))
        assert peak <= out.data.nbytes + (64 << 10)

    @pytest.mark.parametrize("factor", [2, 3])
    def test_upsample_is_bitwise_repeat_in_float32(self, factor):
        """Signed zeros, infinities and NaN payloads included, from a strided input."""
        x = np.random.default_rng(factor).normal(size=(3, 2, 5, 7)).astype(np.float32)
        x.reshape(-1)[:4] = [-0.0, np.inf, -np.inf, np.nan]
        x = x.transpose(1, 0, 2, 3)
        out = ad.upsample_nearest(Tensor(x), factor).data
        want = np.repeat(np.repeat(x, factor, axis=2), factor, axis=3)
        assert out.dtype == np.float32 and out.shape == want.shape
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_upsample_gradient_sums_each_block(self, factor):
        rng = np.random.default_rng(20 + factor)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        g = rng.normal(size=(2, 3, 4 * factor, 5 * factor))
        graph = Graph()
        with graph:
            loss = (ad.upsample_nearest(x, factor) * Tensor(g)).sum()
        graph.backward(loss)
        want = g.reshape(2, 3, 4, factor, 5, factor).sum(axis=(3, 5))
        assert np.abs(x.grad - want).max() <= 1e-12

    def test_upsample_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="factor"):
            ad.upsample_nearest(Tensor(np.zeros((1, 1, 2, 2))), 0)

    def test_global_avg_pool_constant(self):
        assert ad.global_avg_pool(Tensor(np.full((1, 2, 3, 3), 4.0))).data.reshape(-1).tolist() == [4.0, 4.0]

    def test_global_avg_pool_hand_case(self):
        y = ad.global_avg_pool(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
        assert y.data.reshape(-1).tolist() == [2.5]


class TestFullyConnected:
    def test_identity_weight(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = ad.fully_connected(Tensor(x), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.array_equal(y.data, x)

    def test_hand_case(self):
        y = ad.fully_connected(Tensor([[2.0, 3.0]]), Tensor([[1.0, 1.0]]), Tensor([1.0]))
        assert y.data.tolist() == [[6.0]]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.fully_connected(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))),
                               Tensor(np.zeros(2)))


class TestBilinearContract:
    def test_scalar_case(self):
        y = ad.bilinear_contract(Tensor([[2.0]]), Tensor(np.full((1, 1, 1), 5.0)),
                                 Tensor([[3.0]]))
        assert y.data.tolist() == [[30.0]]

    def test_zero_style_gives_zero(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(3, 4, 5)))
        c = Tensor(rng.normal(size=(2, 5)))
        y = ad.bilinear_contract(Tensor(np.zeros((2, 3))), w, c)
        assert np.array_equal(y.data, np.zeros((2, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_bilinearity_under_scaling(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(2, 3))
        w = Tensor(rng.normal(size=(3, 4, 5)))
        c = rng.normal(size=(2, 5))
        alpha = float(rng.normal())
        base = ad.bilinear_contract(Tensor(s), w, Tensor(c)).data
        left = ad.bilinear_contract(Tensor(alpha * s), w, Tensor(c)).data
        right = ad.bilinear_contract(Tensor(s), w, Tensor(alpha * c)).data
        scale = np.abs(base).max()
        assert np.abs(left - alpha * base).max() <= 1e-9 * max(1.0, abs(alpha) * scale)
        assert np.abs(right - alpha * base).max() <= 1e-9 * max(1.0, abs(alpha) * scale)

    def test_additivity_in_style(self):
        rng = np.random.default_rng(7)
        s1, s2 = rng.normal(size=(2, 2, 3))
        w = Tensor(rng.normal(size=(3, 4, 5)))
        c = Tensor(rng.normal(size=(2, 5)))
        lhs = ad.bilinear_contract(Tensor(s1 + s2), w, c).data
        rhs = ad.bilinear_contract(Tensor(s1), w, c).data + ad.bilinear_contract(Tensor(s2), w, c).data
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(lhs).max())

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.bilinear_contract(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4, 5))),
                                 Tensor(np.zeros((1, 5))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        g = Graph()
        with g:
            loss = x.sum()
        g.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_two_x(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        g = Graph()
        with g:
            loss = (x * x).sum()
        g.backward(loss)
        assert np.allclose(x.grad, 2 * x.data)

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        g = Graph()
        with g:
            y = x + x  # two uses of the same tensor
            loss = (y * x).sum()  # d/dx (2x*x) = 4x
        g.backward(loss)
        assert np.allclose(x.grad, 4 * x.data)

    def test_rejects_nonscalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        g = Graph()
        with g:
            y = x * 2.0
        with pytest.raises(ad.GraphError, match="scalar"):
            g.backward(y)

    def test_graph_is_single_use(self):
        x = Tensor([1.0], requires_grad=True)
        g = Graph()
        with g:
            loss = x.sum()
        g.backward(loss)
        with pytest.raises(ad.GraphError, match="consumed"):
            g.backward(loss)

    def test_no_recording_outside_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        assert not y.requires_grad

    def test_only_leaves_receive_gradients(self):
        x = Tensor([2.0, -1.0], requires_grad=True)
        w = Tensor([3.0, 0.5], requires_grad=True)
        g = Graph()
        with g:
            y = x * w
            z = y + x  # second use of x: its two gradients accumulate
            loss = z.sum()
        g.backward(loss)
        assert y.requires_grad and z.requires_grad
        assert y.grad is None and z.grad is None and loss.grad is None
        assert np.array_equal(x.grad, w.data + 1.0)
        assert np.array_equal(w.grad, x.data)
        assert len(g) == 0

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            g = Graph()
            with g:
                loss = (x * 3.0).sum()
            g.backward(loss)
        assert np.allclose(x.grad, [6.0])

    @pytest.mark.parametrize("index", [
        np.array([0, 0, 2]),
        [0, 0, 2],
        (slice(None), np.array([1, 1])),
    ])
    def test_take_accumulates_repeated_indices(self, index):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        g = Graph()
        with g:
            loss = x[index].sum()
        g.backward(loss)
        want = np.zeros((3, 2))
        np.add.at(want, index, 1.0)
        assert np.array_equal(x.grad, want)
        assert want.max() == 2.0

    def test_take_basic_slice_scatters_into_place(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        g = Graph()
        with g:
            loss = x[1:, ::2].sum()
        g.backward(loss)
        assert x.grad.tolist() == [[0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 1, 0]]


class TestDeterminismAndFiniteness:
    def test_forward_is_bit_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)

        def run():
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
            out = ad.leaky_relu(out, 0.2)
            out = ad.batchnorm2d(out, Tensor(np.ones(4)), Tensor(np.zeros(4)))
            return ad.sigmoid(out).data

        assert np.array_equal(run(), run())

    def test_ops_keep_finite_inputs_finite(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(scale=50.0, size=(2, 3, 6, 6)))
        y = ad.sigmoid(ad.batchnorm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3))))
        z = ad.global_avg_pool(ad.upsample_nearest(y, 2))
        assert np.isfinite(z.data).all()


class TestDtypeRule:
    """float32 data stays float32 through every op; all else computes in float64."""

    @pytest.mark.parametrize("data", [[1.0, 2.0], 3, np.arange(4), np.ones(2, np.float16)])
    def test_non_float32_data_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    def test_float32_data_stays_float32_without_a_copy(self):
        data = np.ones((2, 3), np.float32)
        assert Tensor(data).data is data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", [
        lambda x: x + 0.5,
        lambda x: 0.5 + x,
        lambda x: x * 0.5,
        lambda x: 2 * x,
        lambda x: 1.0 - x,
        lambda x: x / 3.0,
        lambda x: x[:, :, :5, :3],
        lambda x: ad.relu(x),
        lambda x: ad.leaky_relu(x, 0.2),
        lambda x: ad.upsample_nearest(x, 2),
        lambda x: ad.global_avg_pool(x),
        lambda x: ad.sqrt(x * x + 1e-8),
        lambda x: x.mean(axis=(2, 3)),
    ])
    def test_elementwise_and_structural_ops_keep_dtype(self, dtype, op):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 6, 4)).astype(dtype))
        assert op(x).data.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
    def test_conv2d_keeps_dtype_and_agrees_across_dtypes(self, dtype, stride, padding):
        rng = np.random.default_rng(stride + padding)
        x, w, b = rng.normal(size=(2, 3, 9, 8)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        got = ad.conv2d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)),
                        Tensor(b.astype(dtype)), stride=stride, padding=padding)
        assert got.data.dtype == dtype
        want = conv2d_bruteforce(x, w, b, stride, padding)
        assert np.abs(got.data - want).max() <= (1e-5 if dtype == np.float32 else 1e-12)

    @pytest.mark.parametrize("block", [10, 350])
    def test_im2col_matmul_float32_row_blocks(self, monkeypatch, block):
        monkeypatch.setattr(ad, "IM2COL_BLOCK", block)
        rng = np.random.default_rng(block)
        x = rng.normal(size=(5, 3, 9, 8)).astype(np.float32)
        wmat = rng.normal(size=(4, 27)).astype(np.float32)
        got, _, _ = ad._im2col_matmul(wmat, x, 3, 3, 2, 1)
        assert got.dtype == np.float32
        assert np.array_equal(got, wmat @ im2col(x, 3, 3, 2, 1)[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fully_connected_keeps_dtype(self, dtype):
        rng = np.random.default_rng(1)
        out = ad.fully_connected(Tensor(rng.normal(size=(2, 5)).astype(dtype)),
                                 Tensor(rng.normal(size=(3, 5)).astype(dtype)),
                                 Tensor(np.zeros(3, dtype)))
        assert out.data.dtype == dtype

    def test_mixed_operands_promote_to_float64(self):
        x32 = Tensor(np.ones((1, 2, 4, 4), np.float32))
        assert (x32 + Tensor(np.ones(1))).data.dtype == np.float64
        out = ad.conv2d(x32, Tensor(np.ones((1, 2, 1, 1))), Tensor(np.zeros(1, np.float32)))
        assert out.data.dtype == np.float64

    def test_float64_scalar_operand_is_the_old_float64_value(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        assert np.array_equal((x * 0.1).data, x.data * np.asarray(0.1, dtype=np.float64))
        assert np.array_equal((0.3 - x).data, np.asarray(0.3, dtype=np.float64) - x.data)


class TestEmptyBatch:
    def test_conv2d_returns_an_empty_batch_and_zero_parameter_gradients(self):
        x = Tensor(np.zeros((0, 3, 8, 8)), requires_grad=True)
        w = Tensor(np.ones((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        g = Graph()
        with g:
            out = ad.conv2d(x, w, b, stride=2, padding=1)
            loss = out.sum()
        assert out.shape == (0, 4, 4, 4)
        g.backward(loss)
        assert x.grad.shape == (0, 3, 8, 8)
        assert np.array_equal(w.grad, np.zeros(w.shape))
        assert np.array_equal(b.grad, np.zeros(4))

    def test_deconv2d_returns_an_empty_batch_and_zero_parameter_gradients(self):
        x = Tensor(np.zeros((0, 3, 8, 8)), requires_grad=True)
        w = Tensor(np.ones((3, 4, 3, 3)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        g = Graph()
        with g:
            out = ad.deconv2d(x, w, b)
            loss = out.sum()
        assert out.shape == (0, 4, 10, 10)
        g.backward(loss)
        assert x.grad.shape == (0, 3, 8, 8)
        assert np.array_equal(w.grad, np.zeros(w.shape))
        assert np.array_equal(b.grad, np.zeros(4))
