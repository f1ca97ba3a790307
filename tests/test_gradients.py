"""Analytic gradients vs central finite differences for every primitive.

Each op is checked over 20 random seeds on small shapes; the full typeface
pipeline and the stylization net under its objective (micro configurations,
cast to float64) are checked on sampled parameter coordinates, and their
float32 analytic gradients against float64.
"""

import numpy as np
import pytest

from gradcheck import check_gradients, check_gradients_sampled, numeric_gradient, rel_error

from stylemix import autodiff as ad
from stylemix.autodiff import Graph, Tensor
from stylemix.fontnet import FontNet, FontNetConfig
from stylemix.losses import weighted_l1_loss
from stylemix.nst import ExtractorConfig, FeatureExtractor, NstConfig, NstNet, nst_objective

SEEDS = range(20)


def _proj(rng, shape):
    """Random fixed projection so output gradients are non-uniform."""
    return Tensor(rng.normal(size=shape))


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_gradients(seed):
    rng = np.random.default_rng(seed)
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)

    def make_loss():
        return ad.conv2d(x, w, b, stride=stride, padding=padding).sum()

    check_gradients(make_loss, [x, w, b], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_deconv2d_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    opad = int(rng.integers(0, stride))
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    proj_shape = ad.deconv2d(x, w, b, stride=stride, padding=padding,
                             output_padding=opad).shape
    proj = _proj(rng, proj_shape)

    def make_loss():
        out = ad.deconv2d(x, w, b, stride=stride, padding=padding, output_padding=opad)
        return (out * proj).sum()

    check_gradients(make_loss, [x, w, b], tol=1e-4)


# (batch, cin, h, w, cout, kh, kw, stride, padding): batches of 2-3, non-square
# inputs and kernels, and k3 s2 p1 on even sizes, where the last padded row and
# column fall outside every window (FontNet's encoder layers).
CONV_CASES = [
    (2, 2, 5, 7, 3, 3, 2, 1, 1),
    (3, 2, 6, 4, 2, 2, 3, 2, 0),
    (2, 2, 6, 6, 3, 3, 3, 2, 1),
    (3, 1, 8, 6, 2, 3, 3, 2, 1),
]


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_gradients_batched_nonsquare(case):
    bsz, cin, h, w_, cout, kh, kw, stride, padding = case
    rng = np.random.default_rng(sum(case))
    x = Tensor(rng.normal(size=(bsz, cin, h, w_)), requires_grad=True)
    w = Tensor(rng.normal(size=(cout, cin, kh, kw)), requires_grad=True)
    b = Tensor(rng.normal(size=cout), requires_grad=True)
    proj = _proj(rng, ad.conv2d(x, w, b, stride=stride, padding=padding).shape)

    def make_loss():
        return (ad.conv2d(x, w, b, stride=stride, padding=padding) * proj).sum()

    check_gradients(make_loss, [x, w, b], tol=1e-4)


@pytest.mark.parametrize("case", CONV_CASES)
def test_deconv2d_gradients_batched_nonsquare(case):
    bsz, cin, h, w_, cout, kh, kw, stride, padding = case
    rng = np.random.default_rng(100 + sum(case))
    opad = stride - 1
    x = Tensor(rng.normal(size=(bsz, cin, h // stride, w_ // stride)), requires_grad=True)
    w = Tensor(rng.normal(size=(cin, cout, kh, kw)), requires_grad=True)
    b = Tensor(rng.normal(size=cout), requires_grad=True)
    kwargs = dict(stride=stride, padding=padding, output_padding=opad)
    proj = _proj(rng, ad.deconv2d(x, w, b, **kwargs).shape)

    def make_loss():
        return (ad.deconv2d(x, w, b, **kwargs) * proj).sum()

    check_gradients(make_loss, [x, w, b], tol=1e-4)


# (conv2d input size, stride, padding): each conv2d output, and each deconv2d
# input, is [3, 2, 6, 5], so every unroll has 18 * 30 = 540 elements per item
BLOCKED_CASES = [((8, 7), 1, 0), ((6, 5), 1, 1), ((13, 11), 2, 0), ((12, 10), 2, 1)]


@pytest.mark.parametrize("block", [
    1200,  # two whole items per block, the last block holds one
    350,  # one item does not fit: three whole rows per block
    10,  # one row exceeds the block: one row per block
])
@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_conv_family_gradients_across_column_blocks(monkeypatch, case, block):
    """Kernel gradients and deconv2d's input gradient summed over several blocks."""
    monkeypatch.setattr(ad, "IM2COL_BLOCK", block)
    (h, w_), stride, padding = case
    rng = np.random.default_rng(block + sum(case[0]) + 10 * stride + padding)
    x = Tensor(rng.normal(size=(3, 2, h, w_)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 2, 6, 5)), requires_grad=True)
    kwargs = dict(stride=stride, padding=padding)
    opad = (h + 2 * padding - 3) % stride  # deconv2d of y restores the h x w_ input
    proj_conv = _proj(rng, (3, 2, 6, 5))
    proj_deconv = _proj(rng, (3, 2, h, w_))

    check_gradients(lambda: (ad.conv2d(x, w, b, **kwargs) * proj_conv).sum(),
                    [x, w, b], tol=1e-4)
    check_gradients(lambda: (ad.deconv2d(y, w, b, output_padding=opad, **kwargs)
                             * proj_deconv).sum(), [y, w, b], tol=1e-4)


# (batch, kh, kw, padding): a square and a non-square kernel at padding 0,
# k - 1, k and k + 1; from padding k on an axis, the stride-1 input gradient
# (a conv of the output gradient with the flipped kernel) crops instead of pads
STRIDE1_CASES = ([(2, 3, 3, p) for p in (0, 2, 3, 4)]
                 + [(3, 2, 3, p) for p in (0, 1, 2, 3, 4)])


@pytest.mark.parametrize("case", STRIDE1_CASES)
def test_stride1_conv2d_gradients_at_every_padding(case):
    bsz, kh, kw, padding = case
    rng = np.random.default_rng(200 + 10 * kh + padding)
    x = Tensor(rng.normal(size=(bsz, 2, 5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, kh, kw)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    proj = _proj(rng, ad.conv2d(x, w, b, padding=padding).shape)

    def make_loss():
        return (ad.conv2d(x, w, b, padding=padding) * proj).sum()

    check_gradients(make_loss, [x, w, b], tol=1e-4)


@pytest.mark.parametrize("block", [
    1200,  # one whole item per block
    350,  # one item does not fit: two or three whole rows per block
    10,  # one row exceeds the block: one row per block
])
@pytest.mark.parametrize("case", STRIDE1_CASES)
def test_stride1_conv2d_input_gradient_equals_brute_force(monkeypatch, case, block):
    """The streamed input gradient spreads each output gradient over its window."""
    monkeypatch.setattr(ad, "IM2COL_BLOCK", block)
    bsz, kh, kw, padding = case
    h, w_ = 7, 6
    rng = np.random.default_rng(300 + block + 10 * kh + padding)
    x = Tensor(rng.normal(size=(bsz, 2, h, w_)), requires_grad=True)
    w = rng.normal(size=(3, 2, kh, kw))
    graph = Graph()
    with graph:
        y = ad.conv2d(x, Tensor(w), Tensor(np.zeros(3)), padding=padding)
        g = rng.normal(size=y.shape)
        loss = (y * Tensor(g)).sum()
    graph.backward(loss)
    want = np.zeros((bsz, 2, h + 2 * padding, w_ + 2 * padding))
    for i in range(y.shape[2]):
        for j in range(y.shape[3]):
            want[:, :, i:i + kh, j:j + kw] += np.einsum("bo,ocuv->bcuv", g[:, :, i, j], w)
    want = want[:, :, padding:padding + h, padding:padding + w_]
    assert np.abs(x.grad - want).max() <= 1e-12


@pytest.mark.parametrize("factor", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_upsample_gradients_with_the_odd_size_crop(factor, seed):
    """Nearest upsampling alone, and cropped by one row and column as
    ``NstNet.decode`` crops an odd size."""
    rng = np.random.default_rng(970 + 10 * factor + seed)
    a = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
    h, w_ = 3 * factor, 4 * factor
    proj = _proj(rng, (2, 2, h, w_))
    proj_crop = _proj(rng, (2, 2, h - 1, w_ - 1))

    check_gradients(lambda: (ad.upsample_nearest(a, factor) * proj).sum(), [a], tol=1e-4)
    check_gradients(lambda: (ad.upsample_nearest(a, factor)[:, :, :h - 1, :w_ - 1]
                             * proj_crop).sum(), [a], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_train_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    x = Tensor(rng.normal(1.0, 2.0, size=(3, 2, 4, 4)), requires_grad=True)
    gamma = Tensor(rng.normal(1.0, 0.2, size=2), requires_grad=True)
    beta = Tensor(rng.normal(size=2), requires_grad=True)
    proj = _proj(rng, (3, 2, 4, 4))

    def make_loss():
        return (ad.batchnorm2d(x, gamma, beta, mode="train") * proj).sum()

    check_gradients(make_loss, [x, gamma, beta], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_eval_gradients(seed):
    rng = np.random.default_rng(300 + seed)
    stats = ad.ChannelStats(mean=rng.normal(size=2), std=rng.uniform(0.5, 2.0, 2))
    x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    gamma = Tensor(rng.normal(1.0, 0.2, size=2), requires_grad=True)
    beta = Tensor(rng.normal(size=2), requires_grad=True)
    proj = _proj(rng, (2, 2, 3, 3))

    def make_loss():
        out = ad.batchnorm2d(x, gamma, beta, mode="eval", running_stats=stats)
        return (out * proj).sum()

    check_gradients(make_loss, [x, gamma, beta], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_leaky_relu_gradients_away_from_kink(seed):
    rng = np.random.default_rng(400 + seed)
    data = rng.normal(size=(3, 7))
    data[np.abs(data) < 1e-3] = 0.5  # keep every input clear of the kink
    x = Tensor(data, requires_grad=True)
    proj = _proj(rng, (3, 7))

    def make_loss():
        return (ad.leaky_relu(x, 0.2) * proj).sum()

    check_gradients(make_loss, [x], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_sigmoid_gradients(seed):
    rng = np.random.default_rng(500 + seed)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    proj = _proj(rng, (4, 5))

    def make_loss():
        return (ad.sigmoid(x) * proj).sum()

    check_gradients(make_loss, [x], tol=1e-4)


def test_sigmoid_derivative_closed_form():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=23), requires_grad=True)
    g = Graph()
    with g:
        y = ad.sigmoid(x)
        loss = y.sum()
    g.backward(loss)
    want = y.data * (1.0 - y.data)
    assert rel_error(x.grad, want) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
def test_global_avg_pool_gradients(seed):
    rng = np.random.default_rng(600 + seed)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    proj = _proj(rng, (2, 3, 1, 1))

    def make_loss():
        return (ad.global_avg_pool(x) * proj).sum()

    check_gradients(make_loss, [x], tol=1e-4)


def test_global_avg_pool_gradient_is_uniform():
    x = Tensor(np.arange(24.0).reshape(1, 2, 3, 4), requires_grad=True)
    g = Graph()
    with g:
        loss = ad.global_avg_pool(x).sum()
    g.backward(loss)
    assert np.allclose(x.grad, 1.0 / 12.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_fully_connected_gradients(seed):
    rng = np.random.default_rng(700 + seed)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    proj = _proj(rng, (3, 2))

    def make_loss():
        return (ad.fully_connected(x, w, b) * proj).sum()

    check_gradients(make_loss, [x, w, b], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_bilinear_contract_gradients(seed):
    rng = np.random.default_rng(800 + seed)
    s = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    proj = _proj(rng, (2, 4))

    def make_loss():
        return (ad.bilinear_contract(s, w, c) * proj).sum()

    check_gradients(make_loss, [s, w, c], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_upsample_and_concat_gradients(seed):
    rng = np.random.default_rng(900 + seed)
    a = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
    proj = _proj(rng, (1, 3, 6, 6))

    def make_loss():
        up = ad.upsample_nearest(a, 2)
        return (ad.concat_channels(up, b) * proj).sum()

    check_gradients(make_loss, [a, b], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_take_gradients_with_repeated_index(seed):
    rng = np.random.default_rng(950 + seed)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    index = (np.array([0, 2, 0, 3, 2]), slice(1, None))
    proj = _proj(rng, (5, 2))

    def make_loss():
        return (x[index] * proj).sum()

    check_gradients(make_loss, [x], tol=1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_elementwise_composite_gradients(seed):
    """add/sub/mul/div/sqrt/abs/mean/reshape/slice in one expression."""
    rng = np.random.default_rng(1000 + seed)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    shift = Tensor(rng.normal(size=(2, 3, 1, 1)), requires_grad=True)

    def make_loss():
        mu = x.mean(axis=(2, 3), keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=(2, 3), keepdims=True)
        normalized = centered / ad.sqrt(var + 0.1)
        shifted = normalized * 1.5 + shift
        sliced = shifted[:, :, 1:, :-1]
        return sliced.abs().sum() + (sliced * sliced).mean()

    check_gradients(make_loss, [x, shift], tol=1e-4)


def _as_float64(net: FontNet) -> FontNet:
    """``net`` with its float32 parameters and batch-norm buffers cast to float64."""
    for tensor in net.params.values():
        tensor.data = tensor.data.astype(np.float64)
    for stats in net.buffers.values():
        stats.mean, stats.std = stats.mean.astype(np.float64), stats.std.astype(np.float64)
    return net


def _pipeline_gradient(net: FontNet, style_x, content_x, targets) -> np.ndarray:
    """All parameter gradients of one train-mode weighted L1, concatenated."""
    graph = Graph()
    with graph:
        loss = weighted_l1_loss(net.forward_generate(style_x, content_x, mode="train"),
                                targets)
    graph.backward(loss)
    grads = [t.grad.ravel() for t in net.params.values()]
    net.params.zero_grad()
    return np.concatenate(grads)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_typeface_pipeline_gradients(seed):
    """Whole forward + weighted L1 on the micro network, sampled coordinates.

    Finite differences cannot resolve float32, so the check runs on the
    network cast to float64."""
    rng = np.random.default_rng(2000 + seed)
    config = FontNetConfig(image_size=8, base_channels=2, ref_count=2)
    net = _as_float64(FontNet.initialize(config, seed=seed))
    style_x = Tensor(rng.uniform(0.0, 1.0, size=(2, 2, 8, 8)))
    content_x = Tensor(rng.uniform(0.0, 1.0, size=(2, 2, 8, 8)))
    targets = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    tensors = [t for _, t in net.params.items()]

    def make_loss():
        out = net.forward_generate(style_x, content_x, mode="train")
        return weighted_l1_loss(out, targets)

    check_gradients_sampled(make_loss, tensors, n_coords=30, rng=rng, tol=1e-3)


@pytest.mark.parametrize("seed", SEEDS)
def test_float32_pipeline_gradients_match_float64(seed):
    """The float32 network's analytic gradients are the float64 ones, to 1e-4.

    Both nets hold the same float32-rounded weights and see the same
    float32-rounded inputs, so only the compute precision differs."""
    rng = np.random.default_rng(3000 + seed)
    config = FontNetConfig(image_size=8, base_channels=2, ref_count=2)
    style_x = rng.uniform(0.0, 1.0, size=(2, 2, 8, 8)).astype(np.float32)
    content_x = rng.uniform(0.0, 1.0, size=(2, 2, 8, 8)).astype(np.float32)
    targets = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    net32 = FontNet.initialize(config, seed=seed)
    net64 = _as_float64(FontNet.initialize(config, seed=seed))
    g32 = _pipeline_gradient(net32, style_x, content_x, targets)
    g64 = _pipeline_gradient(net64, style_x, content_x, targets)
    assert g32.dtype == np.float32 and g64.dtype == np.float64
    assert rel_error(g32, g64) <= 1e-4


NST_MICRO = NstConfig(conv_plan=((3, 1, 4), (3, 2, 8)), n_content_res=1)
NST_MICRO_EXTRACTOR = ExtractorConfig(stage_channels=(4, 8))


def _nst_micro(seed: int, dtype) -> tuple:
    """The micro stylization net and 2-stage extractor, its float32 weights cast to ``dtype``."""
    net = NstNet.initialize(NST_MICRO, seed=seed)
    extractor = FeatureExtractor(NST_MICRO_EXTRACTOR, seed=seed)
    for tensor in [*net.params.values(), *extractor.weights.values()]:
        tensor.data = tensor.data.astype(dtype)
    return net, extractor


def _nst_loss(net: NstNet, extractor: FeatureExtractor, style, content) -> Tensor:
    return nst_objective(extractor, net.forward(style, content), content, style)[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_nst_objective_decoder_gradients(seed):
    """Whole stylization forward + objective on the micro net, sampled decoder coordinates.

    Finite differences cannot resolve float32, so the check runs on the net
    and extractor cast to float64."""
    rng = np.random.default_rng(4000 + seed)
    net, extractor = _nst_micro(seed, np.float64)
    style = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 8, 8)))
    content = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 8, 8)))
    decoder = [t for name, t in net.params.items() if name.startswith("decoder.")]

    check_gradients_sampled(lambda: _nst_loss(net, extractor, style, content), decoder,
                            n_coords=30, rng=rng, tol=1e-3)


@pytest.mark.parametrize("seed", SEEDS)
def test_float32_nst_gradients_match_float64(seed):
    """The float32 stylization net's analytic gradients are the float64 ones, to 1e-4.

    Both nets and extractors hold the same float32-rounded weights and see
    the same float32-rounded images, so only the compute precision differs."""
    rng = np.random.default_rng(5000 + seed)
    style = rng.uniform(0.0, 1.0, size=(1, 3, 8, 8)).astype(np.float32)
    content = rng.uniform(0.0, 1.0, size=(1, 3, 8, 8)).astype(np.float32)
    grads = []
    for dtype in (np.float32, np.float64):
        net, extractor = _nst_micro(seed, dtype)
        graph = Graph()
        with graph:
            loss = _nst_loss(net, extractor, style.astype(dtype), content.astype(dtype))
        graph.backward(loss)
        grads.append(np.concatenate([t.grad.ravel() for t in net.params.values()]))
    g32, g64 = grads
    assert g32.dtype == np.float32 and g64.dtype == np.float64
    assert rel_error(g32, g64) <= 1e-4
