"""Channel statistics, statistic matching, stylization losses and networks."""

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest

from gradcheck import check_gradients

from stylemix import netpbm
from stylemix import nst as nst_mod
from stylemix.autodiff import (
    ChannelStats,
    Graph,
    ShapeError,
    Tensor,
    conv2d,
    relu,
    upsample_nearest,
)
from stylemix.nst import (
    STAT_EPSILON,
    ExtractorConfig,
    FeatureExtractor,
    NstConfig,
    NstNet,
    channel_stats,
    content_loss,
    nst_objective,
    statistic_match,
    style_interpolate,
    style_loss,
    total_loss,
    tradeoff_mix,
    tv_loss,
)
from stylemix.training import load_checkpoint, save_checkpoint

CUSTOM_NST = NstConfig(conv_plan=((5, 1, 4), (3, 2, 6)), n_content_res=2)
CUSTOM_EXTRACTOR = ExtractorConfig(stage_channels=(4, 6))


def _through_file(state, tmp_path, through_file: bool) -> dict:
    """``state`` itself, or as read back from a saved float32 checkpoint."""
    if not through_file:
        return state
    save_checkpoint(tmp_path / "state.ckpt", state)
    return load_checkpoint(tmp_path / "state.ckpt")


class TestChannelStats:
    def test_constant_channel(self):
        f = Tensor(np.full((1, 1, 3, 3), 4.0))
        stats = channel_stats(f)
        assert np.isclose(stats.mean.data[0, 0], 4.0)
        assert np.isclose(stats.std.data[0, 0], 1e-4)

    def test_hand_case_population_std(self):
        f = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        stats = channel_stats(f)
        assert stats.mean.data[0, 0] == 2.0
        assert stats.std.data[0, 0] == np.sqrt(1.0 + STAT_EPSILON)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_to_spatial_permutation(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(2, 3, 4, 5))
        flat = f.reshape(2, 3, -1)
        perm = rng.permutation(20)
        shuffled = flat[:, :, perm].reshape(2, 3, 4, 5)
        a = channel_stats(Tensor(f))
        b = channel_stats(Tensor(shuffled))
        assert np.allclose(a.mean.data, b.mean.data, atol=1e-12)
        assert np.allclose(a.std.data, b.std.data, atol=1e-12)


class TestStatisticMatch:
    def test_identity_when_target_is_own_stats(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.normal(size=(2, 3, 5, 5)))
        out = statistic_match(f, channel_stats(f))
        assert np.abs(out.data - f.data).max() <= 1e-9

    def test_hand_case(self):
        f = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        target = ChannelStats(mean=np.array([[10.0]]), std=np.array([[4.0]]))
        out = statistic_match(f, target)
        assert np.allclose(out.data.reshape(-1), [6.0, 14.0], atol=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_output_statistics_equal_target(self, seed):
        rng = np.random.default_rng(100 + seed)
        f = Tensor(rng.normal(size=(2, 4, 6, 6)))
        target = ChannelStats(mean=rng.normal(size=(1, 4)), std=rng.uniform(0.5, 3.0, (1, 4)))
        out = channel_stats(statistic_match(f, target))
        assert np.abs(out.mean.data - target.mean).max() <= 1e-6
        assert np.abs(out.std.data - target.std).max() <= 1e-6

    def test_constant_channel_maps_to_target_mean(self):
        f = Tensor(np.full((1, 1, 4, 4), 3.0))
        target = ChannelStats(mean=np.array([[7.0]]), std=np.array([[2.0]]))
        out = statistic_match(f, target)
        assert np.abs(out.data - 7.0).max() <= 1e-3

    def test_rejects_channel_mismatch(self):
        f = Tensor(np.zeros((1, 2, 3, 3)))
        target = ChannelStats(mean=np.zeros((1, 3)), std=np.ones((1, 3)))
        with pytest.raises(ShapeError, match="channels"):
            statistic_match(f, target)

    def test_rejects_stats_without_a_batch_axis(self):
        f = Tensor(np.zeros((1, 3, 3, 3)))
        target = ChannelStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(ShapeError, match=r"\[B,C\]"):
            statistic_match(f, target)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        f = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        mean_t = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        std_t = Tensor(rng.uniform(0.5, 2.0, size=(1, 2)), requires_grad=True)
        proj = Tensor(rng.normal(size=(1, 2, 3, 3)))

        def make_loss():
            out = statistic_match(f, ChannelStats(mean=mean_t, std=std_t))
            return (out * proj).sum()

        check_gradients(make_loss, [f, mean_t, std_t], tol=1e-4)


class TestTradeoffMix:
    def test_alpha_zero_reconstructs_content_features(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.normal(size=(1, 3, 5, 5)))
        own = channel_stats(f)
        other = ChannelStats(mean=rng.normal(size=(1, 3)), std=rng.uniform(0.5, 2.0, (1, 3)))
        out = tradeoff_mix(f, own, other, 0.0)
        assert np.abs(out.data - f.data).max() <= 1e-9

    def test_alpha_one_equals_plain_match(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.normal(size=(1, 3, 4, 4)))
        own = channel_stats(f)
        sty = ChannelStats(mean=rng.normal(size=(1, 3)), std=rng.uniform(0.5, 2.0, (1, 3)))
        a = tradeoff_mix(f, own, sty, 1.0)
        b = statistic_match(f, sty)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.62, 0.9])
    def test_output_stats_linear_in_alpha(self, alpha):
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(1, 4, 6, 6)))
        con = channel_stats(f)
        sty = ChannelStats(mean=rng.normal(size=(1, 4)), std=rng.uniform(0.5, 2.0, (1, 4)))
        ends = [channel_stats(tradeoff_mix(f, con, sty, a)) for a in (0.0, 1.0)]
        mid = channel_stats(tradeoff_mix(f, con, sty, alpha))
        want_mean = (1 - alpha) * ends[0].mean.data + alpha * ends[1].mean.data
        want_std = (1 - alpha) * ends[0].std.data + alpha * ends[1].std.data
        assert np.abs(mid.mean.data - want_mean).max() <= 1e-9
        assert np.abs(mid.std.data - want_std).max() <= 1e-9

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        f = Tensor(np.zeros((1, 1, 2, 2)))
        stats = ChannelStats(mean=np.zeros((1, 1)), std=np.ones((1, 1)))
        with pytest.raises(ValueError, match="alpha"):
            tradeoff_mix(f, stats, stats, alpha)


class TestStyleInterpolate:
    def test_endpoints(self):
        rng = np.random.default_rng(4)
        f = Tensor(rng.normal(size=(1, 3, 4, 4)))
        s1 = ChannelStats(mean=rng.normal(size=(1, 3)), std=rng.uniform(0.5, 2.0, (1, 3)))
        s2 = ChannelStats(mean=rng.normal(size=(1, 3)), std=rng.uniform(0.5, 2.0, (1, 3)))
        assert np.array_equal(style_interpolate(f, s1, s2, 0.0).data,
                              statistic_match(f, s1).data)
        assert np.array_equal(style_interpolate(f, s1, s2, 1.0).data,
                              statistic_match(f, s2).data)

    def test_midpoint_stats(self):
        rng = np.random.default_rng(5)
        f = Tensor(rng.normal(size=(1, 3, 5, 5)))
        s1 = ChannelStats(mean=rng.normal(size=(1, 3)), std=rng.uniform(0.5, 2.0, (1, 3)))
        s2 = ChannelStats(mean=rng.normal(size=(1, 3)), std=rng.uniform(0.5, 2.0, (1, 3)))
        mid = channel_stats(style_interpolate(f, s1, s2, 0.5))
        lo = channel_stats(style_interpolate(f, s1, s2, 0.0))
        hi = channel_stats(style_interpolate(f, s1, s2, 1.0))
        assert np.abs(mid.mean.data - 0.5 * (lo.mean.data + hi.mean.data)).max() <= 1e-9
        assert np.abs(mid.std.data - 0.5 * (lo.std.data + hi.std.data)).max() <= 1e-9


class TestContentLoss:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(1, 2, 3, 3))
        assert content_loss(Tensor(f), Tensor(f.copy())).item() == 0.0

    def test_hand_case(self):
        a = Tensor(np.zeros((1, 1, 1, 2)))
        b = Tensor(np.ones((1, 1, 1, 2)))
        assert content_loss(a, b).item() == 1.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            content_loss(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(300 + seed)
        a = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        b = rng.normal(size=(1, 2, 4, 4))

        def make_loss():
            return content_loss(a, Tensor(b))

        check_gradients(make_loss, [a], tol=1e-4)


class TestStyleLoss:
    def test_zero_on_identical_layers(self):
        rng = np.random.default_rng(7)
        layers = [Tensor(rng.normal(size=(1, 2, 3, 3))) for _ in range(3)]
        twins = [Tensor(l.data.copy()) for l in layers]
        assert style_loss(layers, twins).item() == 0.0

    def test_zero_under_spatial_permutation(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(1, 3, 2, 6))
        perm = rng.permutation(12)
        shuffled = f.reshape(1, 3, -1)[:, :, perm].reshape(1, 3, 2, 6)
        assert style_loss([Tensor(f)], [Tensor(shuffled)]).item() <= 1e-18

    def test_hand_case(self):
        gen = Tensor(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        sty = Tensor(np.zeros((1, 1, 1, 2)))
        ds = np.sqrt(1.0 + STAT_EPSILON) - np.sqrt(STAT_EPSILON)  # std 1 vs std 0, under epsilon
        assert style_loss([gen], [sty]).item() == 4.0 + ds * ds

    def test_rejects_layer_count_mismatch(self):
        layer = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="layers"):
            style_loss([layer], [layer, layer])

    def test_rejects_empty_layer_lists(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            style_loss([], [])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(400 + seed)
        gen = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        sty = rng.normal(size=(1, 2, 4, 4))

        def make_loss():
            return style_loss([gen], [Tensor(sty)])

        check_gradients(make_loss, [gen], tol=1e-4)


class TestTvLoss:
    def test_constant_image_is_zero(self):
        assert tv_loss(Tensor(np.full((1, 3, 4, 4), 0.7))).item() == 0.0

    def test_hand_case(self):
        image = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
        assert tv_loss(image).item() == 0.5

    def test_degenerate_single_pixel(self):
        assert tv_loss(Tensor(np.array([[[[3.0]]]]))).item() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(500 + seed)
        image = Tensor(rng.normal(size=(1, 2, 4, 5)), requires_grad=True)

        def make_loss():
            return tv_loss(image)

        check_gradients(make_loss, [image], tol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_keep_the_maps_dtype(dtype):
    """No float64 constant promotes a float32 loss (and through it every gradient)."""
    rng = np.random.default_rng(21)
    a, b, c = (Tensor(rng.normal(size=(1, 2, 4, 4)).astype(dtype)) for _ in range(3))
    assert content_loss(a, b).data.dtype == dtype
    assert style_loss([a, b], [c, a]).data.dtype == dtype
    assert tv_loss(a).data.dtype == dtype
    assert tv_loss(Tensor(np.ones((1, 1, 1, 1), dtype=dtype))).data.dtype == dtype


class TestTotalLoss:
    def test_all_zero_parts(self):
        z = Tensor(0.0)
        assert total_loss(z, z, z).item() == 0.0

    def test_default_weights_arithmetic(self):
        got = total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0))
        assert np.isclose(got.item(), 6.00001)


@pytest.fixture(scope="module")
def nst_net():
    return NstNet.initialize(NstConfig(), seed=1)


def _reference_encode(net, prefix, x, n_res):
    """``NstNet._encode`` with every map held whole, block by block."""
    sizes = []
    for i, (_, stride, _) in enumerate(net.config.conv_plan):
        if stride > 1:
            sizes.append((x.shape[2], x.shape[3]))
        x = net._conv_block(f"{prefix}.conv{i}", x, stride)
    for i in range(n_res):
        x = net._res_block(f"{prefix}.res{i}", x)
    return x, sizes


def _reference_decode(net, f, sizes):
    """``NstNet.decode`` with every map held whole, block by block."""
    out = f
    for i in range(net.config.n_content_res):
        out = net._res_block(f"decoder.res{i}", out, 0.0)
    for i, (h, w) in enumerate(reversed(sizes)):
        up = upsample_nearest(out, 2)
        out = relu(net._conv(f"decoder.up{i}", up if up.shape[2:] == (h, w)
                                     else up[:, :, :h, :w]))
    return net._conv("decoder.out", out)


class TestNstNet:
    def test_output_matches_content_size(self, nst_net):
        rng = np.random.default_rng(9)
        style = Tensor(rng.uniform(size=(1, 3, 32, 32)))
        content = Tensor(rng.uniform(size=(1, 3, 48, 40)))
        out = nst_net.forward(style, content)
        assert out.shape == (1, 3, 48, 40)

    def test_odd_sizes_round_trip(self, nst_net):
        rng = np.random.default_rng(10)
        content = Tensor(rng.uniform(size=(1, 3, 33, 37)))
        style = Tensor(rng.uniform(size=(1, 3, 21, 19)))
        assert nst_net.forward(style, content).shape == (1, 3, 33, 37)

    def test_decode_tapes_no_crop_at_even_sizes(self, nst_net, monkeypatch):
        """Under a Graph, even with 1-row bands asked for, the encoder and the
        decoder tape one whole-map band: the reference's ops, in its order."""
        monkeypatch.setattr(nst_mod, "BAND_ELEMENTS", 1)
        rng = np.random.default_rng(12)
        image = Tensor(rng.uniform(size=(1, 3, 32, 32)).astype(np.float32))
        mixed, sizes = nst_net.mix_features(image, nst_net.style_encode(image))
        tapes = {}
        for name, encode, decode in (
                ("banded", nst_net._encode, nst_net.decode),
                ("reference", functools.partial(_reference_encode, nst_net),
                 functools.partial(_reference_decode, nst_net))):
            graph = Graph()
            with graph:
                encode("content_enc", image, nst_net.config.n_content_res)
                decode(mixed, sizes)
            tapes[name] = [node.vjp.__qualname__.split(".")[0] for node in graph._nodes]
        assert tapes["banded"] == tapes["reference"]
        assert "upsample_nearest" in tapes["banded"] and "take" not in tapes["banded"]

    @pytest.mark.parametrize("config", [
        NstConfig(),
        NstConfig(conv_plan=((3, 2, 8), (3, 2, 16)), n_content_res=1),  # stride 2 first
        NstConfig(conv_plan=((5, 1, 6), (3, 1, 8), (1, 2, 12), (3, 2, 16)), n_content_res=1),
        NstConfig(conv_plan=((3, 1, 8),), n_content_res=1),  # stride-free: one stage each
        NstConfig(conv_plan=((3, 2, 8), (3, 2, 12), (3, 2, 16)), n_content_res=1),
    ])
    @pytest.mark.parametrize("shape", [(37, 29), (66, 64)])
    def test_banded_output_equals_the_whole_map_output(self, monkeypatch, config, shape):
        """1-row and few-row bands agree with one whole-map band, which is
        bitwise the reference that holds every map whole."""
        net = NstNet.initialize(config, seed=3)
        rng = np.random.default_rng(list(shape))
        style, content = (Tensor(rng.uniform(size=(2, 3) + shape).astype(np.float32))
                          for _ in range(2))
        mixed, sizes = net.mix_features(content, net.style_encode(style))
        f, _ = _reference_encode(net, "content_enc", content, config.n_content_res)
        reference = _reference_decode(net, mixed, sizes).data
        convs = []

        def counted(*args, **kwargs):
            convs.append(1)
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(nst_mod, "conv2d", counted)
        outputs = {}
        for band_elements in (1, 2000, 6000, 1 << 40):
            monkeypatch.setattr(nst_mod, "BAND_ELEMENTS", band_elements)
            convs.clear()
            f_got = net.content_encode(content)[0].data
            encode_convs = len(convs)
            outputs[band_elements] = (f_got, encode_convs, net.decode(mixed, sizes).data,
                                      len(convs) - encode_convs)
        whole_f, whole_encode_convs, whole, whole_decode_convs = outputs.pop(1 << 40)
        assert np.array_equal(whole_f, f.data) and np.array_equal(whole, reference)
        # with 1-row bands, the encoder's and the decoder's stages ran in more than one band
        assert outputs[1][1] > whole_encode_convs and outputs[1][3] > whole_decode_convs
        for got_f, _, got, _ in outputs.values():
            assert np.abs(got_f - whole_f).max() <= 1e-5 * np.abs(whole_f).max()
            assert np.abs(got - whole).max() <= 1e-5 * np.abs(whole).max()

    @pytest.mark.parametrize("px", [64, 65])
    def test_decode_equals_the_always_cropping_decoder(self, nst_net, monkeypatch, px):
        """Bitwise the output of a decoder that crops every upsampled map."""
        rng = np.random.default_rng(px)
        style = Tensor(rng.uniform(size=(1, 3, px, px)).astype(np.float32))
        content = Tensor(rng.uniform(size=(1, 3, px, px)).astype(np.float32))
        got = nst_net.forward(style, content).data
        monkeypatch.setattr("stylemix.nst._crop", lambda x, h, w: x[:, :, :h, :w])
        assert np.array_equal(got, nst_net.forward(style, content).data)

    @pytest.mark.parametrize("band_elements", [1, 1 << 40])
    @pytest.mark.parametrize("other", [(66, 64), (64, 66), (60, 64), (66, 66)])
    def test_decode_refuses_the_sizes_of_another_image(self, nst_net, monkeypatch,
                                                        band_elements, other):
        """Features of a 64 px image with the sizes of an image whose x2 chain ends
        elsewhere (66 -> 33 -> 17, not 16): refused, at 1-row and whole-map bands,
        instead of an image with rows no band wrote."""
        monkeypatch.setattr(nst_mod, "BAND_ELEMENTS", band_elements)
        rng = np.random.default_rng(13)
        f, sizes = nst_net.content_encode(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32))
        _, wrong = nst_net.content_encode(rng.uniform(size=(1, 3) + other).astype(np.float32))
        assert nst_net.decode(f, sizes).shape == (1, 3, 64, 64)
        with pytest.raises(ShapeError, match="sizes"):
            nst_net.decode(f, wrong)

    def test_deterministic(self, nst_net):
        rng = np.random.default_rng(11)
        style = Tensor(rng.uniform(size=(1, 3, 24, 24)))
        content = Tensor(rng.uniform(size=(1, 3, 24, 24)))
        a = nst_net.forward(style, content)
        b = nst_net.forward(Tensor(style.data.copy()), Tensor(content.data.copy()))
        assert np.array_equal(a.data, b.data)

    def test_identity_path_through_mixing(self, nst_net):
        """Forcing the target stats to the content's own stats is a no-op mix."""
        rng = np.random.default_rng(12)
        content = Tensor(rng.uniform(size=(1, 3, 24, 24)))
        f, _ = nst_net.content_encode(content)
        mixed = statistic_match(f, channel_stats(f))
        assert np.abs(mixed.data - f.data).max() <= 1e-9

    def test_rejects_undersized_images(self, nst_net):
        with pytest.raises(ShapeError, match="downsampling"):
            nst_net.forward(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_state_round_trip(self, nst_net):
        rng = np.random.default_rng(13)
        style = Tensor(rng.uniform(size=(1, 3, 16, 16)))
        content = Tensor(rng.uniform(size=(1, 3, 16, 16)))
        want = nst_net.forward(style, content)
        rebuilt = NstNet.from_state(nst_net.state_arrays())
        assert np.array_equal(rebuilt.forward(style, content).data, want.data)

    def test_from_state_draws_no_random_weights(self, monkeypatch):
        net = NstNet.initialize(CUSTOM_NST, seed=2)

        def no_rng(*args, **kwargs):
            raise AssertionError("from_state drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        state = net.state_arrays()
        rebuilt = NstNet.from_state(state).state_arrays()
        assert rebuilt.keys() == state.keys()
        assert all(np.array_equal(rebuilt[name], state[name]) for name in state)

    @pytest.mark.parametrize("through_file", [False, True])
    def test_whole_config_round_trips(self, tmp_path, through_file):
        state = NstNet.initialize(CUSTOM_NST, seed=2).state_arrays()
        rebuilt = NstNet.from_state(_through_file(state, tmp_path, through_file))
        assert rebuilt.config == CUSTOM_NST
        for name, tensor in rebuilt.params.items():  # float32 weights are bit-exact in the file
            assert tensor.data.dtype == np.float32, name
            assert tensor.data.tobytes() == state[name].tobytes(), name

    def test_forward_at_256_px_holds_no_throwaway_copies(self, nst_net):
        rng = np.random.default_rng(18)
        style = rng.uniform(size=(1, 3, 256, 256))
        content = rng.uniform(size=(1, 3, 256, 256))
        tracemalloc.start()
        try:
            nst_net.forward_interpolate(content, style, content, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6  # with padded inputs and doubled activations: 47 MB

    def test_tradeoff_alpha_sweep_is_continuous(self, nst_net):
        rng = np.random.default_rng(14)
        style = Tensor(rng.uniform(size=(1, 3, 24, 24)))
        content = Tensor(rng.uniform(size=(1, 3, 24, 24)))
        alphas = np.linspace(0.0, 1.0, 21)
        outputs = [nst_net.forward_interpolate(content, style, content, float(a)).data
                   for a in alphas]
        assert all(np.isfinite(o).all() for o in outputs)
        jumps = [np.abs(b - a).max() for a, b in zip(outputs[:-1], outputs[1:])]
        assert max(jumps) <= 5.0 * np.median(jumps) + 1e-9


@pytest.fixture(scope="module")
def nets_by_dtype():
    """The same checkpoint-precision weights as a float32 net and a copy cast to float64."""
    state = NstNet.initialize(NstConfig(), seed=0).state_arrays()
    net64 = NstNet.from_state(state)
    for tensor in net64.params.values():
        tensor.data = tensor.data.astype(np.float64)
    return {np.float32: NstNet.from_state(state), np.float64: net64}


@pytest.fixture(scope="module")
def float32_peak_at_256_px(nets_by_dtype):
    """The traced peak, in bytes, of one float32 ``forward_interpolate`` at 256 px."""
    rng = np.random.default_rng(18)
    style = Tensor(rng.uniform(size=(1, 3, 256, 256)).astype(np.float32))
    content = Tensor(rng.uniform(size=(1, 3, 256, 256)).astype(np.float32))
    tracemalloc.start()
    try:
        nets_by_dtype[np.float32].forward_interpolate(content, style, content, 0.7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFloat32Inference:
    """Float32 weights and images run the whole NST forward in float32."""

    def test_from_state_keeps_float32_weights(self, nets_by_dtype):
        """Float32 and float64 arrays of the same weights load as one float32 net."""
        net = nets_by_dtype[np.float32]
        wide = {name: np.asarray(a, dtype=np.float64)
                for name, a in net.state_arrays().items()}
        for loaded in (NstNet.from_state(net.state_arrays()), NstNet.from_state(wide)):
            assert loaded.dtype == np.float32
            for (name, a), b in zip(loaded.params.items(), net.params.values()):
                assert a.data.dtype == np.float32, name
                assert a.data.tobytes() == b.data.tobytes(), name
        assert {t.data.dtype for t in nets_by_dtype[np.float64].params.values()} == {
            np.dtype(np.float64)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixing_ops_keep_dtype(self, nets_by_dtype, dtype):
        rng = np.random.default_rng(4)
        net = nets_by_dtype[dtype]
        image = Tensor(rng.uniform(size=(1, 3, 16, 16)).astype(dtype))
        stats = net.style_encode(image)
        f, _ = net.content_encode(image)
        assert stats.mean.data.dtype == dtype and stats.std.data.dtype == dtype
        assert statistic_match(f, stats).data.dtype == dtype
        assert style_interpolate(f, stats, channel_stats(f), 0.3).data.dtype == dtype

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("px", [64, 256])
    @pytest.mark.parametrize("path", ["tradeoff", "interpolate"])
    def test_float32_output_agrees_with_float64(self, nets_by_dtype, seed, px, path):
        rng = np.random.default_rng([seed, px])
        images = [rng.uniform(size=(1, 3, px, px)) for _ in range(3)]

        def run(dtype):
            style, style2, content = (Tensor(im.astype(dtype)) for im in images)
            net = nets_by_dtype[dtype]
            if path == "tradeoff":
                return net.forward_interpolate(content, style, content, 0.6).data
            return net.forward_interpolate(style, style2, content, 0.4).data

        got, want = run(np.float32), run(np.float64)
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 5e-4
        levels = np.abs(netpbm.quantize(got).astype(int) - netpbm.quantize(want).astype(int))
        assert np.count_nonzero(levels) <= 1e-3 * levels.size
        assert levels.max() <= 1

    def test_forward_at_256_px_in_float32_halves_the_peak(self, float32_peak_at_256_px):
        # 7.5 MB measured; the same forward in float64: 14.9 MB
        assert float32_peak_at_256_px <= 28e6

    def test_forward_at_256_px_streams_its_full_resolution_layers(self, float32_peak_at_256_px):
        """Row bands bound the traced peak of the 256 px forward: 15.4 MiB with
        every full-resolution map held whole, 7.1 MiB measured in bands."""
        assert float32_peak_at_256_px <= 10 * 2 ** 20

    def test_forward_at_256_px_streams_every_resolution_stage(self, float32_peak_at_256_px):
        """8.4 MiB traced with the half-resolution encoder stage and the first
        up block held whole, 7.1 MiB measured with every stage in bands."""
        assert float32_peak_at_256_px <= 7.5 * 2 ** 20


class TestNstConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(conv_plan=((3, 0, 16),)),
        dict(conv_plan=((4, 1, 16),)),
        dict(conv_plan=((0, 1, 16),)),
        dict(conv_plan=((3, 1, 0),)),
        dict(conv_plan=((3, 1),)),
        dict(conv_plan=()),
        dict(n_content_res=-1),
        # the decoder inverts a stride by one x2 upsampling: 27 px would decode to 18 or 14
        dict(conv_plan=((3, 1, 16), (3, 3, 32))),
        dict(conv_plan=((3, 4, 16),)),
    ])
    def test_rejects_invalid_plan(self, kwargs):
        with pytest.raises(ValueError):
            NstConfig(**kwargs)

    @pytest.mark.parametrize("meta", [
        [3, 3, 1],
        [1, 3, 1, 16, 1, 4],
        [0, 1, 4, 3],
        [-1],
        [np.inf, 3, 1, 16, 1, 4, 3],
        [1, 3, 0, 4, 1, 4, 3],
    ])
    def test_from_state_rejects_malformed_meta(self, meta):
        state = NstNet.initialize(NstConfig(conv_plan=((3, 1, 4),)), seed=0).state_arrays()
        state["meta.nst"] = np.array(meta, dtype=np.float64)
        with pytest.raises(ValueError):
            NstNet.from_state(state)

    @pytest.mark.parametrize("change", [
        dict(conv_plan=[[3, 1, 4.5]]),
        dict(conv_plan=[3, 1, 4]),
        dict(conv_plan=[[3, 1]]),
        dict(n_content_res=1.0),
        dict(conv_plan="((3, 1, 4),)"),
    ])
    def test_from_state_rejects_wrong_typed_record(self, change):
        net = NstNet.initialize(NstConfig(conv_plan=((3, 1, 4),)), seed=0)
        state = net.state_arrays()
        fields = {**dataclasses.asdict(net.config), **change}
        state["meta.nst"] = np.frombuffer(json.dumps(fields).encode("utf-8"),
                                          dtype=np.uint8).astype(np.float64)
        with pytest.raises(ValueError, match="meta.nst"):
            NstNet.from_state(state)


class TestFeatureExtractor:
    def test_tap_count_and_shapes(self):
        extractor = FeatureExtractor(seed=0)
        rng = np.random.default_rng(15)
        taps = extractor.taps(rng.uniform(size=(1, 3, 32, 32)))
        assert len(taps) == 4
        assert [t.shape[1] for t in taps] == [8, 16, 32, 64]
        assert [t.shape[2] for t in taps] == [16, 8, 4, 2]

    def test_seeded_and_deterministic(self):
        rng = np.random.default_rng(16)
        image = rng.uniform(size=(1, 3, 16, 16))
        a = FeatureExtractor(seed=5).taps(image)
        b = FeatureExtractor(seed=5).taps(image)
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
        c = FeatureExtractor(seed=6).taps(image)
        assert not np.allclose(a[0].data, c[0].data)

    def test_weights_are_frozen(self):
        extractor = FeatureExtractor(seed=0)
        loaded = FeatureExtractor.from_state(extractor.state_arrays())
        for built in (extractor, loaded):
            assert all(not t.requires_grad for t in built.params.values())

    def test_weights_and_taps_are_float32(self):
        extractor = FeatureExtractor(seed=0)
        wide = {name: np.asarray(a, dtype=np.float64)
                for name, a in extractor.state_arrays().items()}
        loaded = FeatureExtractor.from_state(wide)
        for built in (extractor, loaded):
            assert built.dtype == np.float32
            assert {t.data.dtype for t in built.params.values()} == {np.dtype(np.float32)}
        image = np.random.default_rng(19).uniform(size=(1, 3, 16, 16))  # float64
        assert {t.data.dtype for t in loaded.taps(image)} == {np.dtype(np.float32)}

    def test_state_round_trip(self):
        extractor = FeatureExtractor(seed=3)
        rng = np.random.default_rng(17)
        image = rng.uniform(size=(1, 3, 16, 16))
        want = extractor.taps(image)[-1]
        loaded = FeatureExtractor.from_state(extractor.state_arrays())
        got = loaded.taps(image)[-1]
        assert np.array_equal(want.data, got.data)
        assert loaded.config == extractor.config

    def test_from_state_draws_no_random_weights(self, monkeypatch):
        state = FeatureExtractor(CUSTOM_EXTRACTOR, seed=2).state_arrays()

        def no_rng(*args, **kwargs):
            raise AssertionError("from_state drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = FeatureExtractor.from_state(state)
        rebuilt = loaded.state_arrays()
        assert loaded.config == CUSTOM_EXTRACTOR
        assert rebuilt.keys() == state.keys()
        assert all(np.array_equal(rebuilt[name], state[name]) for name in state)

    @pytest.mark.parametrize("through_file", [False, True])
    def test_whole_config_round_trips(self, tmp_path, through_file):
        state = FeatureExtractor(CUSTOM_EXTRACTOR, seed=2).state_arrays()
        loaded = FeatureExtractor.from_state(_through_file(state, tmp_path, through_file))
        assert loaded.config == CUSTOM_EXTRACTOR

    def test_from_state_rejects_unexpected_tensor(self):
        state = FeatureExtractor(seed=0).state_arrays()
        state["bogus"] = np.zeros(3)
        with pytest.raises(ValueError, match="bogus"):
            FeatureExtractor.from_state(state)

    def test_custom_stage_plan(self):
        config = ExtractorConfig(stage_channels=(4, 8))
        taps = FeatureExtractor(config, seed=0).taps(np.zeros((1, 3, 8, 8)))
        assert len(taps) == 2

    @pytest.mark.parametrize("kwargs", [
        dict(stage_channels=()),
        dict(stage_channels=(8, 0)),
    ])
    def test_config_rejects_invalid_plan(self, kwargs):
        with pytest.raises(ValueError):
            ExtractorConfig(**kwargs)

    @pytest.mark.parametrize("meta", [
        [3, 2],
        [3, 2, 3],
        [3, 0, 3, 8, 16, 32, 64],
        [3, 2, 3, np.nan, 16, 32, 64],
    ])
    def test_from_state_rejects_malformed_meta(self, meta):
        state = FeatureExtractor(seed=0).state_arrays()
        state["meta.extractor"] = np.array(meta, dtype=np.float64)
        with pytest.raises(ValueError):
            FeatureExtractor.from_state(state)

    def test_from_state_rejects_missing_tensor(self):
        state = FeatureExtractor(seed=0).state_arrays()
        del state["stage3.bias"]
        with pytest.raises(ValueError, match="stage3.bias"):
            FeatureExtractor.from_state(state)


class TestObjective:
    def test_parts_are_nonnegative_and_finite(self, nst_net):
        rng = np.random.default_rng(18)
        extractor = FeatureExtractor(seed=0)
        style = rng.uniform(size=(1, 3, 24, 24))
        content = rng.uniform(size=(1, 3, 24, 24))
        generated = nst_net.forward(Tensor(style), Tensor(content))
        total, (lc, ls, ltv) = nst_objective(extractor, generated, content, style)
        for part in (lc, ls, ltv, total):
            assert np.isfinite(part.item())
            assert part.item() >= 0.0
        assert np.isclose(total.item(),
                          lc.item() + 5.0 * ls.item() + 1e-5 * ltv.item())
