"""Typeface network: shape propagation, skip handling, determinism."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from stylemix.autodiff import ShapeError, Tensor
from stylemix.fontnet import (
    CheckpointError,
    FontNet,
    FontNetConfig,
    SeededInit,
    ShapeInit,
    config_record,
)
from stylemix.nst import ExtractorConfig, FeatureExtractor, NstConfig, NstNet
from stylemix.training import load_checkpoint, save_checkpoint

CUSTOM_FONT = FontNetConfig(image_size=16, base_channels=2, ref_count=2)
FONT_FIELDS = dataclasses.asdict(FontNetConfig())


def _record(fields) -> np.ndarray:
    """A config record holding arbitrary JSON."""
    return np.frombuffer(json.dumps(fields).encode("utf-8"), dtype=np.uint8).astype(np.float64)


class TestConfig:
    def test_spatial_chain_power_of_two(self):
        config = FontNetConfig(image_size=64)
        assert config.spatial_sizes == (64, 32, 16, 8, 4, 2, 1)
        assert config.depth == 7

    def test_spatial_chain_80(self):
        config = FontNetConfig(image_size=80)
        assert config.spatial_sizes == (80, 40, 20, 10, 5, 3, 2, 1)
        assert config.depth == 8

    def test_channel_sequences(self):
        config = FontNetConfig(image_size=64, base_channels=16)
        assert config.encoder_channels == (16, 32, 64, 128, 128, 128, 128)
        assert config.decoder_channels == (128, 128, 128, 64, 32, 16)
        assert config.code_dim == 128

    def test_channel_sequences_80(self):
        config = FontNetConfig(image_size=80, base_channels=64)
        assert config.encoder_channels == (64, 128, 256, 512, 512, 512, 512, 512)
        assert config.decoder_channels == (512, 512, 512, 512, 256, 128, 64)

    def test_rejects_unsupported_sizes(self):
        with pytest.raises(ValueError, match="image_size"):
            FontNetConfig(image_size=48)

    def test_mixer_tensor_is_cubic_in_code_dim(self):
        config = FontNetConfig(image_size=16, base_channels=4, ref_count=2)
        net = FontNet.initialize(config)
        assert net.params["mixer.tensor"].shape == (config.code_dim,) * 3


class TestNetworkParams:
    def test_names_unique(self):
        net = FontNet.initialize(FontNetConfig(image_size=8, base_channels=2, ref_count=2))
        with pytest.raises(ValueError, match="duplicate"):
            net._add("mixer.tensor", np.zeros(2, dtype=np.float32))

    def test_every_tensor_requires_grad(self):
        net = FontNet.initialize(FontNetConfig(image_size=8, base_channels=2, ref_count=2))
        assert all(t.requires_grad for t in net.params.values())


@pytest.fixture(scope="module")
def micro_net():
    return FontNet.initialize(
        FontNetConfig(image_size=16, base_channels=4, ref_count=2), seed=3
    )


def _refs(rng, r=2, size=16, batch=1):
    return Tensor(rng.uniform(0.0, 1.0, size=(batch, r, size, size)))


class TestStyleEncode:
    def test_identical_sets_give_identical_codes(self, micro_net):
        rng = np.random.default_rng(0)
        x = _refs(rng)
        a = micro_net.style_encode(x)
        b = micro_net.style_encode(Tensor(x.data.copy()))
        assert np.array_equal(a.data, b.data)

    def test_reference_order_matters_in_general(self, micro_net):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(1, 2, 16, 16))
        a = micro_net.style_encode(Tensor(x))
        b = micro_net.style_encode(Tensor(x[:, ::-1]))
        assert not np.allclose(a.data, b.data)

    def test_code_shape_is_eight_c_at_64(self):
        net = FontNet.initialize(FontNetConfig(image_size=64, base_channels=16, ref_count=4))
        rng = np.random.default_rng(2)
        code = net.style_encode(Tensor(rng.uniform(size=(1, 4, 64, 64))))
        assert code.shape == (1, 128)

    def test_rejects_wrong_reference_count(self, micro_net):
        with pytest.raises(ShapeError, match="reference input"):
            micro_net.style_encode(Tensor(np.zeros((1, 3, 16, 16))))

    def test_rejects_wrong_image_size(self, micro_net):
        with pytest.raises(ShapeError, match="reference input"):
            micro_net.style_encode(Tensor(np.zeros((1, 2, 8, 8))))


class TestContentEncode:
    def test_skip_stack_length_and_sizes(self, micro_net):
        rng = np.random.default_rng(3)
        code, skips = micro_net.content_encode(_refs(rng))
        config = micro_net.config
        assert len(skips) == config.depth - 1
        sizes = [s.shape[2] for s in skips]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes == list(config.spatial_sizes[:-1])
        assert code.shape == (1, config.code_dim)

    def test_identical_refs_identical_skips(self, micro_net):
        rng = np.random.default_rng(4)
        x = _refs(rng)
        _, a = micro_net.content_encode(x)
        _, b = micro_net.content_encode(Tensor(x.data.copy()))
        assert all(np.array_equal(s.data, t.data) for s, t in zip(a, b))


class TestDecode:
    def test_output_shape_and_range(self, micro_net):
        rng = np.random.default_rng(5)
        style = micro_net.style_encode(_refs(rng))
        content, skips = micro_net.content_encode(_refs(rng))
        image = micro_net.decode(micro_net.mix(style, content), skips)
        assert image.shape == (1, 1, 16, 16)
        assert (image.data > 0.0).all() and (image.data < 1.0).all()

    def test_rejects_wrong_skip_count(self, micro_net):
        rng = np.random.default_rng(7)
        style = micro_net.style_encode(_refs(rng))
        content, skips = micro_net.content_encode(_refs(rng))
        with pytest.raises(ShapeError, match="skip"):
            micro_net.decode(micro_net.mix(style, content), skips[:-1])

    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("change", ["batch", "size"])
    def test_rejects_a_skip_of_another_batch_or_size(self, micro_net, index, change):
        """A skip whose batch or spatial size differs from the decoder map it
        joins is refused where the two are concatenated."""
        rng = np.random.default_rng(8)
        style = micro_net.style_encode(_refs(rng))
        content, skips = micro_net.content_encode(_refs(rng))
        skip = skips[index].data
        skips[index] = Tensor(np.concatenate([skip, skip]) if change == "batch"
                              else np.pad(skip, ((0, 0), (0, 0), (0, 2), (0, 2))))
        with pytest.raises(ShapeError, match="concat_channels"):
            micro_net.decode(micro_net.mix(style, content), skips)


class TestForwardGenerate:
    def test_deterministic(self, micro_net):
        rng = np.random.default_rng(8)
        sx, cx = _refs(rng), _refs(rng)
        a = micro_net.forward_generate(sx, cx)
        b = micro_net.forward_generate(Tensor(sx.data.copy()), Tensor(cx.data.copy()))
        assert np.array_equal(a.data, b.data)

    def test_swapping_roles_changes_the_output(self, micro_net):
        rng = np.random.default_rng(9)
        sx, cx = _refs(rng), _refs(rng)
        a = micro_net.forward_generate(sx, cx)
        b = micro_net.forward_generate(cx, sx)
        assert not np.allclose(a.data, b.data)

    def test_batched_forward(self, micro_net):
        rng = np.random.default_rng(10)
        out = micro_net.forward_generate(_refs(rng, batch=3), _refs(rng, batch=3),
                                         mode="train")
        assert out.shape == (3, 1, 16, 16)

    def test_80px_forward(self):
        net = FontNet.initialize(FontNetConfig(image_size=80, base_channels=2, ref_count=2))
        rng = np.random.default_rng(11)
        out = net.forward_generate(_refs(rng, size=80), _refs(rng, size=80))
        assert out.shape == (1, 1, 80, 80)


class TestGenerateFromRefs:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_batch_equals_stacked_single_items(self, micro_net, batch):
        """[B, r, H, W] per role gives [B, H, W]; a list of r [H, W] images gives [H, W]."""
        rng = np.random.default_rng(13 + batch)
        style, content = _refs(rng, batch=batch).data, _refs(rng, batch=batch).data
        got = micro_net.generate_from_refs(style, content)
        want = np.stack([micro_net.generate_from_refs(list(s), list(c))
                         for s, c in zip(style, content)])
        assert got.shape == want.shape == (batch, 16, 16)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("style_shape,content_shape", [
        ((16, 16), (16, 16)),  # one image, no reference axis
        ((1, 1, 2, 16, 16), (1, 1, 2, 16, 16)),
        ((2, 16, 16), (1, 2, 16, 16)),  # one item against a batch
        ((2, 2, 16, 16), (3, 2, 16, 16)),  # batch sizes differ
    ])
    def test_rejects_rank_and_batch_mismatch(self, micro_net, style_shape, content_shape):
        with pytest.raises(ShapeError):
            micro_net.generate_from_refs(np.zeros(style_shape), np.zeros(content_shape))


class TestStateRoundTrip:
    def test_rebuild_reproduces_outputs(self, micro_net):
        rng = np.random.default_rng(12)
        sx, cx = _refs(rng), _refs(rng)
        want = micro_net.forward_generate(sx, cx)
        rebuilt = FontNet.from_state(micro_net.state_arrays())
        got = rebuilt.forward_generate(sx, cx)
        assert np.array_equal(want.data, got.data)

    def test_from_state_draws_no_random_weights(self, monkeypatch):
        net = FontNet.initialize(CUSTOM_FONT, seed=4)

        def no_rng(*args, **kwargs):
            raise AssertionError("from_state drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        state = net.state_arrays()
        rebuilt = FontNet.from_state(state).state_arrays()
        assert rebuilt.keys() == state.keys()
        assert all(np.array_equal(rebuilt[name], state[name]) for name in state)

    def test_rejects_mismatched_tensor_set(self, micro_net):
        state = dict(micro_net.state_arrays())
        state.pop("mixer.tensor")
        with pytest.raises(ValueError, match="missing"):
            FontNet.from_state(state)

    def test_rejects_non_font_checkpoint(self):
        with pytest.raises(ValueError, match="meta.font"):
            FontNet.from_state({"weights": np.zeros(3)})

    @pytest.mark.parametrize("through_file", [False, True])
    def test_whole_config_round_trips(self, tmp_path, through_file):
        net = FontNet.initialize(CUSTOM_FONT, seed=4)
        state = net.state_arrays()
        if through_file:  # the float32 file path
            save_checkpoint(tmp_path / "font.ckpt", state)
            state = load_checkpoint(tmp_path / "font.ckpt")
        rebuilt = FontNet.from_state(state)
        assert rebuilt.config == CUSTOM_FONT
        rng = np.random.default_rng(19)
        sx, cx = _refs(rng), _refs(rng)
        want = net.forward_generate(sx, cx).data
        assert np.abs(rebuilt.forward_generate(sx, cx).data - want).max() <= 1e-6

    def test_rejects_wrong_shaped_buffer(self, micro_net):
        state = micro_net.state_arrays()
        state["style_enc.0.run_mean"] = np.zeros(7)
        with pytest.raises(ValueError, match="style_enc.0.run_mean"):
            FontNet.from_state(state)

    @pytest.mark.parametrize("record", [
        pytest.param(np.array([300.0]), id="above-255"),
        pytest.param(np.array([-1.0]), id="negative"),
        pytest.param(np.array([123.5]), id="fractional"),
        pytest.param(np.array([np.inf]), id="inf"),
        pytest.param(np.array([np.nan]), id="nan"),
        pytest.param(np.full((2, 2), 123.0), id="not-1d"),
        pytest.param(np.array([0xFF, 0xFE, 0x7B]), id="invalid-utf8"),
        pytest.param(_record(FONT_FIELDS)[:-1], id="invalid-json"),
        pytest.param(_record(list(FONT_FIELDS.values())), id="json-list"),
        pytest.param(_record({k: v for k, v in FONT_FIELDS.items() if k != "ref_count"}),
                     id="missing-field"),
        pytest.param(_record({**FONT_FIELDS, "dropout": 0.5}), id="unknown-field"),
        # the architecture settings a FontNet record held before they became constants
        pytest.param(_record({**FONT_FIELDS, "bn_momentum": 0.1, "bn_epsilon": 1e-5,
                              "leaky_slope": 0.2, "init_std": 0.02}), id="retired-fields"),
        pytest.param(_record({**FONT_FIELDS, "image_size": "64"}), id="string-int"),
        pytest.param(_record({**FONT_FIELDS, "base_channels": 2.5}), id="float-int"),
        pytest.param(_record({**FONT_FIELDS, "ref_count": True}), id="bool-int"),
        pytest.param(_record({**FONT_FIELDS, "image_size": 24}), id="invalid-config"),
    ])
    def test_rejects_malformed_record(self, micro_net, record):
        state = micro_net.state_arrays()
        state["meta.font"] = record
        with pytest.raises(ValueError, match="meta.font"):
            FontNet.from_state(state)


@pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])  # 1e39 overflows float32
def test_every_model_rejects_a_state_not_finite_in_float32(value):
    for model in (FontNet.initialize(CUSTOM_FONT), NstNet.initialize(NstConfig()),
                  FeatureExtractor()):
        state = {name: np.array(a, dtype=np.float64) for name, a in model.state_arrays().items()}
        name = list(model.params)[-1]
        state[name].flat[0] = value
        with pytest.raises(CheckpointError, match=repr(name)):
            type(model).from_state(state)


def test_every_model_refuses_a_huge_record_without_allocating_it():
    """A record describing tensors of over 2**47 bytes fails the shape check; the
    placeholders built to compare shapes take no memory."""
    cases = (
        (FontNet.initialize(CUSTOM_FONT), dataclasses.replace(CUSTOM_FONT, base_channels=100000)),
        (NstNet.initialize(NstConfig()), NstConfig(conv_plan=((3, 1, 16), (3, 2, 32),
                                                              (101, 2, 2 ** 16)))),
        (FeatureExtractor(), ExtractorConfig(stage_channels=(8, 16, 2 ** 22, 2 ** 22))),
    )
    for model, huge in cases:
        placeholders = type(model)._build(huge, ShapeInit(model.record_key))
        shapes = [t.shape for t in placeholders.params.values()]
        assert 4 * sum(float(np.prod(shape, dtype=np.float64)) for shape in shapes) > 2 ** 47
        state = model.state_arrays()
        state[model.record_key] = config_record(huge)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="has shape"):
                type(model).from_state(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, type(model).__name__


class _WholeDraw(SeededInit):
    """The whole-tensor draw, rounded to float32 once: the reference for SeededInit."""

    def normal(self, shape, std):
        return self.rng.normal(0.0, std, size=shape).astype(np.float32)


class TestWeightDraw:
    @pytest.mark.parametrize("shape", [(7,), (0, 3), (5, 4), (6, 3, 5, 5), (9, 9, 9)])
    def test_sliced_draw_equals_the_whole_draw(self, shape):
        draw = SeededInit(np.random.default_rng(3)).normal
        whole = _WholeDraw(np.random.default_rng(3)).normal
        for std in (0.02, 1.5):  # consecutive draws continue one stream
            got = draw(shape, std)
            assert got.dtype == np.float32
            assert got.tobytes() == whole(shape, std).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 809])
    def test_initial_weights_are_the_whole_draw_rounded_once(self, seed):
        """FontNet, NstNet and FeatureExtractor draw rng.normal(0, std, shape) in float32."""
        for config in (FontNetConfig(), CUSTOM_FONT):
            got = FontNet.initialize(config, seed=seed).state_arrays()
            want = FontNet._build(config, _WholeDraw(np.random.default_rng([809, seed])))
            for name, array in want.state_arrays().items():
                assert array.tobytes() == got[name].tobytes(), name
        got = NstNet.initialize(NstConfig(), seed=seed).state_arrays()
        want = NstNet._build(NstConfig(), _WholeDraw(np.random.default_rng([811, seed])))
        for name, array in want.state_arrays().items():
            assert array.tobytes() == got[name].tobytes(), name
        got = FeatureExtractor(ExtractorConfig(), seed=seed).state_arrays()
        want = FeatureExtractor._build(ExtractorConfig(),
                                       _WholeDraw(np.random.default_rng([813, seed])))
        for name, array in want.state_arrays().items():
            assert array.tobytes() == got[name].tobytes(), name

    def test_initialize_holds_no_float64_weight(self):
        """The default net's tracemalloc peak stays within 1.1x its float32 bytes.

        Drawing each tensor whole in float64 first peaked at about 2x: the
        128^3 mixer alone is a 16 MiB float64 draw."""
        tracemalloc.start()
        try:
            net = FontNet.initialize(FontNetConfig(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(p.data.nbytes for p in net.params.values())
        assert peak <= 1.1 * nbytes
