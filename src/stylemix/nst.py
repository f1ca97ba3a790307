"""Statistic-matching style transfer: stats math, losses, and the networks.

Style is carried by per-channel feature statistics. The content encoder
produces a feature map; the style encoder regresses a (mean, std) vector per
channel; mixing re-normalizes the content features to carry the target
statistics; the decoder maps the mixed features back to an image whose (h, w)
it is given. Each stage hands the next one map. Losses compare feature maps
and their statistics through a fixed feature extractor.

Both networks take RGB images; the CLI stacks a grayscale image into three
channels. The loss extractor here is a seeded, randomly initialized four-stage
convolutional network (taps after every stage, content tap at the last); a
pretrained extractor in the project checkpoint format loads in its place
through ``FeatureExtractor.from_state``, provided its stages are 3x3,
stride-2 convolutions over RGB.

The encoders and the decoder run stage by stage: an encoder stage is a run
of ``conv_plan`` blocks that ends at a stride-2 block or at the plan's end,
and a decoder stage is one up block, the output conv joining the last. When
no ``Graph`` is active, each stage runs patch by patch in row bands (as in
MCUNetV2, arXiv 2110.15352): every band reads its halo rows from its
neighbours and writes its rows straight into the stage's output, so no map
inside a stage is held whole, and the 256 px float32 forward's traced peak
is 7.1 MiB (15.4 MiB with every map whole). Residual blocks run whole. The
output is the whole-map output up to BLAS rounding: where a band splits a
conv GEMM's columns differently, an element can round differently (by about
1e-6, seen at some odd widths).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stylemix.autodiff import (
    ChannelStats,
    ShapeError,
    Tensor,
    _graph_stack,
    as_tensor,
    conv2d,
    fully_connected,
    global_avg_pool,
    leaky_relu,
    relu,
    sqrt,
    upsample_nearest,
)
from stylemix.fontnet import Model, SeededInit

STAT_EPSILON = 1e-8  # added to every channel's variance under the root
IMAGE_CHANNELS = 3  # RGB, the input and output of NstNet and FeatureExtractor
N_STYLE_RES = 1  # residual blocks after the style encoder's conv_plan
# elements, not bytes, per row band of a stage's widest map:
# 1 MiB in float32, 2 MiB in float64 (see _in_bands)
BAND_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# channel statistics and mixing
# ---------------------------------------------------------------------------


def channel_stats(f: Tensor) -> ChannelStats:
    """Spatial mean and population std per (batch, channel) of a [B,C,H,W] map.

    ``STAT_EPSILON`` is added under the square root, so a constant channel
    has std 1e-4, not 0, and its std's gradient stays finite.
    """
    f = as_tensor(f)
    if f.ndim != 4:
        raise ShapeError(f"channel_stats expects a [B,C,H,W] map, got {f.shape}")
    mean = f.mean(axis=(2, 3))  # [B, C]
    centered = f - mean.reshape(f.shape[0], f.shape[1], 1, 1)
    var = (centered * centered).mean(axis=(2, 3))
    return ChannelStats(mean=mean, std=sqrt(var + STAT_EPSILON))


def _stat_plane(value, channels: int, name: str) -> Tensor:
    """Lift a [B,C] stat vector (Tensor or array) to a [B,C,1,1] tensor."""
    t = as_tensor(value)
    if t.ndim != 2:
        raise ShapeError(f"{name}: stat vector must be [B,C], got {t.shape}")
    if t.shape[1] != channels:
        raise ShapeError(f"{name}: expected {channels} channels, got {t.shape[1]}")
    return t.reshape(t.shape[0], channels, 1, 1)


def statistic_match(f_con: Tensor, target: ChannelStats) -> Tensor:
    """Re-normalize content features to carry the target per-channel stats.

    out = (f - mean(f)) / std(f) * target.std + target.mean, computed per
    channel across spatial positions; ``channel_stats``' ``STAT_EPSILON``
    guards the denominator, so constant channels map to the target mean.
    """
    f_con = as_tensor(f_con)
    own = channel_stats(f_con)
    c = f_con.shape[1]
    mean_t = _stat_plane(target.mean, c, "statistic_match target mean")
    std_t = _stat_plane(target.std, c, "statistic_match target std")
    mean_o = own.mean.reshape(f_con.shape[0], c, 1, 1)
    std_o = own.std.reshape(f_con.shape[0], c, 1, 1)
    return (f_con - mean_o) / std_o * std_t + mean_t


def style_interpolate(f_con: Tensor, stats1: ChannelStats, stats2: ChannelStats,
                      alpha: float) -> Tensor:
    """Statistic match against a (1-alpha) stats1 / alpha stats2 blend of both
    the means and the stds; with the content's own stats as stats1, alpha 0
    keeps its style and 1 fully stylizes."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")

    def blend(a, b):
        return as_tensor(a) * (1.0 - alpha) + as_tensor(b) * alpha

    return statistic_match(f_con, ChannelStats(mean=blend(stats1.mean, stats2.mean),
                                               std=blend(stats1.std, stats2.std)))


# kept by name: perfbench/tracer.py wraps it, and the benchmark's smoke test fails without it
tradeoff_mix = style_interpolate


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def content_loss(f_gen: Tensor, f_con: Tensor) -> Tensor:
    """Squared Euclidean distance between feature maps, normalized by size."""
    f_gen, f_con = as_tensor(f_gen), as_tensor(f_con)
    if f_gen.shape != f_con.shape:
        raise ShapeError(
            f"content_loss: feature shapes differ, {f_gen.shape} vs {f_con.shape}"
        )
    diff = f_gen - f_con
    return (diff * diff).sum() / f_gen.size


def style_loss(f_gen_layers, f_sty_layers) -> Tensor:
    """Sum over layers of squared distances between channel means and stds."""
    if len(f_gen_layers) != len(f_sty_layers):
        raise ShapeError(
            f"style_loss: {len(f_gen_layers)} generated layers vs "
            f"{len(f_sty_layers)} style layers"
        )
    if not f_gen_layers:
        raise ShapeError("style_loss needs at least one layer")
    total = None  # the first term starts the sum, so it keeps the maps' dtype
    for f_gen, f_sty in zip(f_gen_layers, f_sty_layers):
        gen = channel_stats(f_gen)
        sty = channel_stats(f_sty)
        dm = gen.mean - sty.mean
        ds = gen.std - sty.std
        total = (dm * dm).sum() if total is None else total + (dm * dm).sum()
        total = total + (ds * ds).sum()
    return total


def tv_loss(image: Tensor) -> Tensor:
    """Anisotropic squared total variation, normalized by element count."""
    image = as_tensor(image)
    if image.ndim != 4:
        raise ShapeError(f"tv_loss expects a [B,C,H,W] image, got {image.shape}")
    total = Tensor(np.zeros((), dtype=image.data.dtype))
    if image.shape[2] >= 2:
        dh = image[:, :, 1:, :] - image[:, :, :-1, :]
        total = total + (dh * dh).sum()
    if image.shape[3] >= 2:
        dw = image[:, :, :, 1:] - image[:, :, :, :-1]
        total = total + (dw * dw).sum()
    return total / image.size


def total_loss(content: Tensor, style: Tensor, tv: Tensor) -> Tensor:
    """The content, style and smoothness terms weighted 1 : 5 : 1e-5."""
    return as_tensor(content) + as_tensor(style) * 5.0 + as_tensor(tv) * 1e-5


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NstConfig:
    """Desk-scale network plan.

    conv_plan lists the shared (kernel, stride, channels) convolution blocks
    of both encoders. A stride is 1 or 2, since the decoder inverts each
    strided block by one x2 upsampling. The mixing layer width is the last
    entry's channel count and the style encoder's fully connected head emits
    twice that many values (mean then std). n_content_res residual blocks
    follow the content encoder's plan and open the decoder.
    """

    conv_plan: tuple = ((3, 1, 16), (3, 2, 32), (3, 2, 64))
    n_content_res: int = 4

    def __post_init__(self):
        if not self.conv_plan:
            raise ValueError("conv_plan must hold at least one (kernel, stride, channels) block")
        for block in self.conv_plan:
            if len(block) != 3:
                raise ValueError(f"conv_plan block {block} is not (kernel, stride, channels)")
            k, stride, channels = block
            if k < 1 or k % 2 == 0 or stride not in (1, 2) or channels < 1:
                raise ValueError(
                    f"conv_plan block {block} needs an odd kernel >= 1, channels >= 1 "
                    f"and stride 1 or 2: the decoder inverts a stride by one x2 upsampling"
                )
        if self.n_content_res < 0:
            raise ValueError(f"n_content_res must be >= 0, got {self.n_content_res}")

    @property
    def mix_channels(self) -> int:
        return self.conv_plan[-1][2]

    @property
    def n_strided(self) -> int:
        """The stride-2 blocks: the encoders' halvings and the decoder's up blocks."""
        return sum(1 for _, stride, _ in self.conv_plan if stride > 1)


def _rows(x: Tensor, r0: int, r1: int, w: int | None = None) -> Tensor:
    """``x[:, :, r0:r1, :w]``, taping no slice when that is all of ``x``."""
    whole = (r0, r1) == (0, x.shape[2]) and w in (None, x.shape[3])
    return x if whole else x[:, :, r0:r1, :w]


def _band(steps, x: Tensor, r0: int, r1: int) -> Tensor:
    """Output rows ``r0:r1`` of the ``(window, run)`` steps applied to x in turn.

    ``window(r0, r1)`` names the input rows ``a:b`` a step needs for its
    output rows ``r0:r1``, and ``run(slab, r0, r1)`` computes those from the
    slab of rows ``a:b``; each step's window is taken back from the last.
    """
    spans = [(r0, r1)]
    for window, _ in reversed(steps):
        spans.insert(0, window(*spans[0]))
    out = _rows(x, *spans[0])
    for (_, run), span in zip(steps, spans[1:]):
        out = run(out, *span)
    return out


def _in_bands(steps, x: Tensor, n_out: int, widest: int) -> Tensor:
    """The steps of ``_band`` over all ``n_out`` output rows, one row band at a time.

    A band is max(1, BAND_ELEMENTS // widest) output rows, ``widest`` being
    the elements per row (channels x width) of the stage's widest map, and
    its rows are copied straight into the output, so no map of the stage is
    held whole. Under an active Graph, or when one band covers the output,
    a single band runs and takes no slice, so it tapes the unbanded ops.
    """
    rows = max(1, BAND_ELEMENTS // widest)
    if _graph_stack() or rows >= n_out:  # a tape would keep every band's maps
        return _band(steps, x, 0, n_out)
    out = None
    for r0 in range(0, n_out, rows):
        band = _band(steps, x, r0, min(r0 + rows, n_out)).data
        if out is None:
            out = np.empty(band.shape[:2] + (n_out,) + band.shape[3:], dtype=band.dtype)
        out[:, :, r0:r0 + band.shape[2]] = band
    return Tensor(out)


def _upsample_step(w: int):
    """x2 nearest upsampling cropped to ``w`` columns, as a ``(window, run)``
    step of ``_band``: a band's rows are cut from its slab's upsampling, so
    the whole map's crop to an odd height falls in the last band."""

    def window(r0, r1):
        return r0 // 2, (r1 - 1) // 2 + 1

    def run(slab, r0, r1):
        # the slab starts at row r0 // 2, so its upsampling at row r0 - r0 % 2
        return _rows(upsample_nearest(slab, 2), r0 % 2, r0 % 2 + r1 - r0, w)

    return window, run


def _he_std(cin: int, k: int) -> float:
    return float(np.sqrt(2.0 / (cin * k * k)))


class NstNet(Model):
    """Style encoder + content encoder + statistic mixer + decoder."""

    config_type = NstConfig
    record_key = "meta.nst"
    seed_tag = 811

    def _layers(self, init) -> None:
        config, add = self.config, self._add

        def conv(name, cin, cout, k):
            add(f"{name}.kernel", init.normal((cout, cin, k, k), _he_std(cin, k)))
            add(f"{name}.bias", init.const((cout,), 0.0))

        def res_block(name, c, k):
            conv(f"{name}.conv0", c, c, k)
            conv(f"{name}.conv1", c, c, k)

        for prefix, n_res in (("style_enc", N_STYLE_RES),
                              ("content_enc", config.n_content_res)):
            cin = IMAGE_CHANNELS
            for i, (k, _, cout) in enumerate(config.conv_plan):
                conv(f"{prefix}.conv{i}", cin, cout, k)
                cin = cout
            for i in range(n_res):
                res_block(f"{prefix}.res{i}", cin, config.conv_plan[-1][0])

        c_mix = config.mix_channels
        add("style_enc.fc.weight", init.normal((2 * c_mix, c_mix), np.sqrt(1.0 / c_mix)))
        # mean head 0, std head 1, so the initial mixing is scale-preserving
        add("style_enc.fc.bias", init.const((2, c_mix), [[0.0], [1.0]]).reshape(2 * c_mix))

        for i in range(config.n_content_res):
            res_block(f"decoder.res{i}", c_mix, config.conv_plan[-1][0])
        strided = [i for i, (_, s, _) in enumerate(config.conv_plan) if s > 1]
        cin = c_mix
        for j, block_idx in enumerate(reversed(strided)):
            k = config.conv_plan[block_idx][0]
            cout = config.conv_plan[block_idx - 1][2] if block_idx >= 1 else IMAGE_CHANNELS
            conv(f"decoder.up{j}", cin, cout, k)
            cin = cout
        conv("decoder.out", cin, IMAGE_CHANNELS, config.conv_plan[0][0])

    # kept by name: perfbench/tracer.py wraps it, and the benchmark's smoke test fails without it
    @classmethod
    def from_state(cls, arrays: dict) -> "NstNet":
        return super().from_state(arrays)

    # -- forward -------------------------------------------------------------

    def _check_image(self, x, role: str) -> Tensor:
        x = self._input(x)
        if x.ndim != 4 or x.shape[1] != IMAGE_CHANNELS:
            raise ShapeError(
                f"{role} image must be [B, {IMAGE_CHANNELS}, H, W], got {tuple(x.shape)}"
            )
        factor = 2 ** self.config.n_strided
        if x.shape[2] < factor or x.shape[3] < factor:
            raise ShapeError(
                f"{role} image {tuple(x.shape)} smaller than the encoder's "
                f"downsampling factor {factor}"
            )
        return x

    def _conv(self, name: str, x: Tensor, stride: int = 1) -> Tensor:
        k = self.params[f"{name}.kernel"]
        return conv2d(x, k, self.params[f"{name}.bias"], stride=stride,
                      padding=(k.shape[2] - 1) // 2)

    def _res_block(self, name: str, x: Tensor, slope: float = 0.2) -> Tensor:
        out = leaky_relu(self._conv(f"{name}.conv0", x), slope)
        out = leaky_relu(self._conv(f"{name}.conv1", out), slope)
        return x + out

    def _conv_step(self, name: str, n_in: int, stride: int = 1, act=None):
        """The conv ``name`` as a ``(window, run)`` step of ``_band``.

        The conv reads a map ``n_in`` rows high, then applies ``act`` if one
        is given. A band's conv runs with its usual padding on a slab that
        starts on a multiple of the stride, so each kept row reads exactly
        the rows it reads in the whole map: the slab's padding reaches only
        the rows dropped at its ends, except at the map's true top and
        bottom edges.
        """
        k = self.params[f"{name}.kernel"].shape[2]
        pad = (k - 1) // 2
        n_out = (n_in - 1) // stride + 1

        def window(r0, r1):
            a = max(r0 * stride - pad, 0) // stride * stride
            b = n_in if r1 == n_out else min((r1 - 1) * stride - pad + k, n_in)
            return a, b

        def run(slab, r0, r1):
            out = self._conv(name, slab, stride)
            if act:
                out = act(out)
            a = window(r0, r1)[0] // stride
            return _rows(out, r0 - a, r1 - a)

        return window, run

    def _encode(self, prefix: str, x: Tensor, n_res: int) -> Tensor:
        """One encoder's ``conv_plan`` blocks, then ``n_res`` residual blocks.

        The blocks run in stages, a stage being the blocks up to and
        including the next stride-2 block or the plan's last block; without
        a tape each stage runs in row bands of its output (``_in_bands``), so
        none of its maps is held whole.
        """
        plan = self.config.conv_plan
        steps = []
        h, w = x.shape[2:]
        widest = x.shape[1] * w
        for i, (_, stride, channels) in enumerate(plan):
            steps.append(self._conv_step(f"{prefix}.conv{i}", h, stride, leaky_relu))
            h, w = (h - 1) // stride + 1, (w - 1) // stride + 1
            widest = max(widest, channels * w)
            if stride > 1 or i == len(plan) - 1:
                x = _in_bands(steps, x, h, widest)
                steps, widest = [], channels * w
        for i in range(n_res):
            x = self._res_block(f"{prefix}.res{i}", x)
        return x

    def style_encode(self, x) -> ChannelStats:
        """Regress per-channel (mean, std) mixing targets from a style image."""
        cfg = self.config
        out = self._encode("style_enc", self._check_image(x, "style"), N_STYLE_RES)
        pooled = global_avg_pool(out).reshape(out.shape[0], cfg.mix_channels)
        head = fully_connected(pooled, self.params["style_enc.fc.weight"],
                               self.params["style_enc.fc.bias"])
        return ChannelStats(mean=head[:, :cfg.mix_channels],
                            std=head[:, cfg.mix_channels:])

    def content_encode(self, x) -> Tensor:
        """The content feature map; ``decode`` takes it back to ``x``'s size."""
        return self._encode("content_enc", self._check_image(x, "content"),
                            self.config.n_content_res)

    def decode(self, f: Tensor, size) -> Tensor:
        """Map mixed features back to an image of ``size`` (h, w), linear output.

        ``size`` halved, rounded up, once per stride-2 block gives each up
        block its size and must end at ``f``'s, else ShapeError is raised.
        After the residual blocks, each up block (x2 upsampling, crop, conv,
        relu) is a stage, and ``decoder.out`` ends the last one, or is the
        only one when the plan has no stride-2 block. Without a tape each
        stage runs in row bands of its output (``_in_bands``), so none of its
        maps is held whole.
        """
        cfg = self.config
        h, w = size
        sizes = []  # each up block's, deepest first
        for _ in range(cfg.n_strided):
            sizes.insert(0, (h, w))
            h, w = (h - 1) // 2 + 1, (w - 1) // 2 + 1
        if (h, w) != f.shape[2:]:
            raise ShapeError(f"decode: size {size} halves to {(h, w)}, not {f.shape[2:]}")
        out = f
        for i in range(cfg.n_content_res):
            out = self._res_block(f"decoder.res{i}", out, 0.0)
        stages = [] if sizes else [([], h, max(out.shape[1], IMAGE_CHANNELS) * w)]
        for i, (h, w) in enumerate(sizes):
            name = f"decoder.up{i}"
            steps = [_upsample_step(w), self._conv_step(name, h, act=relu)]
            stages.append((steps, h, max(self.params[f"{name}.kernel"].shape[:2]) * w))
        stages[-1][0].append(self._conv_step("decoder.out", h))
        for steps, h, widest in stages:
            out = _in_bands(steps, out, h, widest)
        return out

    def mix_features(self, content_img, stats: ChannelStats) -> Tensor:
        """The content feature map re-normalized to ``stats``, for ``decode``."""
        return statistic_match(self.content_encode(content_img), stats)

    def forward(self, style_img, content_img) -> Tensor:
        """Stylize the content image with statistics from the style image."""
        stats, content = self.style_encode(style_img), self._input(content_img)
        return self.decode(self.mix_features(content, stats), content.shape[2:])

    def forward_interpolate(self, style1_img, style2_img, content_img,
                            alpha: float) -> Tensor:
        """Interpolate between two style statistics."""
        stats = self.style_encode(style1_img), self.style_encode(style2_img)
        content = self._input(content_img)
        return self.decode(style_interpolate(self.content_encode(content), *stats, alpha),
                           content.shape[2:])


# ---------------------------------------------------------------------------
# loss feature extractor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractorConfig:
    """The output channels of each 3x3, stride-2 stage."""

    stage_channels: tuple = (8, 16, 32, 64)

    def __post_init__(self):
        if not self.stage_channels or min(self.stage_channels) < 1:
            raise ValueError(
                f"stage_channels must hold at least one stage of >= 1 channels, "
                f"got {self.stage_channels}"
            )


class FeatureExtractor(Model):
    """Fixed (non-trainable) staged conv network providing loss-layer taps.

    Style losses read all stage outputs; the content loss reads the last.
    Weights are seeded at construction or loaded from a checkpoint, and every
    tensor has ``requires_grad`` off.
    """

    config_type = ExtractorConfig
    record_key = "meta.extractor"
    seed_tag = 813

    def __init__(self, config: ExtractorConfig = ExtractorConfig(), seed: int = 0):
        super().__init__(config, SeededInit(np.random.default_rng([self.seed_tag, seed])))

    def _layers(self, init) -> None:
        cin = IMAGE_CHANNELS
        for i, cout in enumerate(self.config.stage_channels):
            self._add(f"stage{i}.kernel", init.normal((cout, cin, 3, 3), _he_std(cin, 3)))
            self._add(f"stage{i}.bias", init.const((cout,), 0.0))
            cin = cout
        for tensor in self.params.values():
            tensor.requires_grad = False

    def taps(self, image) -> list:
        """All stage outputs, shallowest first."""
        out = self._input(image)
        results = []
        for i in range(len(self.config.stage_channels)):
            out = conv2d(out, self.params[f"stage{i}.kernel"],
                         self.params[f"stage{i}.bias"], stride=2, padding=1)
            out = leaky_relu(out)
            results.append(out)
        return results


def _constant(image):
    """A Tensor input detached from the tape; an array is left for ``taps`` to cast."""
    return image.detach() if isinstance(image, Tensor) else image


def nst_objective(extractor: FeatureExtractor, generated: Tensor, content_img, style_img):
    """Total stylization objective and its (content, style, tv) parts."""
    gen_taps = extractor.taps(generated)
    con_taps = extractor.taps(_constant(content_img))
    sty_taps = extractor.taps(_constant(style_img))
    lc = content_loss(gen_taps[-1], con_taps[-1])
    ls = style_loss(gen_taps, sty_taps)
    ltv = tv_loss(generated)
    return total_loss(lc, ls, ltv), (lc, ls, ltv)
