"""Statistic-matching style transfer: stats math, losses, and the networks.

Style is carried by per-channel feature statistics. The content encoder
produces feature maps; the style encoder regresses a (mean, std) vector per
channel; mixing re-normalizes the content features to carry the target
statistics; the decoder maps the mixed features back to an image. Losses
compare feature maps and their statistics through a fixed feature extractor.

The loss extractor here is a seeded, randomly initialized four-stage
convolutional network (taps after every stage, content tap at the last); a
pretrained extractor in the project checkpoint format loads in its place
through ``FeatureExtractor.from_state``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stylemix.autodiff import (
    ChannelStats,
    ShapeError,
    Tensor,
    as_tensor,
    conv2d,
    fully_connected,
    global_avg_pool,
    leaky_relu,
    relu,
    sqrt,
    upsample_nearest,
)
from stylemix.fontnet import Model, normal_draw

STAT_EPSILON = 1e-8


# ---------------------------------------------------------------------------
# channel statistics and mixing
# ---------------------------------------------------------------------------


def channel_stats(f: Tensor, epsilon: float = 0.0) -> ChannelStats:
    """Spatial mean and population std per (batch, channel) of a [B,C,H,W] map.

    ``epsilon`` is added under the square root; with epsilon 0 a constant
    channel has std exactly 0.
    """
    f = as_tensor(f)
    if f.ndim != 4:
        raise ShapeError(f"channel_stats expects a [B,C,H,W] map, got {f.shape}")
    if epsilon < 0:
        raise ValueError(f"channel_stats: epsilon must be >= 0, got {epsilon}")
    mean = f.mean(axis=(2, 3))  # [B, C]
    centered = f - mean.reshape(f.shape[0], f.shape[1], 1, 1)
    var = (centered * centered).mean(axis=(2, 3))
    return ChannelStats(mean=mean, std=sqrt(var + epsilon))


def _stat_plane(value, channels: int, name: str) -> Tensor:
    """Lift a stat vector ([C] or [B,C], Tensor or array) to a [*,C,1,1] tensor."""
    t = as_tensor(value)
    if t.ndim == 1:
        if t.shape[0] != channels:
            raise ShapeError(f"{name}: expected {channels} channels, got {t.shape[0]}")
        return t.reshape(1, channels, 1, 1)
    if t.ndim == 2:
        if t.shape[1] != channels:
            raise ShapeError(f"{name}: expected {channels} channels, got {t.shape[1]}")
        return t.reshape(t.shape[0], channels, 1, 1)
    raise ShapeError(f"{name}: stat vector must be [C] or [B,C], got {t.shape}")


def statistic_match(f_con: Tensor, target: ChannelStats,
                    epsilon: float = STAT_EPSILON) -> Tensor:
    """Re-normalize content features to carry the target per-channel stats.

    out = (f - mean(f)) / std_eps(f) * target.std + target.mean, computed per
    channel across spatial positions; ``epsilon`` guards the denominator so
    constant channels map to the target mean.
    """
    f_con = as_tensor(f_con)
    if epsilon <= 0:
        raise ValueError(f"statistic_match: epsilon must be > 0, got {epsilon}")
    own = channel_stats(f_con, epsilon)
    c = f_con.shape[1]
    mean_t = _stat_plane(target.mean, c, "statistic_match target mean")
    std_t = _stat_plane(target.std, c, "statistic_match target std")
    mean_o = own.mean.reshape(f_con.shape[0], c, 1, 1)
    std_o = own.std.reshape(f_con.shape[0], c, 1, 1)
    return (f_con - mean_o) / std_o * std_t + mean_t


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _blend(a, b, alpha: float) -> Tensor:
    return as_tensor(a) * (1.0 - alpha) + as_tensor(b) * alpha


# kept by name: perfbench/tracer.py wraps it, and the benchmark's smoke test fails without it
def tradeoff_mix(f_con: Tensor, con_stats: ChannelStats, sty_stats: ChannelStats,
                 alpha: float, epsilon: float = STAT_EPSILON) -> Tensor:
    """Statistic match against a (1-alpha) content / alpha style stat blend.

    alpha 0 reproduces the content image's own style, alpha 1 is the fully
    stylized match.
    """
    return style_interpolate(f_con, con_stats, sty_stats, alpha, epsilon)


def style_interpolate(f_con: Tensor, stats1: ChannelStats, stats2: ChannelStats,
                      alpha: float, epsilon: float = STAT_EPSILON) -> Tensor:
    """Statistic match against an interpolation between two style stats."""
    alpha = _check_alpha(alpha)
    blended = ChannelStats(
        mean=_blend(stats1.mean, stats2.mean, alpha),
        std=_blend(stats1.std, stats2.std, alpha),
    )
    return statistic_match(f_con, blended, epsilon)


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


def style_loss(f_gen_layers, f_sty_layers, epsilon: float = 0.0) -> Tensor:
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
        gen = channel_stats(f_gen, epsilon)
        sty = channel_stats(f_sty, epsilon)
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


@dataclass(frozen=True)
class LossWeights:
    content: float = 1.0
    style: float = 5.0
    tv: float = 1e-5

    def __post_init__(self):
        if self.content < 0 or self.style < 0 or self.tv < 0:
            raise ValueError(f"loss weights must be >= 0, got {self}")


def total_loss(content: Tensor, style: Tensor, tv: Tensor,
               weights: LossWeights = LossWeights()) -> Tensor:
    """Weighted combination of the content, style, and smoothness terms."""
    return (as_tensor(content) * weights.content
            + as_tensor(style) * weights.style
            + as_tensor(tv) * weights.tv)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NstConfig:
    """Desk-scale network plan.

    conv_plan lists the shared (kernel, stride, channels) convolution blocks
    of both encoders; the mixing layer width is the last entry's channel
    count and the style encoder's fully connected head emits twice that many
    values (mean then std).
    """

    conv_plan: tuple = ((3, 1, 16), (3, 2, 32), (3, 2, 64))
    n_style_res: int = 1
    n_content_res: int = 4
    leaky_slope: float = 0.2
    image_channels: int = 3
    stat_epsilon: float = STAT_EPSILON

    def __post_init__(self):
        if not self.conv_plan:
            raise ValueError("conv_plan must hold at least one (kernel, stride, channels) block")
        for block in self.conv_plan:
            if len(block) != 3:
                raise ValueError(f"conv_plan block {block} is not (kernel, stride, channels)")
            k, stride, channels = block
            if k < 1 or k % 2 == 0 or stride < 1 or channels < 1:
                raise ValueError(
                    f"conv_plan block {block} needs an odd kernel >= 1, "
                    f"stride >= 1 and channels >= 1"
                )
        if self.n_style_res < 0 or self.n_content_res < 0:
            raise ValueError(
                f"residual block counts must be >= 0, got {self.n_style_res} "
                f"and {self.n_content_res}"
            )
        if self.image_channels < 1:
            raise ValueError(f"image_channels must be >= 1, got {self.image_channels}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must lie in [0, 1], got {self.leaky_slope}")
        if not self.stat_epsilon > 0:
            raise ValueError(f"stat_epsilon must be > 0, got {self.stat_epsilon}")

    @property
    def mix_channels(self) -> int:
        return self.conv_plan[-1][2]

    @property
    def downsample_factor(self) -> int:
        factor = 1
        for _, stride, _ in self.conv_plan:
            factor *= stride
        return factor


def _crop(x: Tensor, h: int, w: int) -> Tensor:
    """``x[:, :, :h, :w]``, taping no crop when ``x`` is already ``h`` x ``w``."""
    return x if x.shape[2:] == (h, w) else x[:, :, :h, :w]


def _he_std(cin: int, k: int) -> float:
    return float(np.sqrt(2.0 / (cin * k * k)))


class NstNet(Model):
    """Style encoder + content encoder + statistic mixer + decoder."""

    config_type = NstConfig
    record_key = "meta.nst"
    seed_tag = 811

    def _layers(self, draw) -> None:
        config, add = self.config, self.params.add

        def conv(name, cin, cout, k):
            add(f"{name}.kernel", draw((cout, cin, k, k), _he_std(cin, k)))
            add(f"{name}.bias", np.zeros(cout))

        def res_block(name, c, k):
            conv(f"{name}.conv0", c, c, k)
            conv(f"{name}.conv1", c, c, k)

        for prefix, n_res in (("style_enc", config.n_style_res),
                              ("content_enc", config.n_content_res)):
            cin = config.image_channels
            for i, (k, _, cout) in enumerate(config.conv_plan):
                conv(f"{prefix}.conv{i}", cin, cout, k)
                cin = cout
            for i in range(n_res):
                res_block(f"{prefix}.res{i}", cin, config.conv_plan[-1][0])

        c_mix = config.mix_channels
        add("style_enc.fc.weight", draw((2 * c_mix, c_mix), np.sqrt(1.0 / c_mix)))
        # std head starts at 1 so the initial mixing is scale-preserving
        fc_b = np.zeros(2 * c_mix)
        fc_b[c_mix:] = 1.0
        add("style_enc.fc.bias", fc_b)

        for i in range(config.n_content_res):
            res_block(f"decoder.res{i}", c_mix, config.conv_plan[-1][0])
        strided = [i for i, (_, s, _) in enumerate(config.conv_plan) if s > 1]
        cin = c_mix
        for j, block_idx in enumerate(reversed(strided)):
            k = config.conv_plan[block_idx][0]
            cout = (config.conv_plan[block_idx - 1][2] if block_idx >= 1
                    else config.image_channels)
            conv(f"decoder.up{j}", cin, cout, k)
            cin = cout
        conv("decoder.out", cin, config.image_channels, config.conv_plan[0][0])

    # kept by name: perfbench/tracer.py wraps it, and the benchmark's smoke test fails without it
    @classmethod
    def from_state(cls, arrays: dict) -> "NstNet":
        return super().from_state(arrays)

    # -- forward -------------------------------------------------------------

    def _check_image(self, x, role: str) -> Tensor:
        x = self._input(x)
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.image_channels:
            raise ShapeError(
                f"{role} image must be [B, {cfg.image_channels}, H, W], got {tuple(x.shape)}"
            )
        factor = cfg.downsample_factor
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

    def _conv_block(self, name: str, x: Tensor, stride: int, slope: float) -> Tensor:
        out = self._conv(name, x, stride)
        return leaky_relu(out, slope) if slope != 0.0 else relu(out)

    def _res_block(self, name: str, x: Tensor, slope: float) -> Tensor:
        out = self._conv_block(f"{name}.conv0", x, 1, slope)
        out = self._conv_block(f"{name}.conv1", out, 1, slope)
        return x + out

    def style_encode(self, x) -> ChannelStats:
        """Regress per-channel (mean, std) mixing targets from a style image."""
        x = self._check_image(x, "style")
        cfg = self.config
        out = x
        for i, (_, stride, _) in enumerate(cfg.conv_plan):
            out = self._conv_block(f"style_enc.conv{i}", out, stride, cfg.leaky_slope)
        for i in range(cfg.n_style_res):
            out = self._res_block(f"style_enc.res{i}", out, cfg.leaky_slope)
        pooled = global_avg_pool(out).reshape(out.shape[0], cfg.mix_channels)
        head = fully_connected(pooled, self.params["style_enc.fc.weight"],
                               self.params["style_enc.fc.bias"])
        return ChannelStats(mean=head[:, :cfg.mix_channels],
                            std=head[:, cfg.mix_channels:])

    def content_encode(self, x):
        """Content feature maps plus the spatial sizes eaten by each stride."""
        x = self._check_image(x, "content")
        cfg = self.config
        out = x
        sizes = []
        for i, (_, stride, _) in enumerate(cfg.conv_plan):
            if stride > 1:
                sizes.append((out.shape[2], out.shape[3]))
            out = self._conv_block(f"content_enc.conv{i}", out, stride, cfg.leaky_slope)
        for i in range(cfg.n_content_res):
            out = self._res_block(f"content_enc.res{i}", out, cfg.leaky_slope)
        return out, sizes

    def decode(self, f: Tensor, sizes) -> Tensor:
        """Map mixed features back to image space (linear output)."""
        cfg = self.config
        out = f
        for i in range(cfg.n_content_res):
            out = self._res_block(f"decoder.res{i}", out, 0.0)
        n_up = sum(1 for _, stride, _ in cfg.conv_plan if stride > 1)
        if len(sizes) != n_up:
            raise ShapeError(f"decode expects {n_up} recorded sizes, got {len(sizes)}")
        for i in range(n_up):
            h, w = sizes[len(sizes) - 1 - i]
            # no name holds the upsampled map, so without a tape it is freed
            # as soon as the conv returns, before relu allocates
            out = relu(self._conv(f"decoder.up{i}", _crop(upsample_nearest(out, 2), h, w)))
        return self._conv("decoder.out", out)

    def mix_features(self, content_img, stats: ChannelStats):
        """Content features re-normalized to ``stats``, plus the decoder's sizes."""
        f, sizes = self.content_encode(content_img)
        return statistic_match(f, stats, self.config.stat_epsilon), sizes

    def forward(self, style_img, content_img) -> Tensor:
        """Stylize the content image with statistics from the style image."""
        return self.decode(*self.mix_features(content_img, self.style_encode(style_img)))

    def forward_interpolate(self, style1_img, style2_img, content_img,
                            alpha: float) -> Tensor:
        """Interpolate between two style statistics."""
        stats1 = self.style_encode(style1_img)
        stats2 = self.style_encode(style2_img)
        f, sizes = self.content_encode(content_img)
        mixed = style_interpolate(f, stats1, stats2, alpha, self.config.stat_epsilon)
        return self.decode(mixed, sizes)


# ---------------------------------------------------------------------------
# loss feature extractor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractorConfig:
    stage_channels: tuple = (8, 16, 32, 64)
    kernel: int = 3
    stride: int = 2
    leaky_slope: float = 0.2
    image_channels: int = 3

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"extractor kernel must be odd and >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ValueError(f"extractor stride must be >= 1, got {self.stride}")
        if self.image_channels < 1:
            raise ValueError(f"image_channels must be >= 1, got {self.image_channels}")
        if not self.stage_channels or min(self.stage_channels) < 1:
            raise ValueError(
                f"stage_channels must hold at least one stage of >= 1 channels, "
                f"got {self.stage_channels}"
            )
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must lie in [0, 1], got {self.leaky_slope}")


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
        super().__init__(config, normal_draw(np.random.default_rng([self.seed_tag, seed])))

    def _layers(self, draw) -> None:
        cin = self.config.image_channels
        k = self.config.kernel
        for i, cout in enumerate(self.config.stage_channels):
            self.params.add(f"stage{i}.kernel", draw((cout, cin, k, k), _he_std(cin, k)))
            self.params.add(f"stage{i}.bias", np.zeros(cout))
            cin = cout
        for tensor in self.params.values():
            tensor.requires_grad = False

    @property
    def n_taps(self) -> int:
        return len(self.config.stage_channels)

    def taps(self, image) -> list:
        """All stage outputs, shallowest first."""
        out = self._input(image)
        cfg = self.config
        results = []
        for i in range(self.n_taps):
            out = conv2d(out, self.params[f"stage{i}.kernel"],
                         self.params[f"stage{i}.bias"], stride=cfg.stride,
                         padding=(cfg.kernel - 1) // 2)
            out = leaky_relu(out, cfg.leaky_slope)
            results.append(out)
        return results


def _constant(image):
    """A Tensor input detached from the tape; an array is left for ``taps`` to cast."""
    return image.detach() if isinstance(image, Tensor) else image


def nst_objective(extractor: FeatureExtractor, generated: Tensor, content_img,
                  style_img, weights: LossWeights = LossWeights(),
                  stat_epsilon: float = STAT_EPSILON):
    """Total stylization objective and its (content, style, tv) parts."""
    gen_taps = extractor.taps(generated)
    con_taps = extractor.taps(_constant(content_img))
    sty_taps = extractor.taps(_constant(style_img))
    lc = content_loss(gen_taps[-1], con_taps[-1])
    ls = style_loss(gen_taps, sty_taps, epsilon=stat_epsilon)
    ltv = tv_loss(generated)
    return total_loss(lc, ls, ltv, weights), (lc, ls, ltv)
