"""Reference-set typeface transfer network.

Four subnets: a style encoder and a content encoder (stacks of
Convolution-BatchNorm-LeakyReLU blocks that reduce the r channel-concatenated
reference images to a 1x1 code), a bilinear mixer combining the two codes,
and a decoder of Deconvolution-BatchNorm-ReLU blocks that is symmetrical to
the encoder. Each decoder block input is channel-concatenated with the
output of the symmetric content-encoder block, except at the 1x1 bottleneck,
which is the mixer output itself; the final 5x5 stride-1 deconvolution maps
to one channel through a sigmoid.

``Model`` is what every network here shares (``FontNet``, and ``NstNet`` and
the loss ``FeatureExtractor`` in ``nst``): a config, float32 tensors declared
once through an initializer (``SeededInit``, or ``ShapeInit``'s placeholders),
seeding, and one checkpoint state that ``from_state`` validates
(``read_config``, ``check_state``, ``check_finite``) and loads.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from stylemix.autodiff import (
    ChannelStats,
    ShapeError,
    Tensor,
    batchnorm2d,
    bilinear_contract,
    concat_channels,
    conv2d,
    deconv2d,
    leaky_relu,
    relu,
    sigmoid,
)

INIT_STD = 0.02  # every FontNet kernel and the mixer tensor are drawn from N(0, INIT_STD)


@dataclass(frozen=True)
class FontNetConfig:
    """The glyph size, the first encoder block's width and the references per
    set; the defaults are the desk-scale configuration."""

    image_size: int = 64
    base_channels: int = 16
    ref_count: int = 4

    def __post_init__(self):
        size = self.image_size
        power_of_two = size >= 8 and (size & (size - 1)) == 0
        if not (power_of_two or size == 80):
            raise ValueError(
                f"image_size must be a power of two >= 8 or 80, got {size}"
            )
        if self.ref_count < 1:
            raise ValueError(f"ref_count must be >= 1, got {self.ref_count}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be >= 1, got {self.base_channels}")

    @property
    def spatial_sizes(self) -> tuple:
        """Per-encoder-layer output sizes: image_size, halvings, ..., 1."""
        sizes = [self.image_size]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] - 1) // 2 + 1)  # conv k3 s2 p1 halves, ceil mode
        return tuple(sizes)

    @property
    def depth(self) -> int:
        return len(self.spatial_sizes)

    @property
    def encoder_channels(self) -> tuple:
        return tuple(self.base_channels * min(2 ** i, 8) for i in range(self.depth))

    @property
    def decoder_channels(self) -> tuple:
        """Up-block output channels: the encoder sequence mirrored."""
        return tuple(reversed(self.encoder_channels[:-1]))

    @property
    def code_dim(self) -> int:
        return self.encoder_channels[-1]


def config_record(config) -> np.ndarray:
    """A config dataclass as the UTF-8 bytes of its JSON, one value per byte,
    which a float32 checkpoint holds exactly."""
    text = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float64)


class SeededInit:
    """Where a model's ``_layers`` take every tensor from, all float32:
    ``normal(shape, std)`` is ``rng.normal(0, std, shape)`` rounded to float32
    bit for bit, and ``const(shape, value)`` is ``value`` broadcast to ``shape``.

    Each normal draw fills a float32 array one leading slice at a time. The
    generator produces the same values in the same order whatever the slicing,
    so no whole-tensor float64 copy is ever held (16 MiB for the 128^3 mixer).
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def normal(self, shape, std) -> np.ndarray:
        out = np.empty(shape, dtype=np.float32)
        for i in range(out.shape[0]):
            out[i] = self.rng.normal(0.0, std, size=out.shape[1:])
        return out

    def const(self, shape, value) -> np.ndarray:
        return np.full(shape, value, dtype=np.float32)


class ShapeInit:
    """Zero-stride float32 views in place of every tensor, for ``from_state`` to
    compare shapes with: a record describing a huge net allocates nothing. A
    shape numpy cannot index even as a view raises ValueError naming ``key``,
    the record that describes it."""

    def __init__(self, key: str):
        self.key = key

    def normal(self, shape, _) -> np.ndarray:
        try:
            return np.broadcast_to(np.float32(0), shape)
        except ValueError:  # numpy's own message names no tensor: "iterator is too large"
            raise ValueError(f"{self.key} describes a tensor of shape {shape}, "
                             f"too large to index") from None

    const = normal


def _same_kind(value, default) -> bool:
    """Whether a decoded JSON value has the type of a field's default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    return type(value) is type(default)


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def read_config(config_type, arrays: dict, key: str):
    """The ``config_type`` recorded under ``key``; a bad record raises ValueError naming it."""
    if key not in arrays:
        raise ValueError(f"checkpoint does not describe a {config_type.__name__} (no {key})")
    record = np.asarray(arrays[key], dtype=np.float64)
    # finiteness first: inf % 1 is an invalid operation
    if (record.ndim != 1 or not np.isfinite(record).all() or (record % 1 != 0).any()
            or (record < 0).any() or (record > 255).any()):
        raise ValueError(f"{key} must be a vector of byte values 0-255, got shape {record.shape}")
    try:
        fields = json.loads(record.astype(np.uint8).tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise ValueError(f"{key} is not a UTF-8 JSON config record: {exc}") from None
    defaults = {f.name: f.default for f in dataclasses.fields(config_type)}
    if not isinstance(fields, dict) or set(fields) != set(defaults):
        raise ValueError(f"{key} must hold a JSON object of exactly the fields {sorted(defaults)}")
    wrong = [name for name, value in fields.items() if not _same_kind(value, defaults[name])]
    if wrong:
        raise ValueError(f"{key} holds wrong-typed {config_type.__name__} fields {sorted(wrong)}")
    try:
        return config_type(**{name: _tuples(value) for name, value in fields.items()})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key} holds an invalid {config_type.__name__}: {exc}") from None


def check_state(expected: dict, arrays: dict, key: str) -> None:
    """Require exactly the tensors of ``expected``, shaped alike except the record ``key``."""
    if set(expected) != set(arrays):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise ValueError(
            f"checkpoint tensors do not match the architecture in {key} "
            f"(missing {missing[:4]}, unexpected {extra[:4]})"
        )
    for name, array in expected.items():
        if name != key and np.shape(arrays[name]) != np.shape(array):
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {np.shape(arrays[name])}, "
                f"expected {np.shape(array)}"
            )


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


def check_finite(arrays: dict) -> None:
    """Raise :class:`CheckpointError` naming the first tensor that holds NaN
    or inf once stored in float32 (a value beyond float32's range included)."""
    with np.errstate(over="ignore"):  # the overflow is what is reported
        for name, array in arrays.items():
            if not np.isfinite(np.asarray(array).astype(np.float32, copy=False)).all():
                raise CheckpointError(f"tensor {name!r} holds non-finite values in float32")


class Model:
    """A network's config, float32 parameters and batch-norm buffers.

    A subclass names its ``config_type``, the ``record_key`` its config is
    saved under and the ``seed_tag`` of its weight stream, and declares every
    tensor in ``_layers(init)``, each one taken from ``init.normal(shape, std)``
    or ``init.const(shape, value)`` (``SeededInit`` or ``ShapeInit``).
    """

    config_type: type
    record_key: str
    seed_tag: int

    def __init__(self, config, init):
        self.config = config
        self.params: dict = {}  # name -> trainable Tensor
        self.buffers: dict = {}  # name -> ChannelStats
        self._layers(init)

    @classmethod
    def initialize(cls, config, seed: int = 0):
        return cls._build(config, SeededInit(np.random.default_rng([cls.seed_tag, seed])))

    @classmethod
    def _build(cls, config, init):
        model = cls.__new__(cls)  # past a subclass __init__ that takes a seed
        Model.__init__(model, config, init)
        return model

    def _add(self, name: str, array: np.ndarray) -> None:
        """Keep ``array``, as the initializer made it, as the trainable parameter ``name``."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self.params[name] = Tensor(array, requires_grad=True)

    # -- checkpoint state ----------------------------------------------------

    def state_arrays(self) -> dict:
        """Named arrays covering parameters, batch-norm buffers, and the config record."""
        state = {name: t.data for name, t in self.params.items()}
        for name, stats in self.buffers.items():
            state[f"{name}.run_mean"] = np.asarray(stats.mean)
            state[f"{name}.run_std"] = np.asarray(stats.std)
        state[self.record_key] = config_record(self.config)
        return state

    @classmethod
    def from_state(cls, arrays: dict):
        """The model ``arrays`` describes, its tensors cast to float32.

        A bad config record or tensor set raises ValueError; a tensor that is
        not finite in float32 raises :class:`CheckpointError`."""
        config = read_config(cls.config_type, arrays, cls.record_key)
        model = cls._build(config, ShapeInit(cls.record_key))
        check_state(model.state_arrays(), arrays, cls.record_key)
        check_finite(arrays)
        for name, tensor in model.params.items():
            tensor.data = np.asarray(arrays[name], dtype=np.float32)
        for name, stats in model.buffers.items():
            stats.mean = np.asarray(arrays[f"{name}.run_mean"], dtype=np.float32)
            stats.std = np.asarray(arrays[f"{name}.run_std"], dtype=np.float32)
        return model

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, float32 as built; array inputs are cast to it."""
        return next(iter(self.params.values())).data.dtype

    def _input(self, x) -> Tensor:
        """``x`` as a Tensor, an array input cast to ``dtype``."""
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))


class FontNet(Model):
    """Typeface transfer model: parameters, batch-norm buffers, forward ops."""

    config_type = FontNetConfig
    record_key = "meta.font"
    seed_tag = 809

    def _layers(self, init) -> None:
        config, add = self.config, self._add

        def batch_norm(name, cout):
            add(f"{name}.gamma", init.const((cout,), 1.0))
            add(f"{name}.beta", init.const((cout,), 0.0))
            self.buffers[name] = ChannelStats(init.const((cout,), 0.0),
                                              init.const((cout,), 1.0))

        enc = config.encoder_channels
        for prefix in ("style_enc", "content_enc"):
            cin = config.ref_count
            for i, cout in enumerate(enc):
                k = 5 if i == 0 else 3
                add(f"{prefix}.{i}.kernel", init.normal((cout, cin, k, k), INIT_STD))
                add(f"{prefix}.{i}.bias", init.const((cout,), 0.0))
                batch_norm(f"{prefix}.{i}", cout)
                cin = cout

        code = config.code_dim
        add("mixer.tensor", init.normal((code, code, code), INIT_STD))

        dec = config.decoder_channels
        cin = code
        for j, cout in enumerate(dec):
            if j >= 1:
                cin += enc[config.depth - 1 - j]  # skip concat widens the input
            # deconv kernels are laid out (Cin, Cout, k, k)
            add(f"decoder.{j}.kernel", init.normal((cin, cout, 3, 3), INIT_STD))
            add(f"decoder.{j}.bias", init.const((cout,), 0.0))
            batch_norm(f"decoder.{j}", cout)
            cin = cout
        last = config.depth - 1
        cin = (dec[-1] if dec else code) + enc[0]
        add(f"decoder.{last}.kernel", init.normal((cin, 1, 5, 5), INIT_STD))
        add(f"decoder.{last}.bias", init.const((1,), 0.0))

    # -- forward ops ---------------------------------------------------------

    def _check_ref_input(self, x: Tensor, role: str) -> None:
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.ref_count or x.shape[2:] != (
            cfg.image_size, cfg.image_size,
        ):
            raise ShapeError(
                f"{role} reference input must be [B, {cfg.ref_count}, "
                f"{cfg.image_size}, {cfg.image_size}], got {tuple(x.shape)}"
            )

    def _encode(self, prefix: str, x: Tensor, mode: str):
        """The code [B, code_dim] and every block's output but the last (the skips)."""
        cfg = self.config
        skips = []
        out = x
        for i in range(cfg.depth):
            k, stride, pad = (5, 1, 2) if i == 0 else (3, 2, 1)
            out = conv2d(out, self.params[f"{prefix}.{i}.kernel"],
                         self.params[f"{prefix}.{i}.bias"], stride=stride, padding=pad)
            out = batchnorm2d(out, self.params[f"{prefix}.{i}.gamma"],
                              self.params[f"{prefix}.{i}.beta"], mode=mode,
                              running_stats=self.buffers[f"{prefix}.{i}"])
            out = leaky_relu(out)
            if i < cfg.depth - 1:
                skips.append(out)
        code = out.reshape(out.shape[0], cfg.code_dim)
        return code, skips

    def style_encode(self, x, mode: str = "eval") -> Tensor:
        """Style code [B, code_dim] from channel-concatenated reference images."""
        x = self._input(x)
        self._check_ref_input(x, "style")
        code, _ = self._encode("style_enc", x, mode)
        return code

    def content_encode(self, x, mode: str = "eval"):
        """Content code [B, code_dim] plus per-block skip feature maps."""
        x = self._input(x)
        self._check_ref_input(x, "content")
        return self._encode("content_enc", x, mode)

    def mix(self, style_code: Tensor, content_code: Tensor) -> Tensor:
        return bilinear_contract(style_code, self.params["mixer.tensor"], content_code)

    def decode(self, mixed: Tensor, skips, mode: str = "eval") -> Tensor:
        """Generate a [B, 1, H, W] image in (0, 1) from the mixed code and
        ``content_encode``'s ``depth - 1`` skips; another count, or a skip whose batch
        or size differs from the map it joins (``concat_channels``), raises ShapeError."""
        cfg = self.config
        sizes = cfg.spatial_sizes
        if len(skips) != cfg.depth - 1:
            raise ShapeError(
                f"decode expects {cfg.depth - 1} skip tensors, got {len(skips)}"
            )
        out = mixed.reshape(mixed.shape[0], cfg.code_dim, 1, 1)
        for j in range(cfg.depth):
            if j >= 1:
                out = concat_channels(out, skips[cfg.depth - 1 - j])
            kernel = self.params[f"decoder.{j}.kernel"]
            bias = self.params[f"decoder.{j}.bias"]
            if j < cfg.depth - 1:
                target = sizes[cfg.depth - 2 - j]
                opad = target - (2 * out.shape[2] - 1)
                out = deconv2d(out, kernel, bias, stride=2, padding=1,
                               output_padding=opad)
                out = batchnorm2d(out, self.params[f"decoder.{j}.gamma"],
                                  self.params[f"decoder.{j}.beta"], mode=mode,
                                  running_stats=self.buffers[f"decoder.{j}"])
                out = relu(out)
            else:
                out = deconv2d(out, kernel, bias, stride=1, padding=2)
                out = sigmoid(out)
        return out

    def forward_generate(self, style_x, content_x, mode: str = "eval") -> Tensor:
        """Full pipeline: encode both reference sets, mix, decode."""
        style_code = self.style_encode(style_x, mode=mode)
        content_code, skips = self.content_encode(content_x, mode=mode)
        mixed = self.mix(style_code, content_code)
        return self.decode(mixed, skips, mode=mode)

    def generate_from_refs(self, style_images, content_images) -> np.ndarray:
        """Eval-mode generation for one item or a batch of items.

        One item is r [H, W] reference images per role (a list or an
        [r, H, W] array) and gives one [H, W] image. A batch is a
        [B, r, H, W] array per role and gives [B, H, W], one forward for all
        B items. Any other rank, or style and content batches of different
        sizes, raise ShapeError.
        """
        style = np.asarray(style_images, dtype=self.dtype)
        content = np.asarray(content_images, dtype=self.dtype)
        if style.ndim != content.ndim or style.ndim not in (3, 4):
            raise ShapeError(
                f"reference images must be [r, H, W] or [B, r, H, W] per role, got "
                f"style {style.shape} and content {content.shape}"
            )
        one_item = style.ndim == 3
        if one_item:
            style, content = style[None], content[None]
        out = self.forward_generate(Tensor(style), Tensor(content), mode="eval").data[:, 0]
        return out[0] if one_item else out


def stack_triplets(triplets) -> tuple:
    """Batch triplets into (style [B,r,H,W], content [B,r,H,W], targets [B,1,H,W])."""
    style = np.stack([np.stack(t.style_refs.images) for t in triplets])
    content = np.stack([np.stack(t.content_refs.images) for t in triplets])
    targets = np.stack([t.target[None] for t in triplets])
    return style, content, targets
