"""Reference-set typeface transfer network.

Four subnets: a style encoder and a content encoder (stacks of
Convolution-BatchNorm-LeakyReLU blocks that reduce the r channel-concatenated
reference images to a 1x1 code), a bilinear mixer combining the two codes,
and a decoder of Deconvolution-BatchNorm-ReLU blocks that is symmetrical to
the encoder. Each decoder block input is channel-concatenated with the
output of the symmetric content-encoder block, except at the 1x1 bottleneck,
which is the mixer output itself; the final 5x5 stride-1 deconvolution maps
to one channel through a sigmoid.
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


def _spatial_chain(size: int) -> tuple:
    sizes = [size]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] - 1) // 2 + 1)  # conv k3 s2 p1 halves, ceil mode
    return tuple(sizes)


@dataclass(frozen=True)
class FontNetConfig:
    """Architecture knobs; the defaults are the desk-scale configuration."""

    image_size: int = 64
    base_channels: int = 16
    ref_count: int = 4
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5
    leaky_slope: float = 0.2
    init_std: float = 0.02

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
        return _spatial_chain(self.image_size)

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


class NetworkParams:
    """Ordered, uniquely named collection of trainable tensors."""

    def __init__(self):
        self._tensors: dict = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor = Tensor(array, requires_grad=True)
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return self._tensors.keys()

    def items(self):
        return self._tensors.items()

    def values(self):
        return self._tensors.values()

    def zero_grad(self) -> None:
        for tensor in self._tensors.values():
            tensor.grad = None


def config_record(config) -> np.ndarray:
    """A config dataclass as the UTF-8 bytes of its JSON, one value per byte.

    Bytes are exact in a float32 checkpoint; float fields (1e-5, say) are not."""
    text = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float64)


def _same_kind(value, default) -> bool:
    """Whether a decoded JSON value has the type of a field's default."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
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


def _concat_refs(images) -> np.ndarray:
    """Stack r [H, W] reference images into a [1, r, H, W] encoder input."""
    return np.stack([np.asarray(im, dtype=np.float64) for im in images])[None]


class FontNet:
    """Typeface transfer model: parameters, batch-norm buffers, forward ops."""

    def __init__(self, config: FontNetConfig, params: NetworkParams, buffers: dict):
        self.config = config
        self.params = params
        self.buffers = buffers  # name -> ChannelStats

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(cls, config: FontNetConfig, seed: int = 0) -> "FontNet":
        rng = np.random.default_rng([809, seed])
        params = NetworkParams()
        buffers: dict = {}

        def conv_block(prefix, i, cin, cout, k, with_bn=True):
            params.add(f"{prefix}.{i}.kernel",
                       rng.normal(0.0, config.init_std, size=(cout, cin, k, k)))
            params.add(f"{prefix}.{i}.bias", np.zeros(cout))
            if with_bn:
                params.add(f"{prefix}.{i}.gamma", np.ones(cout))
                params.add(f"{prefix}.{i}.beta", np.zeros(cout))
                buffers[f"{prefix}.{i}"] = ChannelStats(np.zeros(cout), np.ones(cout))

        enc = config.encoder_channels
        for prefix in ("style_enc", "content_enc"):
            cin = config.ref_count
            for i, cout in enumerate(enc):
                k = 5 if i == 0 else 3
                conv_block(prefix, i, cin, cout, k)
                cin = cout

        code = config.code_dim
        params.add("mixer.tensor", rng.normal(0.0, config.init_std, size=(code, code, code)))

        dec = config.decoder_channels
        cin = code
        for j, cout in enumerate(dec):
            if j >= 1:
                cin += enc[config.depth - 1 - j]  # skip concat widens the input
            # deconv kernels are laid out (Cin, Cout, k, k)
            params.add(f"decoder.{j}.kernel",
                       rng.normal(0.0, config.init_std, size=(cin, cout, 3, 3)))
            params.add(f"decoder.{j}.bias", np.zeros(cout))
            params.add(f"decoder.{j}.gamma", np.ones(cout))
            params.add(f"decoder.{j}.beta", np.zeros(cout))
            buffers[f"decoder.{j}"] = ChannelStats(np.zeros(cout), np.ones(cout))
            cin = cout
        last = config.depth - 1
        cin = (dec[-1] if dec else code) + enc[0]
        params.add(f"decoder.{last}.kernel",
                   rng.normal(0.0, config.init_std, size=(cin, 1, 5, 5)))
        params.add(f"decoder.{last}.bias", np.zeros(1))
        return cls(config, params, buffers)

    # -- checkpoint state ----------------------------------------------------

    def state_arrays(self) -> dict:
        """Named arrays covering parameters, BN buffers, and the config record."""
        state = {name: t.data for name, t in self.params.items()}
        for name, stats in self.buffers.items():
            state[f"{name}.run_mean"] = np.asarray(stats.mean)
            state[f"{name}.run_std"] = np.asarray(stats.std)
        state["meta.font"] = config_record(self.config)
        return state

    @classmethod
    def from_state(cls, arrays: dict) -> "FontNet":
        net = cls.initialize(read_config(FontNetConfig, arrays, "meta.font"), seed=0)
        check_state(net.state_arrays(), arrays, "meta.font")
        for name, tensor in net.params.items():
            tensor.data = np.asarray(arrays[name], dtype=np.float64)
        for name, stats in net.buffers.items():
            stats.mean = np.asarray(arrays[f"{name}.run_mean"], dtype=np.float64)
            stats.std = np.asarray(arrays[f"{name}.run_std"], dtype=np.float64)
        return net

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

    def _encode(self, prefix: str, x: Tensor, mode: str, keep_skips: bool):
        cfg = self.config
        skips = []
        out = x
        for i in range(cfg.depth):
            k, stride, pad = (5, 1, 2) if i == 0 else (3, 2, 1)
            out = conv2d(out, self.params[f"{prefix}.{i}.kernel"],
                         self.params[f"{prefix}.{i}.bias"], stride=stride, padding=pad)
            out = batchnorm2d(out, self.params[f"{prefix}.{i}.gamma"],
                              self.params[f"{prefix}.{i}.beta"], mode=mode,
                              running_stats=self.buffers[f"{prefix}.{i}"],
                              momentum=cfg.bn_momentum, epsilon=cfg.bn_epsilon)
            out = leaky_relu(out, cfg.leaky_slope)
            if keep_skips and i < cfg.depth - 1:
                skips.append(out)
        code = out.reshape(out.shape[0], cfg.code_dim)
        return code, skips

    def style_encode(self, x, mode: str = "eval") -> Tensor:
        """Style code [B, code_dim] from channel-concatenated reference images."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        self._check_ref_input(x, "style")
        code, _ = self._encode("style_enc", x, mode, keep_skips=False)
        return code

    def content_encode(self, x, mode: str = "eval"):
        """Content code [B, code_dim] plus per-block skip feature maps."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        self._check_ref_input(x, "content")
        return self._encode("content_enc", x, mode, keep_skips=True)

    def mix(self, style_code: Tensor, content_code: Tensor) -> Tensor:
        return bilinear_contract(style_code, self.params["mixer.tensor"], content_code)

    def decode(self, mixed: Tensor, skips, mode: str = "eval",
               zero_skips: bool = False) -> Tensor:
        """Generate a [B, 1, H, W] image in (0, 1) from the mixed code."""
        cfg = self.config
        sizes = cfg.spatial_sizes
        if len(skips) != cfg.depth - 1:
            raise ShapeError(
                f"decode expects {cfg.depth - 1} skip tensors, got {len(skips)}"
            )
        out = mixed.reshape(mixed.shape[0], cfg.code_dim, 1, 1)
        for j in range(cfg.depth):
            if j >= 1:
                skip = skips[cfg.depth - 1 - j]
                want = sizes[cfg.depth - 1 - j]
                if skip.shape[0] != out.shape[0] or skip.shape[2:] != (want, want):
                    raise ShapeError(
                        f"skip {cfg.depth - 1 - j} has shape {tuple(skip.shape)}, "
                        f"expected spatial {want}x{want}"
                    )
                if zero_skips:
                    skip = Tensor(np.zeros_like(skip.data))
                out = concat_channels(out, skip)
            kernel = self.params[f"decoder.{j}.kernel"]
            bias = self.params[f"decoder.{j}.bias"]
            if j < cfg.depth - 1:
                target = sizes[cfg.depth - 2 - j]
                opad = target - (2 * out.shape[2] - 1)
                out = deconv2d(out, kernel, bias, stride=2, padding=1,
                               output_padding=opad)
                out = batchnorm2d(out, self.params[f"decoder.{j}.gamma"],
                                  self.params[f"decoder.{j}.beta"], mode=mode,
                                  running_stats=self.buffers[f"decoder.{j}"],
                                  momentum=cfg.bn_momentum, epsilon=cfg.bn_epsilon)
                out = relu(out)
            else:
                out = deconv2d(out, kernel, bias, stride=1, padding=2)
                out = sigmoid(out)
        return out

    def forward_generate(self, style_x, content_x, mode: str = "eval",
                         zero_skips: bool = False) -> Tensor:
        """Full pipeline: encode both reference sets, mix, decode."""
        style_code = self.style_encode(style_x, mode=mode)
        content_code, skips = self.content_encode(content_x, mode=mode)
        mixed = self.mix(style_code, content_code)
        return self.decode(mixed, skips, mode=mode, zero_skips=zero_skips)

    def generate_from_refs(self, style_images, content_images,
                           zero_skips: bool = False) -> np.ndarray:
        """Eval-mode generation from two lists of [H, W] reference images."""
        out = self.forward_generate(
            Tensor(_concat_refs(style_images)), Tensor(_concat_refs(content_images)),
            mode="eval", zero_skips=zero_skips,
        )
        return out.data[0, 0]


def stack_triplets(triplets) -> tuple:
    """Batch training triplets into (style [B,r,H,W], content [B,r,H,W], targets [B,1,H,W])."""
    style = np.stack([np.stack(t.style_refs.images) for t in triplets])
    content = np.stack([np.stack(t.content_refs.images) for t in triplets])
    targets = np.stack([t.target[None] for t in triplets])
    return style, content, targets
