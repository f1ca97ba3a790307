"""End-to-end optimization, evaluation over the four cells, and checkpoints.

Training iterates batch sampling -> forward generation -> weighted L1 ->
backward -> gradient clipping -> Adam. ``FontNet`` (in ``train`` and
``evaluate``) and ``NstNet`` (in ``train_nst_pair``) compute in float32, their
parameters' dtype: every forward, backward, clip and Adam step runs in it.
The corpus caches its images in float32 too, so batches and evaluation chunks
are stacked in that dtype and reach the net without a cast copy.
With a fixed seed and single-threaded execution every run is bit-reproducible.
Checkpoints serialize named tensors in 32-bit, the model's whole config among
them as a byte record, so every model round-trips through one bit for bit.
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stylemix.autodiff import Graph, Tensor
from stylemix.fontnet import CheckpointError, FontNet, FontNetConfig, check_finite, stack_triplets
from stylemix.glyphs import Corpus, check_training_draw, sample_training_batch
from stylemix.losses import l1_metric, pdar_metric, rmse_metric, weighted_l1_loss
from stylemix.nst import FeatureExtractor, LossWeights, NstNet, nst_objective

CHECKPOINT_MAGIC = b"EMD1"
CHECKPOINT_VERSION = 1
ADAM_BLOCK = 16384  # elements per Adam block: two float32 scratch buffers of 64 KiB
# items per evaluate() forward, set by memory: one float32 forward of the
# default 64 px net peaks at 4.75 MiB traced for 3 items and 6.3 MiB for 4
EVAL_BATCH = 3


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or inconsistent configuration)."""


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, arrays: dict) -> None:
    """Atomically write named float arrays as 32-bit little-endian tensors."""
    path = Path(path)
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<HI", CHECKPOINT_VERSION, len(arrays))
    for name, array in arrays.items():
        encoded = name.encode("utf-8")
        array = np.asarray(array)
        if array.ndim > 255:
            raise CheckpointError(f"tensor {name!r} rank {array.ndim} exceeds format limit")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", array.ndim)
        for extent in array.shape:
            blob += struct.pack("<I", extent)
        blob += array.astype("<f4").tobytes()
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_bytes(bytes(blob))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _check_rate(learning_rate: float, dtype) -> None:
    """Raise ValueError unless ``learning_rate`` is finite once cast to ``dtype``,
    the parameters' dtype that Adam computes in: 1e300 is finite in float64 but
    inf in float32, and would turn every updated weight into NaN."""
    with np.errstate(over="ignore"):  # the overflow is what is reported
        rate = np.asarray(learning_rate).astype(dtype)
    if not np.isfinite(rate):
        raise ValueError(f"learning_rate {learning_rate} is non-finite in {np.dtype(dtype)}, "
                         f"the parameters' dtype")


def load_checkpoint(path) -> dict:
    """Read a checkpoint back into float32 arrays, validating the layout.

    Each tensor is its own writable array, not a view of the file's bytes.
    """
    path = Path(path)
    data = memoryview(path.read_bytes())  # slices are views: each tensor is copied once
    pos = 0

    def need(count: int, what: str) -> memoryview:
        nonlocal pos
        if pos + count > len(data):
            raise CheckpointError(
                f"{path}: truncated while reading {what} at byte {pos} "
                f"(need {count}, have {len(data) - pos})"
            )
        chunk = data[pos:pos + count]
        pos += count
        return chunk

    if need(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version, count = struct.unpack("<HI", need(6, "header"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    arrays: dict = {}
    for index in range(count):
        (name_len,) = struct.unpack("<H", need(2, f"tensor {index} name length"))
        name = str(need(name_len, f"tensor {index} name"), "utf-8")
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r} at byte {pos}")
        (rank,) = struct.unpack("<B", need(1, f"{name!r} rank"))
        shape = struct.unpack(f"<{rank}I", need(4 * rank, f"{name!r} extents"))
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        raw = need(4 * size, f"{name!r} values")
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
    if pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos} trailing bytes after last tensor")
    return arrays


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment buffers plus hyperparameters.

    ``adam_step`` creates each moment buffer C-contiguous with its
    parameter's shape and updates it in place.
    """

    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state: AdamState) -> None:
    """Bias-corrected Adam update over every parameter's populated gradient.

    The update runs in each parameter's dtype: its moments, scratch and new
    values take that dtype. It streams each parameter in blocks of
    ``ADAM_BLOCK`` elements: within a block it applies the textbook
    arithmetic in its usual order with ``out=`` ufuncs on two block-sized
    scratch buffers, so it allocates no parameter-sized temporary and reads
    ``p``, ``g``, ``m`` and ``v`` from memory once. ``m`` and ``v`` are
    updated in place. The new values go into one fresh array that ``p.data``
    is then rebound to: tensors are immutable after creation and ``p.data``
    may be shared with a caller (``from_state``, ``state_arrays()``), so it is
    never written in place.
    """
    state.step_count += 1
    t = state.step_count
    beta1, beta2 = state.beta1, state.beta2
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    largest = max((p.data.size for p in params.values()), default=0)
    scratch_a = scratch_b = None
    for name, p in params.items():
        if p.grad is None:
            raise TrainingError(f"parameter {name!r} has no gradient for the Adam step")
        if p.grad.shape != p.shape:
            raise TrainingError(
                f"parameter {name!r} has shape {p.shape} but its gradient {p.grad.shape}"
            )
        dtype = p.data.dtype
        if scratch_a is None or scratch_a.dtype != dtype:
            scratch_a = np.empty(min(largest, ADAM_BLOCK), dtype=dtype)
            scratch_b = np.empty_like(scratch_a)
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros(p.shape, dtype=dtype)
            state.v[name] = np.zeros(p.shape, dtype=dtype)
        m, v = m.reshape(-1), state.v[name].reshape(-1)  # views of the C-contiguous moments
        g, old = p.grad.reshape(-1), p.data.reshape(-1)
        new = np.empty(p.shape, dtype=dtype)
        flat = new.reshape(-1)
        for start in range(0, flat.size, ADAM_BLOCK):
            end = min(start + ADAM_BLOCK, flat.size)
            a, b = scratch_a[:end - start], scratch_b[:end - start]
            mb, vb, gb = m[start:end], v[start:end], g[start:end]
            np.multiply(mb, beta1, out=mb)
            np.multiply(gb, 1.0 - beta1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, beta2, out=vb)
            np.multiply(gb, gb, out=a)
            np.multiply(a, 1.0 - beta2, out=a)
            np.add(vb, a, out=vb)
            np.divide(vb, correction2, out=a)  # v_hat
            np.sqrt(a, out=a)
            np.add(a, state.epsilon, out=a)
            np.divide(mb, correction1, out=b)  # m_hat
            np.multiply(b, state.learning_rate, out=b)
            np.divide(b, a, out=b)
            np.subtract(old[start:end], b, out=flat[start:end])
        p.data = new


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the norm before clipping. Clipped gradients are rebound to
    scaled copies, never scaled in place, because backward may hand one
    gradient array to several leaves (``add`` passes the same array to both
    operands).
    """
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            g = p.grad.ravel()
            total += float(np.dot(g, g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# ---------------------------------------------------------------------------
# typeface training and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    learning_rate: float = 2e-4
    batch_size: int = 4
    n_t: int = 20000
    r: int = 4
    base_channels: int = 16
    seed: int = 0
    clip_norm: float = 5.0
    start_step: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.learning_rate > 0 or not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        if self.start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {self.start_step}")
        if self.batch_size < 2:
            # train-mode batch-norm at the 1x1 bottleneck sees zero variance in
            # a batch of one, so the style encoder would get an all-zero gradient
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")


@dataclass
class TrainResult:
    net: FontNet
    losses: list


@dataclass(frozen=True)
class SuiteMetrics:
    l1: float
    rmse: float
    pdar: float


def train(config: TrainConfig, corpus: Corpus, net: FontNet | None = None,
          adam: AdamState | None = None, log_path=None) -> TrainResult:
    """Optimize the weighted L1 objective over d1 triplets.

    Deterministic for a fixed config and corpus in single-threaded execution.
    Appends "step,loss,wall_ms" lines to ``log_path`` when given; aborts with
    a diagnostic on a non-finite loss. Before the log is opened or any
    update, raises TrainingError when the net's r or image size differs from
    the run's, CorpusError when the corpus cannot supply its batches, and
    ValueError when Adam's learning rate is not finite in the parameters'
    dtype. To evaluate mid-run, call ``evaluate`` between runs that pass
    ``start_step``, ``net`` and ``adam`` on.
    """
    if net is None:
        net = FontNet.initialize(
            FontNetConfig(image_size=corpus.config.image_size,
                          base_channels=config.base_channels,
                          ref_count=config.r),
            seed=config.seed,
        )
    if net.config.ref_count != config.r:
        raise TrainingError(
            f"model expects r={net.config.ref_count} but the run is configured "
            f"with r={config.r}"
        )
    if net.config.image_size != corpus.config.image_size:
        raise TrainingError(
            f"model expects {net.config.image_size}px images but the corpus holds "
            f"{corpus.config.image_size}px"
        )
    if adam is None:
        adam = AdamState(learning_rate=config.learning_rate)
    _check_rate(adam.learning_rate, net.dtype)
    check_training_draw(corpus, config.n_t, config.r, config.batch_size)
    log_file = open(log_path, "a", encoding="ascii") if log_path else None
    losses: list = []
    try:
        for step in range(config.start_step, config.start_step + config.steps):
            t0 = time.perf_counter()
            triplets = sample_training_batch(
                corpus, config.n_t, config.r, config.batch_size, config.seed, step
            )
            style_x, content_x, targets = stack_triplets(triplets)
            graph = Graph()
            with graph:
                generated = net.forward_generate(style_x, content_x, mode="train")
                loss = weighted_l1_loss(generated, targets)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                ids = [(t.style_id, t.content_id) for t in triplets]
                raise TrainingError(
                    f"non-finite loss {loss_value} at step {step} on batch {ids}"
                )
            graph.backward(loss)
            clip_gradients(net.params, config.clip_norm)
            adam_step(net.params, adam)
            net.params.zero_grad()
            wall_ms = (time.perf_counter() - t0) * 1000.0
            losses.append(loss_value)
            if log_file:
                log_file.write(f"{step},{loss_value:.10g},{wall_ms:.1f}\n")
    finally:
        if log_file:
            log_file.close()
    return TrainResult(net=net, losses=losses)


def evaluate(net: FontNet, suites: dict) -> dict:
    """Mean L1/RMSE/PDAR of eval-mode generations against targets per suite.

    Each suite runs in chunks of ``EVAL_BATCH`` items: a chunk's reference
    sets are stacked into [B, r, H, W] style and content arrays and go
    through one batched ``net.generate_from_refs`` call. The per-item
    metrics are summed in item order.
    """
    results: dict = {}
    for cell, items in suites.items():
        if not items:
            raise ValueError(f"evaluation suite {cell!r} is empty")
        l1 = rmse = pdar = 0.0
        for start in range(0, len(items), EVAL_BATCH):
            chunk = items[start:start + EVAL_BATCH]
            generated = net.generate_from_refs(
                np.stack([item.style_refs.images for item in chunk]),
                np.stack([item.content_refs.images for item in chunk]),
            )
            for image, item in zip(generated, chunk):
                l1 += l1_metric(image, item.target)
                rmse += rmse_metric(image, item.target)
                pdar += pdar_metric(image, item.target)
        n = len(items)
        results[cell] = SuiteMetrics(l1=l1 / n, rmse=rmse / n, pdar=pdar / n)
    return results


# ---------------------------------------------------------------------------
# single-pair stylization training
# ---------------------------------------------------------------------------


def train_nst_pair(net: NstNet, extractor: FeatureExtractor, style_img, content_img,
                   steps: int = 500, learning_rate: float = 1e-3,
                   weights: LossWeights = LossWeights(),
                   optimize_prefix: str = "decoder.", clip_norm: float = 10.0) -> list:
    """Optimize one subnet (the decoder by default) on one style/content pair.

    Parameters outside ``optimize_prefix`` are frozen for the length of the
    call: they are neither taped nor given a gradient, and their
    ``requires_grad`` flag is restored on return, also when the call raises.

    The encoders and the mixer see the same images every step, so when the
    first step computes the mixed features untaped (every parameter they
    depend on is frozen, as with the default prefix) those features, with
    the content features and style statistics behind them, are computed
    once per call and reused; when they are taped (say, with
    ``optimize_prefix="style_enc."``) they are recomputed every step.
    The images are cast to ``net.dtype``, so the whole step computes in the
    parameters' dtype, and a ``learning_rate`` that is not finite in it
    raises ValueError. Returns the per-step total-loss trace.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not learning_rate > 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    _check_rate(learning_rate, net.dtype)
    if not clip_norm > 0:
        raise ValueError(f"clip_norm must be > 0, got {clip_norm}")
    style = Tensor(np.asarray(style_img, dtype=net.dtype))
    content = Tensor(np.asarray(content_img, dtype=net.dtype))
    subset = {name: p for name, p in net.params.items()
              if name.startswith(optimize_prefix)}
    if not subset:
        raise TrainingError(f"no parameters match prefix {optimize_prefix!r}")
    frozen = [p for name, p in net.params.items()
              if name not in subset and p.requires_grad]
    adam = AdamState(learning_rate=learning_rate)
    trace: list = []
    try:
        for p in frozen:
            p.requires_grad = False
        mixed = sizes = None
        for step in range(steps):
            graph = Graph()
            with graph:
                if mixed is None or mixed.requires_grad:
                    mixed, sizes = net.mix_features(content, net.style_encode(style))
                generated = net.decode(mixed, sizes)
                loss, _ = nst_objective(extractor, generated, content, style, weights)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingError(f"non-finite stylization loss {loss_value} at step {step}")
            graph.backward(loss)
            clip_gradients(subset, clip_norm)
            adam_step(subset, adam)
            net.params.zero_grad()
            trace.append(loss_value)
    finally:
        for p in frozen:
            p.requires_grad = True
    return trace
