"""End-to-end optimization, evaluation over the four cells, and checkpoints.

Both trainers step through ``fit_step``: tape the loss, refuse a non-finite
one, backward, clip, Adam. ``train`` feeds it a batch's weighted L1 and
``train_nst_pair`` a pair's stylization objective. ``FontNet`` (in ``train`` and
``evaluate``) and ``NstNet`` (in ``train_nst_pair``) compute in float32, their
parameters' dtype: every forward, backward, clip and Adam step runs in it.
The corpus caches its images in float32 too, so batches and evaluation chunks
are stacked in that dtype and reach the net without a cast copy.
Adam's learning rate lives only on ``AdamState``: ``train`` steps with the one it is
passed, or a fresh ``AdamState()``'s 2e-4.
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
from typing import ClassVar

import numpy as np

from stylemix.autodiff import Graph, Tensor
from stylemix.fontnet import CheckpointError, FontNet, check_finite, stack_triplets
from stylemix.glyphs import Corpus, check_training_draw, sample_training_batch
from stylemix.losses import l1_metric, pdar_metric, rmse_metric, weighted_l1_loss
from stylemix.nst import FeatureExtractor, NstNet, nst_objective

CHECKPOINT_MAGIC = b"EMD1"
CHECKPOINT_VERSION = 1
ADAM_BLOCK = 16384  # elements per Adam block: two float32 scratch buffers of 64 KiB
# items per evaluate() forward, set by memory: a float32 forward of the default 64 px
# net peaks in deconv2d at decoder.5, at 4.72 MiB traced for 3 items, 9.34 for 6 and
# 12.44 for 8. It costs speed: on 2 vCPUs with 1 BLAS thread, 8 items cut font_eval
# op_ms_p50 171-178 -> 141-148 ms, at peak_rss_mb 73.0 -> 81.7-83.2 MB (3 run pairs).
EVAL_BATCH = 3
# Adam's moment decays and denominator guard: Kingma & Ba's defaults (arXiv 1412.6980,
# Algorithm 1)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
CLIP_NORM = 5.0  # train()'s cap on the global gradient norm
NST_LEARNING_RATE = 1e-3  # train_nst_pair()'s Adam rate
NST_CLIP_NORM = 10.0  # train_nst_pair()'s cap on the decoder's gradient norm


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or inconsistent configuration)."""


class NonFiniteLoss(TrainingError):
    """A non-finite loss, refused by ``fit_step`` before any update."""

    def __init__(self, value: float):
        super().__init__(f"non-finite loss {value}")
        self.value = value


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_checkpoint(path, arrays: dict) -> None:
    """Atomically write named float arrays as 32-bit little-endian tensors.

    Each tensor goes straight from its array into a temporary file, which then
    replaces ``path``: a float32 C-contiguous array is written without a copy,
    and no whole-file buffer is built.
    """
    path = Path(path)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("wb") as out:
            out.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(arrays)))
            for name, array in arrays.items():
                encoded = name.encode("utf-8")
                array = np.asarray(array, dtype="<f4", order="C")
                if array.ndim > 255:
                    raise CheckpointError(
                        f"tensor {name!r} rank {array.ndim} exceeds format limit")
                out.write(struct.pack(f"<H{len(encoded)}sB{array.ndim}I", len(encoded),
                                      encoded, array.ndim, *array.shape))
                out.write(array.data)
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
    """The learning rate, the step count and the first/second moment buffers.

    The rate must be finite and > 0. ``adam_step`` creates each moment buffer
    C-contiguous with its parameter's shape and updates it in place.
    """

    learning_rate: float = 2e-4
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.learning_rate > 0 or not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def adam_step(params, state: AdamState) -> None:
    """Bias-corrected Adam update over every parameter's populated gradient,
    with ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``.

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
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
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
            np.add(a, ADAM_EPSILON, out=a)
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


def fit_step(params, loss_fn, adam: AdamState, clip_norm: float) -> float:
    """Tape ``loss_fn()`` in one fresh ``Graph``, backpropagate, clip, take one Adam
    step over ``params`` and clear their gradients. Returns the loss value; a
    non-finite one raises NonFiniteLoss before any gradient or update."""
    graph = Graph()
    with graph:
        loss = loss_fn()
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise NonFiniteLoss(loss_value)
    graph.backward(loss)
    clip_gradients(params, clip_norm)
    adam_step(params, adam)
    for p in params.values():
        p.grad = None
    return loss_value


# ---------------------------------------------------------------------------
# typeface training and evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    # triplets per step, a constant rather than a field; it must be at least 2:
    # train-mode batch-norm at the 1x1 bottleneck sees zero variance in a batch
    # of one, so the style encoder would get an all-zero gradient
    batch_size: ClassVar[int] = 4
    steps: int = 2000
    n_t: int = 20000
    seed: int = 0
    start_step: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.start_step < 0:
            raise ValueError(f"start_step must be >= 0, got {self.start_step}")


@dataclass
class TrainResult:
    net: FontNet
    losses: list


@dataclass(frozen=True)
class SuiteMetrics:
    l1: float
    rmse: float
    pdar: float


def train(config: TrainConfig, corpus: Corpus, net: FontNet,
          adam: AdamState | None = None, log_path=None) -> TrainResult:
    """Optimize ``net`` on the weighted L1 objective over d1 triplets of
    ``net.config.ref_count`` references per set, by Adam at
    ``adam.learning_rate``, clipping the global gradient norm at ``CLIP_NORM``.
    Without ``adam``, it steps a fresh ``AdamState()``, at rate 2e-4.

    Deterministic for a fixed config, corpus and net in single-threaded
    execution. Writes "step,loss,wall_ms" lines to ``log_path`` when given: a
    run that starts at step 0 replaces the file, one that continues from a
    later ``start_step`` appends to it. Aborts with a diagnostic on a
    non-finite loss, leaving the net (its batch-norm running statistics
    included) and Adam as the last good step left them. Before the log is
    opened or any update, raises CorpusError when the corpus cannot supply the
    net's batches, TrainingError when the net's image size differs from the
    corpus's, and ValueError when Adam's learning rate is not finite in the
    parameters' dtype. To evaluate mid-run, call ``evaluate`` between runs
    that pass ``start_step``, ``net`` and ``adam`` on.
    """
    r = net.config.ref_count
    check_training_draw(corpus, config.n_t, r, config.batch_size)
    if net.config.image_size != corpus.config.image_size:
        raise TrainingError(
            f"model expects {net.config.image_size}px images but the corpus holds "
            f"{corpus.config.image_size}px"
        )
    if adam is None:
        adam = AdamState()
    _check_rate(adam.learning_rate, net.dtype)
    mode = "a" if config.start_step else "w"  # a continued run extends its log
    log_file = open(log_path, mode, encoding="ascii") if log_path else None
    losses: list = []
    try:
        for step in range(config.start_step, config.start_step + config.steps):
            t0 = time.perf_counter()
            triplets = sample_training_batch(
                corpus, config.n_t, r, config.batch_size, config.seed, step
            )
            style_x, content_x, targets = stack_triplets(triplets)
            # train-mode batch-norm rebinds these in the forward, before the loss is checked
            running = [(stats, stats.mean, stats.std) for stats in net.buffers.values()]

            def batch_loss():
                generated = net.forward_generate(style_x, content_x, mode="train")
                return weighted_l1_loss(generated, targets)

            loss_value = fit_step(net.params, batch_loss, adam, CLIP_NORM)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            losses.append(loss_value)
            if log_file:
                log_file.write(f"{step},{loss_value:.10g},{wall_ms:.1f}\n")
    except NonFiniteLoss as error:
        for stats, mean, std in running:  # a refused step moves no running statistic
            stats.mean, stats.std = mean, std
        ids = [(t.style_id, t.content_id) for t in triplets]
        raise TrainingError(
            f"non-finite loss {error.value} at step {step} on batch {ids}") from None
    finally:
        if log_file:
            log_file.close()
    return TrainResult(net=net, losses=losses)


def evaluate(net: FontNet, suites: dict) -> dict:
    """Mean L1/RMSE/PDAR of eval-mode generations against targets per suite.

    Each suite runs in chunks of ``EVAL_BATCH`` items: ``stack_triplets``
    stacks a chunk's reference sets into [B, r, H, W] style and content
    arrays, which go through one batched ``net.generate_from_refs`` call.
    The per-item metrics are summed in item order.
    """
    results: dict = {}
    for cell, items in suites.items():
        if not items:
            raise ValueError(f"evaluation suite {cell!r} is empty")
        l1 = rmse = pdar = 0.0
        for start in range(0, len(items), EVAL_BATCH):
            chunk = items[start:start + EVAL_BATCH]
            style, content, _ = stack_triplets(chunk)
            generated = net.generate_from_refs(style, content)
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
                   steps: int = 500) -> list:
    """Fit the decoder on one style/content pair against fixed encoder features,
    by Adam at ``NST_LEARNING_RATE`` with the gradient norm clipped at
    ``NST_CLIP_NORM``.

    The encoders and the mixer see the same images every step, so the mixed
    features are computed once, before any graph is active: nothing upstream
    of the decoder is taped, only ``decoder.*`` parameters get a gradient,
    and no parameter's ``requires_grad`` flag is touched.
    The images, arrays or Tensors, are cast to ``net.dtype``, so the whole
    step computes in the parameters' dtype. Returns the per-step total-loss
    trace.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    style, content = (Tensor(np.asarray(img.data if isinstance(img, Tensor) else img,
                                        dtype=net.dtype)) for img in (style_img, content_img))
    decoder = {name: p for name, p in net.params.items() if name.startswith("decoder.")}
    adam = AdamState(learning_rate=NST_LEARNING_RATE)
    mixed, sizes = net.mix_features(content, net.style_encode(style))

    def pair_loss():
        return nst_objective(extractor, net.decode(mixed, sizes), content, style)[0]

    trace: list = []
    try:
        for step in range(steps):
            trace.append(fit_step(decoder, pair_loss, adam, NST_CLIP_NORM))
    except NonFiniteLoss as error:
        raise TrainingError(
            f"non-finite stylization loss {error.value} at step {step}") from None
    return trace
