"""One benchmark workload in one process: set-up, a timed closed loop, checks.

``run.py`` starts this file in a fresh process with BLAS pinned to one
thread and reads the JSON object it prints as its last stdout line. One op is
one timed call into the program; the next op starts when the previous one
ends (one client, closed loop). Every op's output is checked after its timer
stops, and an op whose check fails counts as failed.

With ``--trace 1`` the same workload runs with spans recorded around the
calls into each layer (see ``tracer.py``): ops alternate in blocks between
traced and untraced, so the run also measures its own tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stylemix import autodiff, cli, glyphs, netpbm, training
from stylemix.fontnet import FontNet, FontNetConfig
from stylemix.losses import DegenerateTargetWarning, l1_metric, pdar_metric, rmse_metric
from stylemix.nst import FeatureExtractor, NstConfig, NstNet

import tracer as tr

IMPORTED_AT = time.time()

SETUP_REPEATS = 3  # setup_s is the import time plus the median of these
TRACE_BLOCKS = 2  # trace runs need a traced and an untraced block of ops
COUNT_WINDOW = 8  # exact counts come from the traced ops among the first 8
LOSS_WINDOW = 10  # loss_end averages this many training losses
FONT_TRAIN_STEPS = 30  # loss_end on font_train: steps 21..30 of the trajectory
NST_STEPS = 10  # train_nst_pair steps per nst_train op
EVAL_TOLERANCE = 1e-9
TRACE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Size:
    glyph_px: int
    styles: int
    contents: int
    per_set: int
    stylize_px: int
    nst_train_px: int


SIZES = {
    "full": Size(glyph_px=64, styles=40, contents=60, per_set=24,
                 stylize_px=256, nst_train_px=64),
    "tiny": Size(glyph_px=16, styles=8, contents=8, per_set=2,
                 stylize_px=32, nst_train_px=16),
}


# ---------------------------------------------------------------------------
# workloads
#
# Each class builds its inputs in __init__ (the set-up that setup_s times,
# warm-up included), runs one op per op(k) call, and checks that op's output
# in check(k, result), outside the timed region.
# ---------------------------------------------------------------------------


class FontTrain:
    """One op is one train() step; the net and Adam state carry over.

    The trajectory starts from the default corpus and net seed whatever the
    workload seed: training is chaotic enough that end losses of different
    seeds differ by about 30%, which would hide any precision change in
    loss_end. Step 0 is the warm-up; op k runs step k + 1.
    """

    rotation = 1
    min_ops = FONT_TRAIN_STEPS

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.corpus = glyphs.Corpus(glyphs.CorpusConfig(
            n_styles=size.styles, n_contents=size.contents, image_size=size.glyph_px))
        self.net = FontNet.initialize(FontNetConfig(image_size=size.glyph_px))
        self.adam = training.AdamState()
        self.items_per_op = training.TrainConfig().batch_size
        self.losses: dict = {}
        self._train(0)

    def _train(self, step: int):
        config = training.TrainConfig(steps=1, start_step=step)
        return training.train(config, self.corpus, net=self.net, adam=self.adam)

    def op(self, k: int):
        return self._train(k + 1)

    def check(self, k: int, result) -> bool:
        loss = result.losses[0]
        self.losses[k] = loss
        return bool(np.isfinite(loss)) and all(
            np.isfinite(p.data).all() for p in self.net.params.values())

    def loss_end(self) -> float:
        window = range(FONT_TRAIN_STEPS - LOSS_WINDOW, FONT_TRAIN_STEPS)
        return _mean_or_nan([self.losses.get(k) for k in window])


class FontEval:
    """One op is one evaluate() call on one cell's items; cells d1-d4 in turn.

    The seed draws the evaluation items from the default corpus; the net is
    the seed-0 FontNet, because eval L1 of differently seeded untrained nets
    differs by about 5% while item draws move it by about 1%.
    """

    rotation = len(glyphs.CELLS)
    min_ops = len(glyphs.CELLS)

    def __init__(self, seed: int, size: Size, workdir: Path):
        corpus = glyphs.Corpus(glyphs.CorpusConfig(
            n_styles=size.styles, n_contents=size.contents, image_size=size.glyph_px))
        self.suites = glyphs.build_eval_sets(corpus, 4, seed, per_set=size.per_set)
        self.net = FontNet.initialize(FontNetConfig(image_size=size.glyph_px))
        self.items_per_op = size.per_set
        self.reference: dict = {}
        self.op(0)

    def prepare_checks(self) -> None:
        """Per-item recomputation of every cell's metrics, outside the timed loop."""
        for cell, items in self.suites.items():
            rows = []
            for item in items:
                generated = self.net.generate_from_refs(
                    item.style_refs.images, item.content_refs.images)
                rows.append((l1_metric(generated, item.target),
                             rmse_metric(generated, item.target),
                             pdar_metric(generated, item.target)))
            self.reference[cell] = np.mean(rows, axis=0)

    def op(self, k: int):
        cell = glyphs.CELLS[k % len(glyphs.CELLS)]
        return cell, training.evaluate(self.net, {cell: self.suites[cell]})

    def check(self, k: int, result) -> bool:
        cell, metrics = result
        got = metrics[cell]
        return bool(np.all(np.abs(np.array([got.l1, got.rmse, got.pdar])
                                  - self.reference[cell]) <= EVAL_TOLERANCE))

    def loss_end(self) -> float:
        """Eval L1 averaged over the four cells (the per-item recomputation)."""
        return float(np.mean([ref[0] for ref in self.reference.values()]))


class NstStylize:
    """One op is one in-process ``stylemix nst`` call on 256 px RGB files.

    Calls alternate between the trade-off and the two-style interpolation.
    The seed makes the three images; the checkpoint is the seed-0 net that
    ``stylemix nst-init`` writes by default.
    """

    rotation = 2
    min_ops = 2
    items_per_op = 1

    def __init__(self, seed: int, size: Size, workdir: Path):
        rng = np.random.default_rng(seed)
        px = self.px = size.stylize_px
        paths = {name: str(workdir / f"{name}.ppm")
                 for name in ("style", "style2", "content", "out")}
        for name in ("style", "style2", "content"):
            netpbm.write_ppm(paths[name], rng.random((3, px, px)))
        ckpt = str(workdir / "nst.ckpt")
        training.save_checkpoint(ckpt, NstNet.initialize(NstConfig()).state_arrays())
        self.out = Path(paths["out"])
        common = ["--content", paths["content"], "--ckpt", ckpt, "--out", paths["out"]]
        self.argv = [
            ["nst", "--style", paths["style"], "--alpha", "0.6", *common],
            ["nst", "--style", paths["style"], "--interp-style2", paths["style2"],
             "--alpha", "0.4", *common],
        ]
        self.reference = []
        content = netpbm.read_image(paths["content"])
        diffs = []
        for k in range(self.rotation):
            if self.op(k) != cli.EXIT_OK:
                raise RuntimeError(f"warm-up call {self.argv[k]} failed")
            self.reference.append(self.out.read_bytes())
            diffs.append(l1_metric(netpbm.read_image(self.out), content))
        self.content_l1 = float(np.mean(diffs))

    def op(self, k: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv[k % self.rotation])

    def check(self, k: int, code) -> bool:
        if code != cli.EXIT_OK:
            return False
        if netpbm.read_image(self.out).shape != (3, self.px, self.px):
            return False
        return self.out.read_bytes() == self.reference[k % self.rotation]

    def loss_end(self) -> float:
        """Mean absolute difference between the stylized outputs and the content."""
        return self.content_l1


class NstTrain:
    """One op is one train_nst_pair() call of NST_STEPS steps at 64 px.

    Each op restarts from the initial weights (outside the timed region), so
    every op repeats the warm-up's loss trace. The inputs are fixed for the
    same reason as on font_train. Op times are reported per step: the
    ``Graph`` that train_nst_pair creates once per step stamps each start.
    """

    rotation = 1
    min_ops = 1
    items_per_op = NST_STEPS  # one style/content pair per step

    def __init__(self, seed: int, size: Size, workdir: Path):
        rng = np.random.default_rng(0)
        px = size.nst_train_px
        self.style = rng.random((1, 3, px, px))
        self.content = rng.random((1, 3, px, px))
        self.net = NstNet.initialize(NstConfig(), seed=0)
        self.extractor = FeatureExtractor(seed=0)
        self.initial = {name: p.data.copy() for name, p in self.net.params.items()}
        stamps = self.stamps = []

        class StampedGraph(autodiff.Graph):
            def __init__(self):
                stamps.append(time.perf_counter())
                super().__init__()

        training.Graph = StampedGraph
        self.reference = self.op(0)[0]

    def before_op(self, k: int) -> None:
        for name, p in self.net.params.items():
            p.data = self.initial[name].copy()

    def op(self, k: int):
        self.stamps.clear()
        trace = training.train_nst_pair(self.net, self.extractor, self.style,
                                        self.content, steps=NST_STEPS)
        ends = self.stamps[1:] + [time.perf_counter()]
        return trace, [end - start for start, end in zip(self.stamps, ends)]

    def samples(self, result) -> list:
        return result[1]

    def check(self, k: int, result) -> bool:
        trace = np.asarray(result[0])
        return (bool(np.isfinite(trace).all()) and trace[-1] < trace[0]
                and np.allclose(trace, self.reference, rtol=TRACE_TOLERANCE, atol=0.0))

    def loss_end(self) -> float:
        return float(np.mean(self.reference[-LOSS_WINDOW:]))


WORKLOADS = {
    "font_train": FontTrain,
    "font_eval": FontEval,
    "nst_stylize": NstStylize,
    "nst_train": NstTrain,
}


def _mean_or_nan(values) -> float:
    if any(v is None for v in values):
        return float("nan")
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _traced(k: int, rotation: int) -> bool:
    """Trace runs alternate blocks of ``rotation`` ops, starting traced."""
    return (k // rotation) % 2 == 0


def run_ops(wl, seconds: float, tracer=None, patches=None) -> tuple:
    """Closed loop of ops for ``seconds`` (and at least wl.min_ops ops).

    Returns (op seconds, traced flags, failed count, timing samples). The
    samples are the op times, or the step times of a workload whose op runs
    several steps.
    """
    min_ops = wl.min_ops
    if tracer is not None:
        min_ops = max(min_ops, COUNT_WINDOW, TRACE_BLOCKS * wl.rotation)
    durations, traced_flags, samples = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_ops or time.perf_counter() < deadline:
        if hasattr(wl, "before_op"):
            wl.before_op(k)
        traced = tracer is not None and _traced(k, wl.rotation)
        if traced:
            patches.install()
            tracer.op = k
            span = tracer.open("op")
        error = None
        start = time.perf_counter()
        try:
            result = wl.op(k)
        except Exception:  # a failing op is counted, never dropped
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if traced:
            tracer.close(span)
            tracer.op = None
            patches.remove()
        step_times = [elapsed]
        if error is None:
            try:
                ok = wl.check(k, result)
                if hasattr(wl, "samples"):
                    step_times = wl.samples(result)
            except Exception:
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        if not ok:
            failed += 1
            print(f"op {k} failed" + (f":\n{error}" if error else ""), file=sys.stderr)
        durations.append(elapsed)
        traced_flags.append(traced)
        samples.extend(step_times)
        k += 1
    return durations, traced_flags, failed, samples


def end_to_end(wl, durations, samples, setup_s: float) -> dict:
    sample_ms = np.array(samples) * 1000.0
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (float(np.percentile(sample_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(sample_ms, 90)), "ms"),
        "items_per_s": (wl.items_per_op * len(durations) / float(np.sum(durations)), "1/s"),
        "loss_end": (wl.loss_end(), "loss"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Per-layer time metrics and the span each one sums. Times are mean ms per
# traced op; counts come from the traced ops among the first COUNT_WINDOW ops,
# so they repeat exactly for a given seed and build.
LAYER_MS = {
    "glyphs.sample_ms": "glyphs.sample",
    "fontnet.style_encode_ms": "fontnet.style_encode",
    "fontnet.content_encode_ms": "fontnet.content_encode",
    "fontnet.mix_ms": "fontnet.mix",
    "fontnet.decode_ms": "fontnet.decode",
    "losses.weighted_l1_ms": "losses.weighted_l1",
    "losses.metrics_ms": "losses.metrics",
    "autodiff.backward_ms": "autodiff.backward",
    "training.clip_ms": "training.clip",
    "training.adam_ms": "training.adam",
    "training.load_checkpoint_ms": "training.load_checkpoint",
    "nst.from_state_ms": "nst.from_state",
    "nst.style_encode_ms": "nst.style_encode",
    "nst.content_encode_ms": "nst.content_encode",
    "nst.mix_ms": "nst.mix",
    "nst.decode_ms": "nst.decode",
    "nst.objective_ms": "nst.objective",
    "netpbm.read_ms": "netpbm.read",
    "netpbm.write_ms": "netpbm.write",
}
AUTODIFF_OPS = ("conv2d", "deconv2d", "batchnorm2d", "bilinear_contract",
                "upsample_nearest", "activations")
COMPUTED = "-computed"


def per_layer(spans, durations, traced_flags, setup_ms: float) -> dict:
    traced_ops = {k for k, t in enumerate(traced_flags) if t}
    window = {k for k in traced_ops if k < COUNT_WINDOW}
    n, nw = len(traced_ops), len(window)
    times = tr.summarize(spans, traced_ops)
    counts = tr.summarize(spans, window)

    def ms(span_name):
        return times.get(span_name, (0.0, 0, 0))[0] * 1000.0 / n

    def calls(span_name):
        return counts.get(span_name, (0.0, 0, 0))[1] / nw

    def attr(span_name):
        return counts.get(span_name, (0.0, 0, 0))[2] / nw

    def attr_per_call(span_name):
        entry = counts.get(span_name, (0.0, 0, 0))
        return entry[2] / entry[1] if entry[1] else 0

    metrics = {name: (ms(span), "ms") for name, span in LAYER_MS.items()}
    metrics["glyphs.setup_ms"] = (setup_ms, "ms")
    metrics["glyphs.render_count"] = (_exact(calls("glyphs.render")), "count")
    metrics["fontnet.generate_calls"] = (_exact(calls("fontnet.generate")), "count")
    metrics["losses.degenerate_targets"] = (_exact(attr("losses.weighted_l1")), "count")
    metrics["autodiff.tape_nodes"] = (_exact(attr_per_call("autodiff.backward")), "count")
    for op in AUTODIFF_OPS:
        span = f"autodiff.{op}"
        metrics[f"{span}.fwd_ms"] = (ms(span), "ms")
        metrics[f"{span}.calls"] = (_exact(calls(span)), "count")
        metrics[f"{span}.gflop"] = (attr(span) / 1e9, "GFLOP" + COMPUTED)
    metrics["training.adam_mb"] = (attr_per_call("training.adam") / 1e6, "MB" + COMPUTED)
    metrics["cli.self_ms"] = (tr.self_seconds(spans, "cli.main", traced_ops) * 1000.0 / n, "ms")

    untraced = [d for d, t in zip(durations, traced_flags) if not t]
    traced = [d for d, t in zip(durations, traced_flags) if t]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    in_window = sum(1 for s in spans if s[tr.OP] in window and s[tr.NAME] != "op")
    metrics["trace.spans_per_op"] = (_exact(in_window / nw), "count")
    return metrics


def _exact(value: float):
    """Counts per op stay integers when they are whole."""
    return int(value) if float(value).is_integer() else value


def glyph_setup_ms(spans) -> float:
    """Set-up time inside glyph-layer spans, outermost glyph span only."""
    total = 0.0
    for span in spans:
        if span[tr.OP] is not None or not span[tr.NAME].startswith("glyphs."):
            continue
        parent = span[tr.PARENT]
        while parent is not None and not spans[parent][tr.NAME].startswith("glyphs."):
            parent = spans[parent][tr.PARENT]
        if parent is None:
            total += span[tr.END] - span[tr.START]
    return total * 1000.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def numpy_environment() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        config = {}
    return {
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    import_s = IMPORTED_AT - args.spawned_at
    # The corpus has blank targets; trace runs count them as
    # losses.degenerate_targets instead of printing one warning per batch.
    warnings.simplefilter("ignore", DegenerateTargetWarning)
    cls = WORKLOADS[args.workload]
    size = SIZES[args.size]
    out_dir = Path(args.out_dir)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []
    try:
        if args.trace:
            tracer = tr.Tracer()
            patches = tr.Patches(tracer)
            patches.install()
            try:
                wl = cls(args.seed, size, workdir)
            finally:
                patches.remove()
        else:
            tracer = patches = None
            for _ in range(SETUP_REPEATS):
                wl = None  # drop the previous set-up before timing the next
                start = time.perf_counter()
                wl = cls(args.seed, size, workdir)
                setups.append(time.perf_counter() - start)
        if hasattr(wl, "prepare_checks"):
            wl.prepare_checks()
        durations, traced_flags, failed, samples = run_ops(wl, args.seconds, tracer, patches)
        if args.trace:
            metrics = per_layer(tracer.spans, durations, traced_flags,
                                glyph_setup_ms(tracer.spans))
            tracer.write_jsonl(
                out_dir / f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl")
        else:
            metrics = end_to_end(wl, durations, samples, import_s + statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and all(np.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(durations),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "environment": numpy_environment(),
        "detail": {"op_seconds": durations, "import_s": import_s, "setup_reps_s": setups},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
