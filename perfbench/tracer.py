"""In-memory span recorder and the wrappers that feed it.

The benchmark records spans from its own files only: it replaces the names
that the program's modules import and call (``fontnet.conv2d``,
``training.adam_step``, ``cli.load_checkpoint``, ...) with timing wrappers,
and puts the originals back afterwards. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, attr]``: ``parent`` is the index of
the enclosing span (or None), ``op`` the id of the benchmark op it ran in (or
None during set-up), and ``attr`` a count taken at the same boundary
(FLOPs and bytes computed from shapes, tape nodes, captured warnings).
"""

from __future__ import annotations

import functools
import json
import time
import warnings

from stylemix import autodiff, cli, fontnet, glyphs, losses, netpbm, nst, training

NAME, START, END, PARENT, OP, ATTR = range(6)

ADAM_BYTES_PER_ELEMENT = 7 * 8  # float64 reads of p, g, m, v and writes of m, v, p


class Tracer:
    """Spans kept in memory for one process; written out once at the end."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(index)
        return index

    def close(self, index: int, attr=None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTR] = attr
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def wrap(self, name: str, fn, pre=None, post=None, warning=None):
        """Time every call of ``fn`` as a span ``name``.

        The span's attribute is ``pre(args)``, ``post(args, result)``, or the
        number of ``warning`` warnings the call raised, which are swallowed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = pre(args) if pre else None
            index = self.open(name)
            try:
                if warning is None:
                    result = fn(*args, **kwargs)
                else:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", warning)
                        result = fn(*args, **kwargs)
                    attr = sum(1 for w in caught if issubclass(w.category, warning))
            except BaseException:
                self.close(index, attr)
                raise
            self.close(index, post(args, result) if post else attr)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "attr")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# computed work per call
# ---------------------------------------------------------------------------


def _conv_flops(args, out) -> int:
    w = args[1]
    b, cout, oh, ow = out.shape
    return 2 * b * cout * oh * ow * w.shape[1] * w.shape[2] * w.shape[3]


def _deconv_flops(args, out) -> int:
    x, w = args[0], args[1]
    b, cin, h, wd = x.shape
    return 2 * b * cin * h * wd * w.shape[1] * w.shape[2] * w.shape[3]


def _bilinear_flops(args, out) -> int:
    style, w = args[0], args[1]
    b, r = style.shape
    _, k, c = w.shape
    return 2 * b * r * k * c + 2 * b * k * c


def _per_element(flops: int):
    return lambda args, out: flops * out.size


def _adam_bytes(args) -> int:
    return ADAM_BYTES_PER_ELEMENT * sum(p.data.size for _, p in args[0].items())


def _tape_nodes(args) -> int:
    return len(args[0])


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


class Patches:
    """Replaces module and class attributes with traced wrappers, reversibly."""

    def __init__(self, tracer: Tracer):
        self._wrapped = []

        def add(owner, attr, name, **hooks):
            original = owner.__dict__[attr]
            self._wrapped.append((owner, attr, original, tracer.wrap(name, original, **hooks)))

        for module in (fontnet, nst):
            add(module, "conv2d", "autodiff.conv2d", post=_conv_flops)
            add(module, "leaky_relu", "autodiff.activations", post=_per_element(1))
            add(module, "relu", "autodiff.activations", post=_per_element(1))
        add(fontnet, "deconv2d", "autodiff.deconv2d", post=_deconv_flops)
        add(fontnet, "batchnorm2d", "autodiff.batchnorm2d", post=_per_element(4))
        add(fontnet, "bilinear_contract", "autodiff.bilinear_contract", post=_bilinear_flops)
        add(fontnet, "sigmoid", "autodiff.activations", post=_per_element(1))
        add(nst, "upsample_nearest", "autodiff.upsample_nearest", post=_per_element(1))
        add(autodiff.Graph, "backward", "autodiff.backward", pre=_tape_nodes)

        for method in ("style_encode", "content_encode", "mix", "decode"):
            add(fontnet.FontNet, method, f"fontnet.{method}")
        add(fontnet.FontNet, "generate_from_refs", "fontnet.generate")
        for method in ("style_encode", "content_encode", "decode"):
            add(nst.NstNet, method, f"nst.{method}")
        for mixer in ("statistic_match", "tradeoff_mix", "style_interpolate"):
            add(nst, mixer, "nst.mix")

        add(glyphs, "Corpus", "glyphs.corpus")
        add(glyphs, "build_eval_sets", "glyphs.eval_sets")
        add(glyphs, "render_glyph", "glyphs.render")
        add(training, "sample_training_batch", "glyphs.sample")
        add(training, "weighted_l1_loss", "losses.weighted_l1",
            warning=losses.DegenerateTargetWarning)
        for metric in ("l1_metric", "rmse_metric", "pdar_metric"):
            add(training, metric, "losses.metrics")
        add(training, "clip_gradients", "training.clip")
        add(training, "adam_step", "training.adam", pre=_adam_bytes)
        add(training, "nst_objective", "nst.objective")
        add(cli, "load_checkpoint", "training.load_checkpoint")
        add(cli, "main", "cli.main")
        add(netpbm, "read_image", "netpbm.read")
        add(netpbm, "write_ppm", "netpbm.write")

        # NstNet.from_state is a classmethod: wrap the function it holds.
        from_state = nst.NstNet.__dict__["from_state"]
        self._wrapped.append((nst.NstNet, "from_state", from_state,
                              classmethod(tracer.wrap("nst.from_state", from_state.__func__))))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._wrapped:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, _ in self._wrapped:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def summarize(spans, ops) -> dict:
    """Per span name over the spans of ``ops``: [seconds, calls, attr sum].

    Only the outermost span of a name counts, so a mixer that calls another
    mixer, both traced as ``nst.mix``, is timed and counted once.
    """
    totals: dict = {}
    for span in spans:
        if span[OP] not in ops:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is not None:
            continue
        entry = totals.setdefault(span[NAME], [0.0, 0, 0.0])
        entry[0] += span[END] - span[START]
        entry[1] += 1
        entry[2] += span[ATTR] or 0
    return totals


def self_seconds(spans, name: str, ops) -> float:
    """Time inside ``name`` spans of ``ops`` not covered by their direct children."""
    total = 0.0
    for span in spans:
        if span[OP] in ops:
            if span[NAME] == name:
                total += span[END] - span[START]
            elif span[PARENT] is not None and spans[span[PARENT]][NAME] == name:
                total -= span[END] - span[START]
    return total
