"""Deterministic synthetic glyph corpus with a known/novel style-content split.

A corpus is fully determined by (seed, n_styles, n_contents, image_size).
Content skeletons come from an embedded procedural alphabet that does not
depend on the corpus seed; style parameters derive from (seed, style_id).
Rendering is a pure function, so every image can be re-materialized from the
manifest alone. ``render_glyph`` rasterizes in float64; a :class:`Corpus`
caches each image rounded once to float32, the dtype ``FontNet`` computes in,
so the roughly 700 images that a default evaluation set draws (24 items per
cell, r = 4, 64 px) take 11.6 MB instead of 23.2.

The style/content grid is split 75/25 into known and novel ids, giving four
evaluation cells: d1 = known x known (the only training cell), d2 = known
style x novel content, d3 = novel style x known content, d4 = novel x novel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from stylemix import netpbm

THICKNESS_RANGE = (0.03, 0.12)
SLANT_RANGE = (-0.3, 0.3)
SCALE_RANGE = (0.7, 1.0)
DARKNESS_RANGE = (0.4, 1.0)

MANIFEST_NAME = "manifest.txt"
_MANIFEST_MAGIC = "stylemix-corpus 1"
_SPLIT_KEYS = ("known_styles", "novel_styles", "known_contents", "novel_contents")

# seed-stream tags keep the derived generators statistically independent
_STYLE_TAG = 101
_GLYPH_TAG = 211
_PARTITION_TAG = 307
_POOL_TAG = 401
_DRAW_TAG = 503
_EVAL_TAG = 601

CELLS = ("d1", "d2", "d3", "d4")


class CorpusError(ValueError):
    """Invalid corpus parameters or a malformed/inconsistent manifest."""


@dataclass(frozen=True)
class GlyphSpec:
    """Content skeleton: a non-empty list of polylines in the unit square."""

    content_id: int
    strokes: tuple  # of (P, 2) float arrays, points in [0, 1]^2


@dataclass(frozen=True)
class StyleSpec:
    """Rendering style derived deterministically from (corpus_seed, style_id)."""

    style_id: int
    stroke_thickness: float
    slant: float
    scale: float
    darkness: float


@dataclass(frozen=True)
class DatasetPartition:
    """75/25 known/novel split of style and content ids."""

    known_styles: tuple
    novel_styles: tuple
    known_contents: tuple
    novel_contents: tuple


@dataclass
class ReferenceSet:
    """r images sharing one style (or one content) with their triplet's target."""

    counterpart_ids: tuple
    images: list  # of [H, W] float arrays


@dataclass
class Triplet:
    """An <r, r, 1> item of a training batch or an evaluation suite."""

    style_refs: ReferenceSet
    content_refs: ReferenceSet
    target: np.ndarray
    style_id: int
    content_id: int


def style_spec(corpus_seed: int, style_id: int) -> StyleSpec:
    rng = np.random.default_rng([_STYLE_TAG, corpus_seed, style_id])
    return StyleSpec(
        style_id=style_id,
        stroke_thickness=float(rng.uniform(*THICKNESS_RANGE)),
        slant=float(rng.uniform(*SLANT_RANGE)),
        scale=float(rng.uniform(*SCALE_RANGE)),
        darkness=float(rng.uniform(*DARKNESS_RANGE)),
    )


def glyph_spec(content_id: int) -> GlyphSpec:
    """Skeleton for one content id from the embedded procedural alphabet.

    Strokes are short walks on a jittered 4x4 lattice, which keeps every
    glyph inside the unit square and distinct glyphs visually separable.
    """
    rng = np.random.default_rng([_GLYPH_TAG, content_id])
    lattice = np.linspace(0.2, 0.8, 4)
    n_strokes = int(rng.integers(2, 5))
    strokes = []
    for _ in range(n_strokes):
        length = int(rng.integers(2, 5))
        cells = [tuple(rng.integers(0, 4, size=2))]
        while len(cells) < length:
            step = tuple(rng.integers(-2, 3, size=2))
            nxt = (cells[-1][0] + step[0], cells[-1][1] + step[1])
            if nxt == cells[-1] or not (0 <= nxt[0] < 4 and 0 <= nxt[1] < 4):
                continue
            cells.append(nxt)
        points = np.array([[lattice[cx], lattice[cy]] for cx, cy in cells])
        points += rng.uniform(-0.03, 0.03, size=points.shape)
        strokes.append(points)
    return GlyphSpec(content_id=content_id, strokes=tuple(strokes))


def _transform_points(points: np.ndarray, style: StyleSpec) -> np.ndarray:
    centered = (points - 0.5) * style.scale
    sheared = centered.copy()
    sheared[:, 0] += style.slant * centered[:, 1]
    return sheared + 0.5


def render_glyph(style: StyleSpec, glyph: GlyphSpec, size: int) -> np.ndarray:
    """Rasterize a glyph: white background, strokes darkened by coverage.

    Pixel value is 1 - darkness * coverage where coverage ramps linearly
    from 1 to 0 across one pixel width around the stroke boundary at
    distance thickness/2 from the skeleton.
    """
    if size < 16:
        raise ValueError(f"render_glyph: size must be >= 16, got {size}")
    coords = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(coords, coords)  # px varies along columns
    dist = np.full((size, size), np.inf)
    # coverage is exactly 0 at distances beyond thickness/2 + ramp/2, so each
    # segment's distance is only needed inside its bounding box grown by that
    # plus half a pixel of slack
    reach = style.stroke_thickness / 2.0 + 1.0 / size
    for stroke in glyph.strokes:
        pts = _transform_points(np.asarray(stroke, dtype=np.float64), style)
        for a, b in zip(pts[:-1], pts[1:]):
            x0, y0 = ((np.minimum(a, b) - reach) * size - 0.5).tolist()
            x1, y1 = ((np.maximum(a, b) + reach) * size - 0.5).tolist()
            box = (slice(max(math.ceil(y0), 0), max(math.floor(y1) + 1, 0)),
                   slice(max(math.ceil(x0), 0), max(math.floor(x1) + 1, 0)))
            bx, by = px[box], py[box]
            v = b - a
            vv = float(v @ v)
            if vv == 0.0:
                dx, dy = bx - a[0], by - a[1]
            else:
                t = np.clip(((bx - a[0]) * v[0] + (by - a[1]) * v[1]) / vv, 0.0, 1.0)
                dx = bx - (a[0] + t * v[0])
                dy = by - (a[1] + t * v[1])
            dist[box] = np.minimum(dist[box], np.hypot(dx, dy))
    ramp = 1.0 / size
    coverage = np.clip((style.stroke_thickness / 2.0 - dist) / ramp + 0.5, 0.0, 1.0)
    return 1.0 - style.darkness * coverage


def make_partition(n_styles: int, n_contents: int, seed: int) -> DatasetPartition:
    """Seeded shuffle then 75/25 known/novel split (floor on the novel side)."""
    if n_styles < 4 or n_contents < 4:
        raise CorpusError(
            f"make_partition: need at least 4 styles and contents, got "
            f"{n_styles} x {n_contents}"
        )
    rng = np.random.default_rng([_PARTITION_TAG, seed])
    style_perm = rng.permutation(n_styles)
    content_perm = rng.permutation(n_contents)
    novel_s = n_styles // 4
    novel_c = n_contents // 4
    return DatasetPartition(
        known_styles=tuple(sorted(int(i) for i in style_perm[: n_styles - novel_s])),
        novel_styles=tuple(sorted(int(i) for i in style_perm[n_styles - novel_s:])),
        known_contents=tuple(sorted(int(j) for j in content_perm[: n_contents - novel_c])),
        novel_contents=tuple(sorted(int(j) for j in content_perm[n_contents - novel_c:])),
    )


@dataclass(frozen=True)
class CorpusConfig:
    n_styles: int = 40
    n_contents: int = 60
    image_size: int = 64
    seed: int = 0


class Corpus:
    """Lazily rendered style x content image grid plus its partition."""

    def __init__(self, config: CorpusConfig):
        if config.image_size < 16:
            raise CorpusError(f"corpus image size must be >= 16, got {config.image_size}")
        self.config = config
        self.partition = make_partition(config.n_styles, config.n_contents, config.seed)
        self.styles = [style_spec(config.seed, i) for i in range(config.n_styles)]
        self.glyphs = [glyph_spec(j) for j in range(config.n_contents)]
        self._cache: dict = {}

    def image(self, style_id: int, content_id: int) -> np.ndarray:
        """The rendered glyph in float32, the dtype ``FontNet`` computes in.

        ``render_glyph``'s float64 raster is rounded once, when it is cached,
        so the cache holds half the bytes and the net's inputs need no cast.
        """
        key = (style_id, content_id)
        cached = self._cache.get(key)
        if cached is None:
            cached = render_glyph(
                self.styles[style_id], self.glyphs[content_id], self.config.image_size
            ).astype(np.float32)
            self._cache[key] = cached
        return cached

    def triplet(self, style_id: int, content_id: int, ref_contents, ref_styles) -> Triplet:
        """The item for target (style_id, content_id): its style references
        render ``ref_contents`` in its style, its content references render
        its content in ``ref_styles``."""
        ref_contents = tuple(int(j) for j in ref_contents)
        ref_styles = tuple(int(i) for i in ref_styles)
        return Triplet(style_refs=ReferenceSet(ref_contents,
                                               [self.image(style_id, j) for j in ref_contents]),
                       content_refs=ReferenceSet(ref_styles,
                                                 [self.image(i, content_id) for i in ref_styles]),
                       target=self.image(style_id, content_id),
                       style_id=style_id, content_id=content_id)


def _check_ref_count(r: int, pool_size: int, what: str) -> None:
    if r < 1:
        raise CorpusError(f"reference count must be >= 1, got {r}")
    if r > pool_size:
        raise CorpusError(
            f"reference count {r} exceeds the {pool_size} available {what}"
        )


def check_training_draw(corpus: Corpus, n_t: int, r: int, batch_size: int) -> None:
    """Raise CorpusError unless the d1 pools can supply the batches asked for."""
    part = corpus.partition
    _check_ref_count(r, len(part.known_contents), "known contents (style references)")
    _check_ref_count(r, len(part.known_styles), "known styles (content references)")
    if n_t < 1:
        raise CorpusError(f"training pool size must be >= 1, got {n_t}")
    if batch_size < 1:
        raise CorpusError(f"batch size must be >= 1, got {batch_size}")


def sample_training_batch(corpus: Corpus, n_t: int, r: int, batch_size: int,
                          seed: int, step: int = 0) -> list:
    """Draw a batch of <r, r, 1> training triplets from the d1 cell.

    The training pool is a virtual set of n_t triplets determined by ``seed``
    alone; ``step`` only selects which pool entries the batch draws, so the
    pool is stable across a training run. Reference counterparts are sampled
    without replacement from the known ids and may include the target's own
    id.
    """
    check_training_draw(corpus, n_t, r, batch_size)
    part = corpus.partition
    draw = np.random.default_rng([_DRAW_TAG, seed, step])
    triplets = []
    for idx in draw.integers(0, n_t, size=batch_size):
        trng = np.random.default_rng([_POOL_TAG, seed, int(idx)])
        style_id = int(part.known_styles[trng.integers(len(part.known_styles))])
        content_id = int(part.known_contents[trng.integers(len(part.known_contents))])
        ref_contents = trng.choice(part.known_contents, size=r, replace=False)
        ref_styles = trng.choice(part.known_styles, size=r, replace=False)
        triplets.append(corpus.triplet(style_id, content_id, ref_contents, ref_styles))
    return triplets


def build_eval_sets(corpus: Corpus, r: int, seed: int, per_set: int = 24) -> dict:
    """Evaluation suites for the four cells.

    Style references share the target's style and content references its
    content, drawn from any cell that contains them; the target image itself
    never appears in its own reference sets.
    """
    cfg = corpus.config
    part = corpus.partition
    _check_ref_count(r, cfg.n_contents - 1, "non-target contents (style references)")
    _check_ref_count(r, cfg.n_styles - 1, "non-target styles (content references)")
    pools = {
        "d1": (part.known_styles, part.known_contents),
        "d2": (part.known_styles, part.novel_contents),
        "d3": (part.novel_styles, part.known_contents),
        "d4": (part.novel_styles, part.novel_contents),
    }
    all_styles = np.arange(cfg.n_styles)
    all_contents = np.arange(cfg.n_contents)
    suites: dict = {}
    for cell_index, cell in enumerate(CELLS):
        style_pool, content_pool = pools[cell]
        rng = np.random.default_rng([_EVAL_TAG, seed, cell_index])
        total = len(style_pool) * len(content_pool)
        chosen = rng.choice(total, size=min(per_set, total), replace=False)
        items = []
        for flat in chosen:
            style_id = int(style_pool[flat // len(content_pool)])
            content_id = int(content_pool[flat % len(content_pool)])
            ref_contents = rng.choice(
                all_contents[all_contents != content_id], size=r, replace=False
            )
            ref_styles = rng.choice(
                all_styles[all_styles != style_id], size=r, replace=False
            )
            items.append(corpus.triplet(style_id, content_id, ref_contents, ref_styles))
        suites[cell] = items
    return suites


# ---------------------------------------------------------------------------
# corpus export / import
# ---------------------------------------------------------------------------


def image_filename(style_id: int, content_id: int) -> str:
    return f"style{style_id:04d}_content{content_id:04d}.pgm"


def _manifest_lines(corpus: Corpus) -> list:
    """The manifest's lines: the magic, the four header numbers that determine the
    corpus (seed, style and content counts, image size), the four id lists of its
    split, then one line of parameters per style."""
    cfg, part = corpus.config, corpus.partition
    return [
        _MANIFEST_MAGIC,
        f"seed {cfg.seed}",
        f"styles {cfg.n_styles}",
        f"contents {cfg.n_contents}",
        f"size {cfg.image_size}",
        *(f"{key} " + " ".join(map(str, getattr(part, key))) for key in _SPLIT_KEYS),
        *(f"style {spec.style_id} thickness {spec.stroke_thickness!r} "
          f"slant {spec.slant!r} scale {spec.scale!r} darkness {spec.darkness!r}"
          for spec in corpus.styles),
    ]


def export_corpus(corpus: Corpus, out_dir) -> Path:
    """Write every grid image as an 8-bit PGM plus a reproducibility manifest.

    Each PGM quantizes the float64 raster, not the float32 cache, which would
    round a rare pixel differently (1 of the default corpus's 9.8 M), and
    rendering here leaves the cache empty.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, style in enumerate(corpus.styles):
        for j, glyph in enumerate(corpus.glyphs):
            image = render_glyph(style, glyph, corpus.config.image_size)
            netpbm.write_pgm(out / image_filename(i, j), image)
    manifest = out / MANIFEST_NAME
    manifest.write_text("\n".join(_manifest_lines(corpus)) + "\n", encoding="ascii")
    return manifest


def load_corpus(corpus_dir) -> Corpus:
    """Rebuild a corpus from its manifest's header and accept the manifest only
    if it is, line for line, the one ``export_corpus`` writes for that corpus.

    The first line that differs raises CorpusError naming the file and the line,
    so a tampered split or style, a blank, reordered or duplicated line all fail.
    A style or content count that the file is too short to hold is refused
    before the corpus it describes is built.
    """
    manifest = Path(corpus_dir) / MANIFEST_NAME
    if not manifest.is_file():
        raise CorpusError(f"no {MANIFEST_NAME} found in {corpus_dir}")
    text = manifest.read_text(encoding="ascii")
    lines = text.splitlines()
    if not lines or lines[0] != _MANIFEST_MAGIC:
        raise CorpusError(f"{manifest}: not a corpus manifest (bad first line)")
    header = []
    for lineno, key in enumerate(("seed", "styles", "contents", "size"), start=2):
        line = lines[lineno - 1] if lineno <= len(lines) else ""
        name, _, value = line.partition(" ")
        if name != key or not value.isdigit():
            raise CorpusError(f"{manifest}:{lineno}: expected '{key} <integer>', got {line!r}")
        header.append(int(value))
    seed, n_styles, n_contents, size = header
    # every style has a line of its own, and the split lines write every content id once
    if n_styles > len(lines):
        raise CorpusError(f"{manifest}:3: styles {n_styles} is more than the "
                          f"manifest's {len(lines)} lines can describe")
    if n_contents > len(text):
        raise CorpusError(f"{manifest}:4: contents {n_contents} is more than the "
                          f"manifest's {len(text)} characters can describe")
    corpus = Corpus(CorpusConfig(n_styles=n_styles, n_contents=n_contents,
                                 image_size=size, seed=seed))
    expected = _manifest_lines(corpus)
    for lineno, (got, want) in enumerate(zip_longest(lines, expected), start=1):
        if got != want:
            words = (want or "").split(" ")
            what = ("a line past the last style" if want is None
                    else f"recorded {words[0]} split" if words[0] in _SPLIT_KEYS
                    else f"{' '.join(words[:2])} line" if words[0] == "style"
                    else f"{words[0]} line")
            raise CorpusError(f"{manifest}:{lineno}: {what} " + (
                "is missing" if got is None else "does not match the manifest "
                "regenerated from seed, styles, contents and size"))
    return corpus
