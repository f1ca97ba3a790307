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
from pathlib import Path

import numpy as np

from stylemix import netpbm

THICKNESS_RANGE = (0.03, 0.12)
SLANT_RANGE = (-0.3, 0.3)
SCALE_RANGE = (0.7, 1.0)
DARKNESS_RANGE = (0.4, 1.0)

MANIFEST_NAME = "manifest.txt"
_MANIFEST_MAGIC = "stylemix-corpus 1"

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

    def as_tuple(self) -> tuple:
        return (self.stroke_thickness, self.slant, self.scale, self.darkness)


@dataclass(frozen=True)
class DatasetPartition:
    """75/25 known/novel split of style and content ids."""

    known_styles: tuple
    novel_styles: tuple
    known_contents: tuple
    novel_contents: tuple

    def cell(self, style_id: int, content_id: int) -> str:
        style_known = style_id in self.known_styles
        content_known = content_id in self.known_contents
        if style_known:
            return "d1" if content_known else "d2"
        return "d3" if content_known else "d4"


@dataclass
class ReferenceSet:
    """r images sharing one style (or one content) with the anchor."""

    anchor_id: int
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
        if config.n_styles < 4 or config.n_contents < 4:
            raise CorpusError(
                f"corpus needs at least 4 styles and 4 contents, got "
                f"{config.n_styles} x {config.n_contents}"
            )
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

    def style_reference_set(self, style_id: int, content_ids) -> ReferenceSet:
        content_ids = tuple(int(j) for j in content_ids)
        return ReferenceSet(
            anchor_id=style_id,
            counterpart_ids=content_ids,
            images=[self.image(style_id, j) for j in content_ids],
        )

    def content_reference_set(self, content_id: int, style_ids) -> ReferenceSet:
        style_ids = tuple(int(i) for i in style_ids)
        return ReferenceSet(
            anchor_id=content_id,
            counterpart_ids=style_ids,
            images=[self.image(i, content_id) for i in style_ids],
        )


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
        triplets.append(
            Triplet(
                style_refs=corpus.style_reference_set(style_id, ref_contents),
                content_refs=corpus.content_reference_set(content_id, ref_styles),
                target=corpus.image(style_id, content_id),
                style_id=style_id,
                content_id=content_id,
            )
        )
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
            items.append(
                Triplet(
                    style_refs=corpus.style_reference_set(style_id, ref_contents),
                    content_refs=corpus.content_reference_set(content_id, ref_styles),
                    target=corpus.image(style_id, content_id),
                    style_id=style_id,
                    content_id=content_id,
                )
            )
        suites[cell] = items
    return suites


# ---------------------------------------------------------------------------
# corpus export / import
# ---------------------------------------------------------------------------


def image_filename(style_id: int, content_id: int) -> str:
    return f"style{style_id:04d}_content{content_id:04d}.pgm"


def export_corpus(corpus: Corpus, out_dir) -> Path:
    """Write every grid image as an 8-bit PGM plus a reproducibility manifest.

    Each PGM quantizes the float64 raster, not the float32 cache, which would
    round a rare pixel differently (1 of the default corpus's 9.8 M), and
    rendering here leaves the cache empty.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = corpus.config
    for i, style in enumerate(corpus.styles):
        for j, glyph in enumerate(corpus.glyphs):
            image = render_glyph(style, glyph, cfg.image_size)
            netpbm.write_pgm(out / image_filename(i, j), image)
    part = corpus.partition
    lines = [
        _MANIFEST_MAGIC,
        f"seed {cfg.seed}",
        f"styles {cfg.n_styles}",
        f"contents {cfg.n_contents}",
        f"size {cfg.image_size}",
        "known_styles " + " ".join(map(str, part.known_styles)),
        "novel_styles " + " ".join(map(str, part.novel_styles)),
        "known_contents " + " ".join(map(str, part.known_contents)),
        "novel_contents " + " ".join(map(str, part.novel_contents)),
    ]
    for spec in corpus.styles:
        lines.append(
            f"style {spec.style_id} thickness {spec.stroke_thickness!r} "
            f"slant {spec.slant!r} scale {spec.scale!r} darkness {spec.darkness!r}"
        )
    manifest = out / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n", encoding="ascii")
    return manifest


def load_corpus(corpus_dir) -> Corpus:
    """Rebuild a corpus from its manifest, verifying split and style integrity."""
    manifest = Path(corpus_dir) / MANIFEST_NAME
    if not manifest.is_file():
        raise CorpusError(f"no {MANIFEST_NAME} found in {corpus_dir}")
    lines = manifest.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != _MANIFEST_MAGIC:
        raise CorpusError(f"{manifest}: not a corpus manifest (bad first line)")
    fields: dict = {}
    style_params: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key in ("seed", "styles", "contents", "size"):
                fields[key] = int(parts[1])
            elif key in ("known_styles", "novel_styles", "known_contents", "novel_contents"):
                fields[key] = tuple(int(v) for v in parts[1:])
            elif key == "style":
                style_params[int(parts[1])] = (
                    float(parts[3]), float(parts[5]), float(parts[7]), float(parts[9])
                )
            else:
                raise CorpusError(f"{manifest}:{lineno}: unknown field {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, CorpusError):
                raise
            raise CorpusError(f"{manifest}:{lineno}: malformed line {line!r}") from None
    for key in ("seed", "styles", "contents", "size"):
        if key not in fields:
            raise CorpusError(f"{manifest}: missing field {key!r}")
    corpus = Corpus(CorpusConfig(
        n_styles=fields["styles"],
        n_contents=fields["contents"],
        image_size=fields["size"],
        seed=fields["seed"],
    ))
    part = corpus.partition
    recorded = (
        fields.get("known_styles"), fields.get("novel_styles"),
        fields.get("known_contents"), fields.get("novel_contents"),
    )
    derived = (part.known_styles, part.novel_styles,
               part.known_contents, part.novel_contents)
    if recorded != derived:
        raise CorpusError(f"{manifest}: recorded split does not match seed-derived split")
    for spec in corpus.styles:
        if style_params.get(spec.style_id) != spec.as_tuple():
            raise CorpusError(
                f"{manifest}: style {spec.style_id} parameters do not match "
                f"seed-derived values"
            )
    return corpus
