"""Synthetic corpus: specs, rendering, partition, samplers, export round-trip."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from stylemix import glyphs, netpbm
from stylemix.glyphs import (
    Corpus,
    CorpusConfig,
    CorpusError,
    GlyphSpec,
    StyleSpec,
    build_eval_sets,
    export_corpus,
    glyph_spec,
    load_corpus,
    make_partition,
    render_glyph,
    sample_training_batch,
    style_spec,
)

# sha256 of the float64 raster for (corpus seed 7, style 3, content 5, 64 px),
# frozen from the reference run of this renderer
GOLDEN_RENDER_SHA256 = "179bb659768dab7cd976d7ed5467361c815d9a767ecf838f360a197cd34ef3fe"


def render_glyph_full_image(style, glyph, size):
    """Reference rasterizer: every segment's distance over the whole image."""
    coords = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(coords, coords)
    dist = np.full((size, size), np.inf)
    for stroke in glyph.strokes:
        pts = glyphs._transform_points(np.asarray(stroke, dtype=np.float64), style)
        for a, b in zip(pts[:-1], pts[1:]):
            v = b - a
            vv = float(v @ v)
            if vv == 0.0:
                dist = np.minimum(dist, np.hypot(px - a[0], py - a[1]))
                continue
            t = np.clip(((px - a[0]) * v[0] + (py - a[1]) * v[1]) / vv, 0.0, 1.0)
            dx = px - (a[0] + t * v[0])
            dy = py - (a[1] + t * v[1])
            dist = np.minimum(dist, np.hypot(dx, dy))
    ramp = 1.0 / size
    coverage = np.clip((style.stroke_thickness / 2.0 - dist) / ramp + 0.5, 0.0, 1.0)
    return 1.0 - style.darkness * coverage


class TestStyleSpec:
    def test_parameters_inside_declared_ranges(self):
        for style_id in range(50):
            spec = style_spec(3, style_id)
            assert 0.03 <= spec.stroke_thickness <= 0.12
            assert -0.3 <= spec.slant <= 0.3
            assert 0.7 <= spec.scale <= 1.0
            assert 0.4 <= spec.darkness <= 1.0

    def test_deterministic(self):
        assert style_spec(11, 4) == style_spec(11, 4)

    def test_seed_changes_parameters(self):
        assert style_spec(1, 0) != style_spec(2, 0)

    def test_no_duplicate_parameter_tuples_over_1000_ids(self):
        specs = [style_spec(0, i) for i in range(1000)]
        tuples = {(s.stroke_thickness, s.slant, s.scale, s.darkness) for s in specs}
        assert len(tuples) == 1000


class TestGlyphSpec:
    def test_skeleton_nonempty_and_inside_unit_square(self):
        for content_id in range(60):
            spec = glyph_spec(content_id)
            assert len(spec.strokes) >= 1
            for stroke in spec.strokes:
                assert stroke.shape[0] >= 2
                assert (stroke >= 0.0).all() and (stroke <= 1.0).all()

    def test_deterministic(self):
        a, b = glyph_spec(9), glyph_spec(9)
        assert all(np.array_equal(x, y) for x, y in zip(a.strokes, b.strokes))

    def test_alphabet_has_at_least_40_distinct_skeletons(self):
        signatures = set()
        for content_id in range(60):
            spec = glyph_spec(content_id)
            signatures.add(tuple(stroke.tobytes() for stroke in spec.strokes))
        assert len(signatures) == 60


class TestRenderGlyph:
    def test_centerline_is_near_black_at_full_darkness(self):
        style = StyleSpec(style_id=0, stroke_thickness=0.08, slant=0.0,
                          scale=1.0, darkness=1.0)
        image = render_glyph(style, glyph_spec(2), 64)
        assert image.min() <= 0.05

    def test_far_pixels_are_exactly_white(self):
        style = StyleSpec(style_id=0, stroke_thickness=0.05, slant=0.0,
                          scale=1.0, darkness=1.0)
        glyph = GlyphSpec(content_id=0,
                          strokes=(np.array([[0.45, 0.5], [0.55, 0.5]]),))
        image = render_glyph(style, glyph, 64)
        assert image[0, 0] == 1.0
        assert image[-1, -1] == 1.0

    def test_golden_hash_is_stable(self):
        image = render_glyph(style_spec(7, 3), glyph_spec(5), 64)
        assert hashlib.sha256(image.tobytes()).hexdigest() == GOLDEN_RENDER_SHA256

    @pytest.mark.parametrize("size", [16, 64, 80])
    def test_equals_the_full_image_reference_byte_for_byte(self, size):
        for style_id in range(6):
            style = style_spec(3, style_id)
            for content_id in range(0, 60, 7):
                glyph = glyph_spec(content_id)
                got = render_glyph(style, glyph, size)
                assert got.tobytes() == render_glyph_full_image(style, glyph, size).tobytes()

    def test_segment_outside_the_image_and_zero_length_segment(self):
        style = StyleSpec(style_id=0, stroke_thickness=0.1, slant=0.0, scale=1.0, darkness=0.9)
        glyph = GlyphSpec(content_id=0, strokes=(
            np.array([[-0.5, -0.4], [-0.3, -0.6]]),  # wholly off the image
            np.array([[0.02, 0.98], [0.02, 0.98]]),  # a dot in the corner
            np.array([[0.3, 0.3], [0.7, 0.6], [0.9, 0.1]]),
        ))
        got = render_glyph(style, glyph, 32)
        assert got.tobytes() == render_glyph_full_image(style, glyph, 32).tobytes()

    def test_pure_function(self):
        style, glyph = style_spec(1, 2), glyph_spec(3)
        a = render_glyph(style, glyph, 32)
        b = render_glyph(style, glyph, 32)
        assert a.tobytes() == b.tobytes()

    def test_values_in_unit_interval(self):
        image = render_glyph(style_spec(0, 0), glyph_spec(0), 32)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError, match="size"):
            render_glyph(style_spec(0, 0), glyph_spec(0), 8)


class TestPartition:
    def test_eight_splits_six_two(self):
        part = make_partition(8, 8, seed=0)
        assert len(part.known_styles) == 6 and len(part.novel_styles) == 2
        assert len(part.known_contents) == 6 and len(part.novel_contents) == 2

    def test_same_seed_identical(self):
        assert make_partition(12, 20, 5) == make_partition(12, 20, 5)

    @pytest.mark.parametrize("seed", range(5))
    def test_disjoint_and_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        n_styles = int(rng.integers(4, 40))
        n_contents = int(rng.integers(4, 40))
        part = make_partition(n_styles, n_contents, seed)
        assert not set(part.known_styles) & set(part.novel_styles)
        assert sorted(part.known_styles + part.novel_styles) == list(range(n_styles))
        assert not set(part.known_contents) & set(part.novel_contents)
        assert sorted(part.known_contents + part.novel_contents) == list(range(n_contents))

    def test_rejects_small_grids(self):
        with pytest.raises(CorpusError):
            make_partition(3, 8, 0)


@pytest.fixture(scope="module")
def small_corpus():
    return Corpus(CorpusConfig(n_styles=8, n_contents=8, image_size=32, seed=1))


class TestTrainingSampler:
    def test_r_one_gives_single_image_sets(self, small_corpus):
        batch = sample_training_batch(small_corpus, n_t=10, r=1, batch_size=3, seed=0)
        for triplet in batch:
            assert len(triplet.style_refs.images) == 1
            assert len(triplet.content_refs.images) == 1
            assert len(triplet.style_refs.counterpart_ids) == 1
            assert len(triplet.content_refs.counterpart_ids) == 1

    def test_targets_come_from_known_known(self, small_corpus):
        part = small_corpus.partition
        for step in range(20):
            batch = sample_training_batch(small_corpus, 50, 2, 4, seed=3, step=step)
            for t in batch:
                assert t.style_id in part.known_styles
                assert t.content_id in part.known_contents

    def test_references_share_the_anchor_factor(self, small_corpus):
        batch = sample_training_batch(small_corpus, 50, 3, 4, seed=4)
        for t in batch:
            for image, j in zip(t.style_refs.images, t.style_refs.counterpart_ids):
                assert image.tobytes() == small_corpus.image(t.style_id, j).tobytes()
            for image, i in zip(t.content_refs.images, t.content_refs.counterpart_ids):
                assert image.tobytes() == small_corpus.image(i, t.content_id).tobytes()

    def test_counterparts_sampled_without_replacement(self, small_corpus):
        for step in range(10):
            batch = sample_training_batch(small_corpus, 50, 4, 2, seed=5, step=step)
            for t in batch:
                assert len(set(t.style_refs.counterpart_ids)) == 4
                assert len(set(t.content_refs.counterpart_ids)) == 4

    def test_deterministic_per_seed_and_step(self, small_corpus):
        a = sample_training_batch(small_corpus, 50, 2, 4, seed=6, step=9)
        b = sample_training_batch(small_corpus, 50, 2, 4, seed=6, step=9)
        assert [(t.style_id, t.content_id) for t in a] == [(t.style_id, t.content_id) for t in b]
        assert all(x.target.tobytes() == y.target.tobytes() for x, y in zip(a, b))

    def test_pool_is_stable_across_steps(self, small_corpus):
        """With a single-entry pool every step must draw the same triplet."""
        seen = set()
        for step in range(6):
            batch = sample_training_batch(small_corpus, n_t=1, r=2, batch_size=2,
                                          seed=7, step=step)
            for t in batch:
                seen.add((t.style_id, t.content_id,
                          t.style_refs.counterpart_ids, t.content_refs.counterpart_ids))
        assert len(seen) == 1

    def test_rejects_oversized_r(self, small_corpus):
        with pytest.raises(CorpusError, match="exceeds"):
            sample_training_batch(small_corpus, 10, 7, 1, seed=0)

    def test_every_d1_cell_is_sampled(self, small_corpus):
        part = small_corpus.partition
        hit = set()
        for step in range(250):
            for t in sample_training_batch(small_corpus, 5000, 1, 40, seed=8, step=step):
                hit.add((t.style_id, t.content_id))
        all_cells = {(i, j) for i in part.known_styles for j in part.known_contents}
        assert hit == all_cells


class TestEvalSets:
    def test_d4_targets_have_novel_ids(self, small_corpus):
        suites = build_eval_sets(small_corpus, r=2, seed=0, per_set=4)
        part = small_corpus.partition
        for item in suites["d4"]:
            assert item.style_id in part.novel_styles
            assert item.content_id in part.novel_contents

    def test_every_cell_draws_its_targets_from_its_own_pools(self, small_corpus):
        suites = build_eval_sets(small_corpus, r=2, seed=0, per_set=4)
        part = small_corpus.partition
        for cell, styles, contents in (("d1", part.known_styles, part.known_contents),
                                       ("d2", part.known_styles, part.novel_contents),
                                       ("d3", part.novel_styles, part.known_contents),
                                       ("d4", part.novel_styles, part.novel_contents)):
            for item in suites[cell]:
                assert item.style_id in styles and item.content_id in contents

    def test_reference_sets_never_contain_the_target(self, small_corpus):
        suites = build_eval_sets(small_corpus, r=4, seed=1, per_set=6)
        for items in suites.values():
            for item in items:
                assert item.content_id not in item.style_refs.counterpart_ids
                assert item.style_id not in item.content_refs.counterpart_ids

    def test_same_seed_identical(self, small_corpus):
        a = build_eval_sets(small_corpus, 2, seed=2, per_set=4)
        b = build_eval_sets(small_corpus, 2, seed=2, per_set=4)
        for cell in glyphs.CELLS:
            ids_a = [(i.style_id, i.content_id, i.style_refs.counterpart_ids) for i in a[cell]]
            ids_b = [(i.style_id, i.content_id, i.style_refs.counterpart_ids) for i in b[cell]]
            assert ids_a == ids_b

    def test_all_four_cells_present(self, small_corpus):
        suites = build_eval_sets(small_corpus, 2, seed=3, per_set=4)
        assert sorted(suites) == ["d1", "d2", "d3", "d4"]
        assert all(len(items) == 4 for items in suites.values())


class TestReferenceProvenance:
    def test_corpus_images_are_the_render_rounded_to_float32(self, small_corpus):
        for i in (0, 5):
            for j in (1, 7):
                image = small_corpus.image(i, j)
                want = render_glyph(small_corpus.styles[i], small_corpus.glyphs[j], 32)
                assert image.dtype == np.float32
                assert image.tobytes() == want.astype(np.float32).tobytes()
                assert small_corpus.image(i, j) is image  # cached, not re-rendered

    def test_style_set_re_renders_from_the_same_style(self, small_corpus):
        ref = small_corpus.triplet(2, 1, (0, 3, 5), (4, 6, 7)).style_refs
        assert ref.counterpart_ids == (0, 3, 5)
        spec = small_corpus.styles[2]
        for image, j in zip(ref.images, ref.counterpart_ids):
            again = render_glyph(spec, small_corpus.glyphs[j], 32).astype(np.float32)
            assert image.tobytes() == again.tobytes()


class TestExportImport:
    def test_round_trip(self, tmp_path):
        corpus = Corpus(CorpusConfig(6, 5, 32, seed=9))
        manifest = export_corpus(corpus, tmp_path / "corp")
        assert manifest.is_file()
        files = sorted((tmp_path / "corp").glob("*.pgm"))
        assert len(files) == 30
        loaded = load_corpus(tmp_path / "corp")
        assert loaded.config == corpus.config
        assert loaded.partition == corpus.partition
        assert loaded.image(0, 0).tobytes() == corpus.image(0, 0).tobytes()

    def test_export_is_byte_deterministic(self, tmp_path):
        corpus = Corpus(CorpusConfig(4, 4, 32, seed=2))
        export_corpus(corpus, tmp_path / "a")
        export_corpus(Corpus(CorpusConfig(4, 4, 32, seed=2)), tmp_path / "b")
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_exported_pgm_matches_quantized_render(self, tmp_path):
        corpus = Corpus(CorpusConfig(4, 4, 32, seed=3))
        export_corpus(corpus, tmp_path / "c")
        image = netpbm.read_image(tmp_path / "c" / glyphs.image_filename(1, 2))
        want = netpbm.quantize(corpus.image(1, 2)).astype(np.float64) / 255.0
        assert np.array_equal(image, want)

    def test_export_quantizes_the_float64_render(self, tmp_path):
        """Style 10, content 6 of seed 0 at 64 px has a pixel that quantizes one
        level apart from the float64 raster once rounded to float32."""
        corpus = Corpus(CorpusConfig(11, 7, 64, seed=0))
        export_corpus(corpus, tmp_path / "f")
        image = netpbm.read_image(tmp_path / "f" / glyphs.image_filename(10, 6))
        raster = render_glyph(corpus.styles[10], corpus.glyphs[6], 64)
        assert np.array_equal(image, netpbm.quantize(raster) / 255.0)
        assert not np.array_equal(netpbm.quantize(raster),
                                  netpbm.quantize(raster.astype(np.float32)))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest"):
            load_corpus(tmp_path)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / glyphs.MANIFEST_NAME).write_text("not-a-manifest\n")
        with pytest.raises(CorpusError, match="manifest"):
            load_corpus(tmp_path)

    def test_tampered_split_rejected(self, tmp_path):
        corpus = Corpus(CorpusConfig(4, 4, 32, seed=4))
        manifest = export_corpus(corpus, tmp_path / "d")
        text = manifest.read_text().replace(
            "known_styles " + " ".join(map(str, corpus.partition.known_styles)),
            "known_styles 0 1 2",
        )
        manifest.write_text(text)
        with pytest.raises(CorpusError, match="split"):
            load_corpus(tmp_path / "d")

    def test_tampered_style_parameters_rejected(self, tmp_path):
        corpus = Corpus(CorpusConfig(4, 4, 32, seed=5))
        manifest = export_corpus(corpus, tmp_path / "e")
        lines = manifest.read_text().splitlines()
        lines = [line.replace("thickness", "thickness 0.05 #", 1)
                 if line.startswith("style 0 ") else line for line in lines]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "e")

    @staticmethod
    def _refused_line(tmp_path, edit):
        """Export a corpus, rewrite its manifest's lines with ``edit``, and return
        the line number that load_corpus's CorpusError names."""
        manifest = export_corpus(Corpus(CorpusConfig(4, 4, 32, seed=6)), tmp_path / "m")
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(CorpusError, match=r"manifest\.txt:\d+: ") as caught:
            load_corpus(tmp_path / "m")
        return int(str(caught.value).split("manifest.txt:")[1].split(":")[0])

    def test_added_blank_line_rejected(self, tmp_path):
        assert self._refused_line(tmp_path, lambda lines: lines[:7] + [""] + lines[7:]) == 8

    def test_swapped_lines_rejected(self, tmp_path):
        def swap(lines):
            lines[6], lines[7] = lines[7], lines[6]
            return lines

        assert self._refused_line(tmp_path, swap) == 7

    def test_edited_style_line_rejected(self, tmp_path):
        def edit(lines):
            lines[11] = lines[11].replace("darkness ", "darkness 1", 1)
            return lines

        assert self._refused_line(tmp_path, edit) == 12

    def test_swapped_header_lines_rejected(self, tmp_path):
        def swap(lines):
            lines[1], lines[2] = lines[2], lines[1]
            return lines

        assert self._refused_line(tmp_path, swap) == 2

    def test_duplicated_style_line_rejected(self, tmp_path):
        assert self._refused_line(tmp_path, lambda lines: lines + lines[-1:]) == 14


class TestNetpbm:
    def test_pgm_write_read_write_is_byte_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(7, 9))
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        netpbm.write_pgm(first, image)
        netpbm.write_pgm(second, netpbm.read_image(first))
        assert first.read_bytes() == second.read_bytes()

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.uniform(size=(3, 4, 5))
        path = tmp_path / "c.ppm"
        netpbm.write_ppm(path, image)
        back = netpbm.read_image(path)
        assert back.shape == (3, 4, 5)
        assert np.abs(back - image).max() <= 0.5 / 255 + 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_equals_the_clipped_rounded_scale(self, dtype):
        """Bitwise the out-of-place clip(rint(255 x), 0, 255), halves and out-of-range too."""
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.uniform(-0.5, 1.5, size=2000),
                                 (np.arange(256) + 0.5) / 255.0, [-0.0, 0.0, 1.0]])
        image = values.astype(dtype)
        kept = image.copy()
        want = np.clip(np.rint(np.asarray(image, dtype=np.float64) * 255.0), 0, 255)
        assert np.array_equal(netpbm.quantize(image), want.astype(np.uint8))
        assert np.array_equal(image, kept)  # the caller's array is not written

    def test_ppm_write_holds_one_float64_copy(self, tmp_path):
        image = np.random.default_rng(3).uniform(size=(3, 512, 512)).astype(np.float32)
        tracemalloc.start()
        try:
            netpbm.write_ppm(tmp_path / "big.ppm", image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 copy and the uint8 bytes it becomes; four float64 temporaries before
        assert peak <= image.size * (8 + 1) + (64 << 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_writers_reject_non_finite_pixels_before_opening(self, tmp_path, bad):
        gray = np.full((4, 5), 0.5)
        gray[1, 2] = bad
        color = np.stack([gray, gray, gray])
        for write, image, path in ((netpbm.write_pgm, gray, tmp_path / "n.pgm"),
                                   (netpbm.write_ppm, color, tmp_path / "n.ppm")):
            with pytest.raises(netpbm.NetpbmError, match="non-finite"):
                write(path, image)
            assert not path.exists()

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5 # comment\n# another\n2 1\n255\n\x00\xff")
        image = netpbm.read_image(path)
        assert image.tolist() == [[0.0, 1.0]]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(netpbm.NetpbmError, match="truncated"):
            netpbm.read_image(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\x00EXTRA")
        with pytest.raises(netpbm.NetpbmError, match="trailing"):
            netpbm.read_image(path)

    def test_sample_above_maxval_rejected(self, tmp_path):
        """A byte of 200 under maxval 1 would otherwise read as 200.0, outside [0, 1]."""
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n2 1\n1\n\x01\xc8")
        with pytest.raises(netpbm.NetpbmError, match="sample 200 exceeds maxval 1"):
            netpbm.read_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(netpbm.NetpbmError, match="magic"):
            netpbm.read_image(path)
