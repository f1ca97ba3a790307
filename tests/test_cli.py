"""Command-line behavior: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from stylemix import netpbm
from stylemix.autodiff import Tensor
from stylemix.cli import main
from stylemix.fontnet import FontNet
from stylemix.nst import NstNet
from stylemix.training import load_checkpoint, save_checkpoint


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus"
    assert run("corpus", "--out", str(path), "--styles", "8", "--contents", "8",
               "--size", "32", "--seed", "1") == 0
    return path


@pytest.fixture(scope="module")
def font_ckpt(tmp_path_factory, corpus_dir):
    path = tmp_path_factory.mktemp("cli") / "font.ckpt"
    assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "50",
               "--steps", "2", "--lr", "2e-4", "--seed", "0",
               "--out", str(path)) == 0
    return path


@pytest.fixture(scope="module")
def nst_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "nst.ckpt"
    assert run("nst-init", "--out", str(path), "--seed", "3") == 0
    return path


class TestCorpusCommand:
    def test_writes_expected_files(self, corpus_dir):
        pgms = sorted(corpus_dir.glob("*.pgm"))
        assert len(pgms) == 64
        assert (corpus_dir / "manifest.txt").is_file()

    def test_manifest_records_six_two_split(self, corpus_dir):
        text = (corpus_dir / "manifest.txt").read_text()
        fields = {line.split()[0]: line.split()[1:] for line in text.splitlines()[1:]
                  if line and not line.startswith("style ")}
        assert len(fields["known_styles"]) == 6
        assert len(fields["novel_styles"]) == 2
        assert len(fields["known_contents"]) == 6
        assert len(fields["novel_contents"]) == 2

    def test_reruns_are_byte_identical(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert run("corpus", "--out", str(again), "--styles", "8", "--contents", "8",
                   "--size", "32", "--seed", "1") == 0
        for path in sorted(corpus_dir.iterdir()):
            assert (again / path.name).read_bytes() == path.read_bytes()

    def test_invalid_size_exits_with_data_error(self, tmp_path):
        assert run("corpus", "--out", str(tmp_path / "x"), "--styles", "4",
                   "--contents", "4", "--size", "8") == 3


class TestTrainCommand:
    def test_zero_steps_writes_loadable_initial_checkpoint(self, corpus_dir, tmp_path):
        out = tmp_path / "init.ckpt"
        assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "10",
                   "--steps", "0", "--seed", "0", "--out", str(out)) == 0
        net = FontNet.from_state(load_checkpoint(out))
        assert net.config.ref_count == 2

    def test_emits_parseable_log(self, corpus_dir, font_ckpt):
        log = font_ckpt.parent / (font_ckpt.name + ".log")
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            step, loss, wall = line.split(",")
            int(step), float(loss), float(wall)

    def test_same_seed_gives_identical_checkpoint_bytes(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "20",
                       "--steps", "2", "--seed", "4", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_r_exits_with_corpus_error(self, corpus_dir, tmp_path, capsys):
        rc = run("train", "--corpus", str(corpus_dir), "--r", "7", "--nt", "10",
                 "--steps", "1", "--out", str(tmp_path / "x.ckpt"))
        assert rc == 3
        assert "exceeds" in capsys.readouterr().err

    def test_nan_learning_rate_exits_with_data_error_and_writes_nothing(self, corpus_dir,
                                                                        tmp_path, capsys):
        out = tmp_path / "nan.ckpt"
        assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "10",
                   "--steps", "1", "--lr", "nan", "--out", str(out)) == 3
        assert "learning_rate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_learning_rate_exits_with_data_error_and_writes_nothing(
            self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "inf.ckpt"
        assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "10",
                   "--steps", "1", "--lr", "inf", "--out", str(out)) == 3
        assert "learning_rate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_update_exits_with_data_error_and_saves_no_net(
            self, corpus_dir, tmp_path, capsys):
        """1e300 is a finite float64 rate, but the float32 Adam update overflows."""
        out = tmp_path / "big.ckpt"
        assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "10",
                   "--steps", "1", "--lr", "1e300", "--out", str(out)) == 3
        assert "non-finite" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["big.ckpt.log"]

    def test_missing_corpus_exits_with_data_error(self, tmp_path):
        assert run("train", "--corpus", str(tmp_path / "nowhere"), "--steps", "1",
                   "--out", str(tmp_path / "x.ckpt")) == 3


def _ref_paths(corpus_dir, style_id, content_ids):
    return [str(corpus_dir / f"style{style_id:04d}_content{j:04d}.pgm")
            for j in content_ids]


def _content_ref_paths(corpus_dir, content_id, style_ids):
    return [str(corpus_dir / f"style{i:04d}_content{content_id:04d}.pgm")
            for i in style_ids]


class TestGenerateCommand:
    def test_writes_valid_pgm_of_declared_size(self, corpus_dir, font_ckpt, tmp_path):
        out = tmp_path / "gen.pgm"
        assert run("generate", "--ckpt", str(font_ckpt),
                   "--style-refs", *_ref_paths(corpus_dir, 0, (1, 2)),
                   "--content-refs", *_content_ref_paths(corpus_dir, 3, (4, 5)),
                   "--out", str(out)) == 0
        image = netpbm.read_image(out)
        assert image.shape == (32, 32)
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_repeated_invocations_are_byte_identical(self, corpus_dir, font_ckpt, tmp_path):
        outs = [tmp_path / "r1.pgm", tmp_path / "r2.pgm"]
        for out in outs:
            assert run("generate", "--ckpt", str(font_ckpt),
                       "--style-refs", *_ref_paths(corpus_dir, 1, (0, 3)),
                       "--content-refs", *_content_ref_paths(corpus_dir, 2, (4, 6)),
                       "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_swapping_reference_sets_changes_the_output(self, corpus_dir, font_ckpt, tmp_path):
        style = _ref_paths(corpus_dir, 0, (1, 2))
        content = _content_ref_paths(corpus_dir, 3, (4, 5))
        a, b = tmp_path / "ab.pgm", tmp_path / "ba.pgm"
        assert run("generate", "--ckpt", str(font_ckpt), "--style-refs", *style,
                   "--content-refs", *content, "--out", str(a)) == 0
        assert run("generate", "--ckpt", str(font_ckpt), "--style-refs", *content,
                   "--content-refs", *style, "--out", str(b)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_wrong_reference_count_names_expected_r(self, corpus_dir, font_ckpt,
                                                    tmp_path, capsys):
        rc = run("generate", "--ckpt", str(font_ckpt),
                 "--style-refs", *_ref_paths(corpus_dir, 0, (1, 2, 3)),
                 "--content-refs", *_content_ref_paths(corpus_dir, 3, (4, 5)),
                 "--out", str(tmp_path / "x.pgm"))
        assert rc == 3
        assert "r=2" in capsys.readouterr().err

    def test_wrong_image_size_names_expected_size(self, corpus_dir, font_ckpt,
                                                  tmp_path, capsys):
        small = tmp_path / "small.pgm"
        netpbm.write_pgm(small, np.ones((16, 16)))
        rc = run("generate", "--ckpt", str(font_ckpt),
                 "--style-refs", str(small), str(small),
                 "--content-refs", *_content_ref_paths(corpus_dir, 3, (4, 5)),
                 "--out", str(tmp_path / "x.pgm"))
        assert rc == 3
        assert "32x32" in capsys.readouterr().err

    def test_wrong_typed_config_field_is_a_data_error(self, corpus_dir, font_ckpt,
                                                      tmp_path, capsys):
        arrays = load_checkpoint(font_ckpt)
        fields = json.loads(arrays["meta.font"].astype(np.uint8).tobytes())
        fields["image_size"] = "64"
        arrays["meta.font"] = np.frombuffer(json.dumps(fields).encode("utf-8"),
                                            dtype=np.uint8).astype(np.float64)
        bad = tmp_path / "typed.ckpt"
        save_checkpoint(bad, arrays)
        rc = run("generate", "--ckpt", str(bad),
                 "--style-refs", *_ref_paths(corpus_dir, 0, (1, 2)),
                 "--content-refs", *_content_ref_paths(corpus_dir, 3, (4, 5)),
                 "--out", str(tmp_path / "x.pgm"))
        assert rc == 3
        err = capsys.readouterr().err
        assert "meta.font" in err and "Traceback" not in err


class TestEvalCommand:
    def test_emits_csv_metric_table(self, corpus_dir, font_ckpt, capsys):
        assert run("eval", "--ckpt", str(font_ckpt), "--corpus", str(corpus_dir),
                   "--r", "2", "--seed", "0", "--per-set", "2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "set,l1,rmse,pdar"
        assert len(lines) == 5
        for cell, line in zip(("d1", "d2", "d3", "d4"), lines[1:]):
            name, *values = line.split(",")
            assert name == cell
            assert len(values) == 3
            assert all(float(v) >= 0.0 for v in values)


class TestNstCommand:
    def test_alpha_sweep_emits_files(self, corpus_dir, nst_ckpt, tmp_path):
        style = str(corpus_dir / "style0000_content0000.pgm")
        content = str(corpus_dir / "style0001_content0001.pgm")
        for i, alpha in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            out = tmp_path / f"sweep{i}.ppm"
            assert run("nst", "--style", style, "--content", content,
                       "--ckpt", str(nst_ckpt), "--alpha", str(alpha),
                       "--out", str(out)) == 0
        files = sorted(tmp_path.glob("sweep*.ppm"))
        assert len(files) == 5
        image = netpbm.read_image(files[0])
        assert image.shape == (3, 32, 32)

    def test_interpolation_path(self, corpus_dir, nst_ckpt, tmp_path):
        out = tmp_path / "interp.ppm"
        assert run("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                   "--interp-style2", str(corpus_dir / "style0002_content0002.pgm"),
                   "--content", str(corpus_dir / "style0001_content0001.pgm"),
                   "--ckpt", str(nst_ckpt), "--alpha", "0.5", "--out", str(out)) == 0
        assert out.is_file()

    def test_repeated_invocations_byte_identical(self, corpus_dir, nst_ckpt, tmp_path):
        args = ("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                "--content", str(corpus_dir / "style0001_content0001.pgm"),
                "--ckpt", str(nst_ckpt), "--alpha", "0.7")
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_alpha_is_a_usage_error(self, corpus_dir, nst_ckpt, tmp_path):
        rc = run("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                 "--content", str(corpus_dir / "style0001_content0001.pgm"),
                 "--ckpt", str(nst_ckpt), "--alpha", "1.5",
                 "--out", str(tmp_path / "x.ppm"))
        assert rc == 2

    def test_font_checkpoint_is_a_data_error(self, corpus_dir, font_ckpt, tmp_path):
        rc = run("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                 "--content", str(corpus_dir / "style0001_content0001.pgm"),
                 "--ckpt", str(font_ckpt), "--alpha", "0.5",
                 "--out", str(tmp_path / "x.ppm"))
        assert rc == 3

    def test_short_meta_is_a_data_error(self, corpus_dir, nst_ckpt, tmp_path, capsys):
        arrays = load_checkpoint(nst_ckpt)
        arrays["meta.nst"] = np.array([3.0, 3.0, 1.0])
        bad = tmp_path / "short_meta.ckpt"
        save_checkpoint(bad, arrays)
        rc = run("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                 "--content", str(corpus_dir / "style0001_content0001.pgm"),
                 "--ckpt", str(bad), "--alpha", "0.5", "--out", str(tmp_path / "x.ppm"))
        assert rc == 3
        assert "meta.nst" in capsys.readouterr().err

    def test_nan_kernel_is_a_data_error_and_writes_nothing(self, corpus_dir, nst_ckpt,
                                                           tmp_path, capsys):
        arrays = load_checkpoint(nst_ckpt)
        arrays["decoder.out.kernel"][0, 0, 0, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, arrays)
        out = tmp_path / "x.ppm"
        rc = run("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                 "--content", str(corpus_dir / "style0001_content0001.pgm"),
                 "--ckpt", str(bad), "--alpha", "0.5", "--out", str(out))
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_runs_in_float32_within_one_level_of_float64(self, corpus_dir, nst_ckpt,
                                                         tmp_path, monkeypatch):
        style = corpus_dir / "style0000_content0000.pgm"
        content = corpus_dir / "style0001_content0001.pgm"
        out = tmp_path / "f32.ppm"
        written = []
        write_ppm = netpbm.write_ppm

        def spy(path, image):
            written.append(image.dtype)
            write_ppm(path, image)

        monkeypatch.setattr(netpbm, "write_ppm", spy)
        assert run("nst", "--style", str(style), "--content", str(content),
                   "--ckpt", str(nst_ckpt), "--alpha", "0.5", "--out", str(out)) == 0
        net = NstNet.from_state(load_checkpoint(nst_ckpt))
        style_t, content_t = (Tensor(np.stack([netpbm.read_image(p)] * 3)[None])
                              for p in (style, content))
        mixed = net.forward_interpolate(content_t, style_t, content_t, 0.5)
        want = netpbm.quantize(np.clip(mixed.data[0], 0.0, 1.0))
        got = np.round(netpbm.read_image(out) * 255).astype(np.uint8)
        assert written == [np.float32]
        assert np.abs(got.astype(int) - want.astype(int)).max() <= 1


class TestNstInitCommand:
    def test_checkpoint_is_loadable(self, nst_ckpt):
        net = NstNet.from_state(load_checkpoint(nst_ckpt))
        assert net.config.mix_channels == 64

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run("nst-init", "--out", str(a), "--seed", "9") == 0
        assert run("nst-init", "--out", str(b), "--seed", "9") == 0
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    def test_unknown_flag_rejected(self, tmp_path):
        assert run("corpus", "--out", str(tmp_path / "x"), "--bogus", "1") == 2

    def test_unknown_subcommand_rejected(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag_rejected(self):
        assert run("corpus") == 2
