"""Command-line behavior: artifacts, determinism, exit codes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stylemix
from stylemix import glyphs, netpbm
from stylemix.autodiff import Tensor
from stylemix.cli import main
from stylemix.fontnet import FontNet, FontNetConfig, config_record
from stylemix.nst import NstConfig, NstNet
from stylemix.training import AdamState, TrainConfig, load_checkpoint, save_checkpoint, train


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

    def test_size_beyond_memory_is_a_data_error_within_4_gb(self, tmp_path):
        """A 1048576 px glyph asks for 8 TiB: under a 4 GB address-space cap the
        allocation fails at once, and the command exits 3 without a traceback."""
        limit = 4 * 10 ** 9
        result = subprocess.run(
            [sys.executable, "-m", "stylemix.cli", "corpus", "--out", str(tmp_path / "x"),
             "--styles", "4", "--contents", "4", "--size", "1048576"],
            env={**os.environ, "PYTHONPATH": str(Path(stylemix.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


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

    def test_a_second_run_replaces_the_first_runs_log(self, corpus_dir, tmp_path):
        out = tmp_path / "f.ckpt"
        for steps in ("2", "3"):
            assert run("train", "--corpus", str(corpus_dir), "--r", "2", "--nt", "10",
                       "--steps", steps, "--out", str(out)) == 0
        lines = (tmp_path / "f.ckpt.log").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["0", "1", "2"]

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

    def test_huge_r_is_refused_before_a_net_is_built(self, corpus_dir, tmp_path, monkeypatch,
                                                     capsys):
        """--r 10**12 is refused, naming the reference count, before a net of that
        many input channels is built or the log is opened."""
        def no_net(*args, **kwargs):
            raise AssertionError("train built a net")

        monkeypatch.setattr(FontNet, "initialize", no_net)
        assert run("train", "--corpus", str(corpus_dir), "--r", str(10 ** 12), "--steps", "1",
                   "--out", str(tmp_path / "x.ckpt")) == 3
        assert "reference count" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        assert [p.name for p in tmp_path.iterdir()] == []

    @pytest.mark.parametrize("line, count", [("styles", 100000), ("contents", 10 ** 12)])
    def test_header_the_manifest_cannot_hold_is_refused_before_the_corpus_is_built(
            self, corpus_dir, tmp_path, monkeypatch, capsys, line, count):
        """More styles than lines, or more contents than characters: the
        corpus such a header describes is never built."""
        copy = tmp_path / "c"
        copy.mkdir()
        text = (corpus_dir / "manifest.txt").read_text()
        old = next(row for row in text.splitlines() if row.startswith(f"{line} "))
        (copy / "manifest.txt").write_text(text.replace(old, f"{line} {count}", 1))

        def no_corpus(*args, **kwargs):
            raise AssertionError("load_corpus built the corpus")

        monkeypatch.setattr(glyphs, "Corpus", no_corpus)
        assert run("train", "--corpus", str(copy), "--r", "2", "--steps", "1",
                   "--out", str(tmp_path / "x.ckpt")) == 3
        lineno = 3 if line == "styles" else 4
        assert f"manifest.txt:{lineno}: {line} {count}" in capsys.readouterr().err

    def test_lr_reaches_adam(self, tmp_path):
        """--lr sets the rate Adam steps with: the checkpoint and logged losses equal
        an in-process run stepping AdamState(learning_rate=1e-2), and differ from 2e-4's."""
        corpus = tmp_path / "c"
        assert run("corpus", "--out", str(corpus), "--styles", "8", "--contents", "8",
                   "--size", "16") == 0
        logged = {}
        for lr in ("1e-2", "2e-4"):
            assert run("train", "--corpus", str(corpus), "--r", "2", "--nt", "20",
                       "--steps", "3", "--lr", lr, "--out", str(tmp_path / f"{lr}.ckpt")) == 0
            lines = (tmp_path / f"{lr}.ckpt.log").read_text().splitlines()
            logged[lr] = [line.split(",")[1] for line in lines]
        net = FontNet.initialize(FontNetConfig(image_size=16, ref_count=2))
        result = train(TrainConfig(steps=3, n_t=20), glyphs.load_corpus(corpus), net,
                       adam=AdamState(learning_rate=1e-2))
        save_checkpoint(tmp_path / "in_process.ckpt", result.net.state_arrays())
        assert (tmp_path / "in_process.ckpt").read_bytes() == (tmp_path / "1e-2.ckpt").read_bytes()
        assert logged["1e-2"] == [f"{loss:.10g}" for loss in result.losses]
        assert logged["1e-2"][1:] != logged["2e-4"][1:]

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
                   "--seed", "0", "--per-set", "2") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "set,l1,rmse,pdar"
        assert len(lines) == 5
        for cell, line in zip(("d1", "d2", "d3", "d4"), lines[1:]):
            name, *values = line.split(",")
            assert name == cell
            assert len(values) == 3
            assert all(float(v) >= 0.0 for v in values)

    def test_nan_tensor_is_a_data_error_and_prints_no_table(self, corpus_dir, font_ckpt,
                                                            tmp_path, capsys):
        arrays = load_checkpoint(font_ckpt)
        arrays["mixer.tensor"][:] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, arrays)
        rc = run("eval", "--ckpt", str(bad), "--corpus", str(corpus_dir),
                 "--seed", "0", "--per-set", "2")
        captured = capsys.readouterr()
        assert rc == 3
        assert "non-finite" in captured.err and "mixer.tensor" in captured.err
        assert captured.out == ""


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

    def test_stride_the_decoder_cannot_invert_is_a_data_error(self, corpus_dir, nst_ckpt,
                                                              tmp_path, capsys):
        """A stride-3 block would decode the 32 px content image to 22 px. The record
        is written as JSON bytes, since config_record refuses the plan."""
        arrays = load_checkpoint(nst_ckpt)
        record = {"conv_plan": [[3, 1, 16], [3, 3, 32], [3, 2, 64]], "n_content_res": 4}
        arrays["meta.nst"] = np.frombuffer(json.dumps(record).encode("utf-8"),
                                           dtype=np.uint8).astype(np.float64)
        bad = tmp_path / "stride3.ckpt"
        save_checkpoint(bad, arrays)
        out = tmp_path / "x.ppm"
        rc = run("nst", "--style", str(corpus_dir / "style0000_content0000.pgm"),
                 "--content", str(corpus_dir / "style0001_content0001.pgm"),
                 "--ckpt", str(bad), "--alpha", "0.5", "--out", str(out))
        assert rc == 3
        assert "meta.nst" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_record_is_a_data_error_within_4_gb(self, corpus_dir, nst_ckpt, tmp_path):
        """A record 10**12 channels wide exits 3 naming meta.nst. The run is capped
        at 4 GB of address space, so an allocation of what the record describes
        fails at once instead of exhausting the machine."""
        arrays = load_checkpoint(nst_ckpt)
        arrays["meta.nst"] = config_record(
            NstConfig(conv_plan=((3, 1, 16), (3, 2, 32), (3, 2, 10 ** 12))))
        bad = tmp_path / "huge.ckpt"
        save_checkpoint(bad, arrays)
        limit = 4 * 10 ** 9
        result = subprocess.run(
            [sys.executable, "-m", "stylemix.cli", "nst",
             "--style", str(corpus_dir / "style0000_content0000.pgm"),
             "--content", str(corpus_dir / "style0001_content0001.pgm"),
             "--ckpt", str(bad), "--alpha", "0.5", "--out", str(tmp_path / "x.ppm")],
            env={**os.environ, "PYTHONPATH": str(Path(stylemix.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 3, result.stderr
        assert "meta.nst" in result.stderr

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

    @pytest.mark.parametrize("argv, flag", [
        (("corpus", "--out", "{out}", "--seed", "-1"), "--seed"),
        (("train", "--corpus", "{corpus}", "--r", "2", "--nt", "10", "--steps", "1",
          "--out", "{out}", "--seed", "-1"), "--seed"),
        (("eval", "--ckpt", "{ckpt}", "--corpus", "{corpus}", "--seed", "-1"), "--seed"),
        (("nst-init", "--out", "{out}", "--seed", "-1"), "--seed"),
        (("eval", "--ckpt", "{ckpt}", "--corpus", "{corpus}", "--per-set", "-1"), "--per-set"),
        (("eval", "--ckpt", "{ckpt}", "--corpus", "{corpus}", "--per-set", "0"), "--per-set"),
    ], ids=["corpus-seed", "train-seed", "eval-seed", "nst-init-seed", "eval-per-set",
            "eval-per-set-zero"])
    def test_out_of_range_count_is_a_usage_error_naming_its_flag(
            self, corpus_dir, font_ckpt, tmp_path, capsys, argv, flag):
        paths = dict(corpus=corpus_dir, ckpt=font_ckpt, out=tmp_path / "out")
        assert run(*(arg.format(**paths) for arg in argv)) == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
