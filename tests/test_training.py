"""Adam, gradient clipping, training loops, evaluation, checkpoints."""

import pathlib
import tracemalloc

import numpy as np
import pytest

from stylemix import training
from stylemix.autodiff import Tensor
from stylemix.fontnet import FontNet, FontNetConfig
from stylemix.glyphs import (
    Corpus,
    CorpusConfig,
    CorpusError,
    build_eval_sets,
    sample_training_batch,
)
from stylemix.losses import l1_metric, pdar_metric, rmse_metric, weighted_l1_loss
from stylemix.nst import FeatureExtractor, NstConfig, NstNet, nst_objective
from stylemix.training import (
    ADAM_BLOCK,
    AdamState,
    CheckpointError,
    SuiteMetrics,
    TrainConfig,
    TrainingError,
    adam_step,
    check_finite,
    clip_gradients,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    train_nst_pair,
)
from stylemix.fontnet import stack_triplets
from stylemix.autodiff import Graph


MICRO_TRAIN = dict(n_t=20)


def micro_net(seed=0, ref_count=2, image_size=16):
    """The small FontNet that the training tests step: base width 4, not 16."""
    return FontNet.initialize(
        FontNetConfig(image_size=image_size, base_channels=4, ref_count=ref_count), seed=seed)


@pytest.fixture(scope="module")
def corpus():
    return Corpus(CorpusConfig(n_styles=8, n_contents=8, image_size=16, seed=0))


def _optimizer_state(params, adam):
    """Each parameter's data array and bytes, Adam's step count and its moments' arrays
    and bytes: what a refused step must leave as it found it."""
    return ({name: (p.data, p.data.tobytes()) for name, p in params.items()},
            adam.step_count,
            [{name: (a, a.tobytes()) for name, a in moments.items()}
             for moments in (adam.m, adam.v)])


def _assert_untouched(params, adam, before):
    data, step_count, moments = before
    for name, p in params.items():
        assert p.data is data[name][0] and p.data.tobytes() == data[name][1], name
        assert p.grad is None, name
    assert adam.step_count == step_count
    for now, then in zip((adam.m, adam.v), moments):
        assert now.keys() == then.keys()
        for name, a in now.items():
            assert a is then[name][0] and a.tobytes() == then[name][1], name


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState(learning_rate=0.1)
        adam_step({"p": p}, state)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=5)
        p = Tensor(np.zeros(5), requires_grad=True)
        p.grad = g.copy()
        adam_step({"p": p}, AdamState(learning_rate=0.01))
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        assert np.allclose(p.data, -0.01 * np.sign(g), atol=1e-6)

    def test_quadratic_bowl_converges(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState(learning_rate=0.05)
        for _ in range(500):
            x.grad = 2.0 * x.data  # d/dx x^2
            adam_step({"x": x}, state)
        assert abs(float(x.data[0])) < 1e-3

    def test_missing_gradient_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(TrainingError, match="no gradient"):
            adam_step({"p": p}, AdamState())

    def test_rejects_gradient_of_another_shape(self):
        p = Tensor(np.zeros((2, 3)), requires_grad=True)
        p.grad = np.zeros(6)
        with pytest.raises(TrainingError, match="shape"):
            adam_step({"p": p}, AdamState())


def reference_adam_step(params, state: AdamState) -> None:
    """The unblocked Adam update, one whole-array expression per line."""
    state.step_count += 1
    t = state.step_count
    beta1, beta2 = training.ADAM_BETA1, training.ADAM_BETA2
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / correction1
        v_hat = v / correction2
        p.data = p.data - state.learning_rate * m_hat / (np.sqrt(v_hat) + training.ADAM_EPSILON)


def _large(rng):
    return {"w": rng.normal(size=2 * ADAM_BLOCK + 3)}


def _transposed(rng):
    return {"w": rng.normal(size=(300, 130)).T}


def _many_small(rng):
    return {f"p{i}": rng.normal(size=(i % 4 + 1, i + 1)) for i in range(40)}


class TestBlockedAdam:
    @pytest.mark.parametrize("make", [_large, _transposed, _many_small])
    def test_bit_identical_to_reference(self, make):
        self._check_against_reference(make, np.float64)

    @pytest.mark.parametrize("make", [_large, _transposed, _many_small])
    def test_float32_bit_identical_to_reference(self, make):
        self._check_against_reference(make, np.float32)

    @staticmethod
    def _check_against_reference(make, dtype):
        rng = np.random.default_rng(11)
        initial = {n: a.astype(dtype) for n, a in make(rng).items()}
        blocked = {n: Tensor(a, requires_grad=True) for n, a in initial.items()}
        reference = {n: Tensor(a, requires_grad=True) for n, a in initial.items()}
        state, want = AdamState(learning_rate=1e-2), AdamState(learning_rate=1e-2)
        for _ in range(5):
            for name, a in initial.items():
                grad = rng.normal(size=a.shape).astype(dtype)
                if not a.flags.c_contiguous:  # a transposed gradient too
                    grad = rng.normal(size=a.T.shape).astype(dtype).T
                blocked[name].grad = grad
                reference[name].grad = grad.copy()
            adam_step(blocked, state)
            reference_adam_step(reference, want)
            for name in initial:
                assert blocked[name].data.dtype == state.m[name].dtype == dtype, name
                assert np.array_equal(blocked[name].data, reference[name].data), name
                assert np.array_equal(state.m[name], want.m[name]), name
                assert np.array_equal(state.v[name], want.v[name]), name
        assert state.step_count == want.step_count == 5

    def test_parameter_arrays_are_rebound_not_written(self):
        shared = np.arange(5.0)
        p = Tensor(shared, requires_grad=True)
        p.grad = np.ones(5)
        adam_step({"p": p}, AdamState(learning_rate=0.1))
        assert np.array_equal(shared, np.arange(5.0))
        assert not np.shares_memory(p.data, shared)

    def test_peak_memory_is_about_one_parameter(self):
        p = Tensor(np.random.default_rng(12).normal(size=1_000_000), requires_grad=True)
        p.grad = np.ones(p.shape)
        state = AdamState()
        adam_step({"p": p}, state)  # allocates the moments
        p.grad = np.full(p.shape, 0.5)
        tracemalloc.start()
        try:
            adam_step({"p": p}, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * p.data.nbytes


class TestClipGradients:
    def test_large_gradients_scaled_to_max_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = clip_gradients({"p": p}, max_norm=5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.array([0.1, 0.2, 0.2])
        clip_gradients({"p": p}, max_norm=5.0)
        assert np.array_equal(p.grad, [0.1, 0.2, 0.2])

    def test_gradient_shared_by_two_leaves_is_scaled_once(self):
        p = Tensor(np.ones(3), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        graph = Graph()
        with graph:
            loss = ((p + q) * Tensor(np.full(3, 10.0))).sum()
        graph.backward(loss)
        assert p.grad is q.grad  # add hands one array to both operands
        norm = clip_gradients({"p": p, "q": q}, max_norm=1.0)
        assert norm == pytest.approx(np.sqrt(600.0))
        assert np.sqrt(np.sum(p.grad ** 2) + np.sum(q.grad ** 2)) == pytest.approx(1.0)


class TestCheckpointFormat:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {
            "alpha": rng.normal(size=(3, 4)),
            "beta": rng.normal(size=7),
            "meta": np.array([16.0, 4.0, 2.0]),
        }
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, arrays)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"w": np.arange(4.0)})
        before = path.read_bytes()
        real_open = pathlib.Path.open

        class TornFile:
            """Takes 200 of the 418 bytes, then fails inside the tensor's values."""

            def __init__(self, file):
                self.file, self.room = file, 200

            def write(self, data):
                data = memoryview(data).cast("B")
                taken = self.file.write(data[:self.room])
                self.room -= taken
                if taken < len(data):
                    raise OSError("disk full")
                return taken

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

        monkeypatch.setattr(pathlib.Path, "open",
                            lambda self, *args, **kw: TornFile(real_open(self, *args, **kw)))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.arange(100.0)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_holds_no_copy_of_the_checkpoint(self, tmp_path):
        """The default FontNet's 15.7 MiB of float32 tensors go to the file as they are."""
        arrays = FontNet.initialize(FontNetConfig()).state_arrays()
        path = tmp_path / "default.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
        loaded = load_checkpoint(path)
        assert path.stat().st_size > 15 << 20
        for name, array in arrays.items():
            assert loaded[name].tobytes() == array.astype(np.float32).tobytes(), name

    def test_tensor_count_matches(self, tmp_path):
        net = FontNet.initialize(FontNetConfig(image_size=16, base_channels=2, ref_count=2))
        state = net.state_arrays()
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert len(loaded) == len(state)
        assert list(loaded) == list(state)

    def test_values_round_trip_at_serialized_precision(self, tmp_path):
        rng = np.random.default_rng(2)
        arrays = {"w": rng.normal(size=11)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, arrays)
        back = load_checkpoint(path)["w"]
        assert np.array_equal(back, arrays["w"].astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("array", [
        np.array(2.5),
        np.arange(12.0, dtype=np.float32).reshape(3, 4).T,
        np.arange(6, dtype=np.int64).reshape(2, 1, 3),
    ], ids=["rank0", "transposed", "int64"])
    def test_writes_the_documented_layout(self, tmp_path, array):
        """Magic, version and count, then per tensor the name, rank, extents and
        its C-order values in <f4: a 0-d array stays rank 0, a strided or
        non-float32 one is written in that order and dtype."""
        name = "t.\u00e9".encode("utf-8")
        want = (b"EMD1" + (1).to_bytes(2, "little") + (1).to_bytes(4, "little")
                + len(name).to_bytes(2, "little") + name + bytes([array.ndim])
                + b"".join(n.to_bytes(4, "little") for n in array.shape)
                + array.astype("<f4").tobytes(order="C"))
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"t.\u00e9": array})
        assert path.read_bytes() == want

    def test_loads_writable_float32_arrays(self, tmp_path):
        """Each tensor comes back as its own writable float32 array, the file's precision."""
        rng = np.random.default_rng(3)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=5).astype(np.float32)}
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        for name, array in loaded.items():
            assert array.dtype == np.float32 and array.flags.writeable, name
            assert np.array_equal(array, arrays[name].astype(np.float32)), name
        assert not np.shares_memory(loaded["a"], loaded["b"])
        loaded["a"][0, 0] = np.nan
        assert not np.isnan(load_checkpoint(path)["a"]).any()

    def test_corrupted_length_field_is_diagnosed(self, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, {"w": np.zeros(3)})
        blob = bytearray(path.read_bytes())
        blob[10:12] = (0xFFFF).to_bytes(2, "little")  # first name-length field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(path)

    def test_truncated_file_is_diagnosed(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, {"w": np.zeros(5)})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, {"w": np.zeros(2)})
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "g.ckpt"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_duplicate_names_rejected(self, tmp_path):
        import struct

        blob = b"EMD1" + struct.pack("<HI", 1, 2)
        entry = struct.pack("<H", 1) + b"w" + struct.pack("<B", 1) + struct.pack("<I", 1)
        entry += np.zeros(1, dtype="<f4").tobytes()
        path = tmp_path / "h.ckpt"
        path.write_bytes(blob + entry + entry)
        with pytest.raises(CheckpointError, match="duplicate"):
            load_checkpoint(path)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_check_finite_names_a_tensor_that_is_not_finite_in_float32(self, value):
        """1e300 is finite in float64 but overflows the float32 file."""
        arrays = {"fine": np.ones(3), "bad": np.array([[0.0, value]]), "later": np.ones(2)}
        with pytest.raises(CheckpointError, match="'bad'"):
            check_finite(arrays)

    def test_check_finite_passes_a_finite_net(self):
        check_finite(NstNet.initialize(NstConfig(), seed=0).state_arrays())


class TestTrain:
    @pytest.mark.parametrize("_smoke", [0])
    def test_log_lines_are_parseable(self, corpus, tmp_path, _smoke):
        config = TrainConfig(steps=3, seed=1, **MICRO_TRAIN)
        log_path = tmp_path / "run.log"
        result = train(config, corpus, net=micro_net(1), adam=AdamState(learning_rate=1e-3),
                       log_path=log_path)
        assert len(result.losses) == 3
        for line in log_path.read_text().splitlines():
            step, loss, wall = line.split(",")
            int(step)
            assert np.isfinite(float(loss))
            assert float(wall) >= 0.0

    def test_a_run_from_step_zero_replaces_the_log(self, corpus, tmp_path):
        log_path = tmp_path / "run.log"
        log_path.write_text("0,1.0,1.0\n1,1.0,1.0\n", encoding="ascii")
        train(TrainConfig(steps=1, seed=1, **MICRO_TRAIN), corpus, net=micro_net(1),
              log_path=log_path)
        assert [line.split(",")[0] for line in log_path.read_text().splitlines()] == ["0"]

    def test_a_continued_run_appends_to_the_log(self, corpus, tmp_path):
        net, adam, log_path = micro_net(1), AdamState(), tmp_path / "run.log"
        train(TrainConfig(steps=2, seed=1, **MICRO_TRAIN), corpus, net=net, adam=adam,
              log_path=log_path)
        train(TrainConfig(steps=1, seed=1, start_step=2, **MICRO_TRAIN), corpus, net=net,
              adam=adam, log_path=log_path)
        steps = [line.split(",")[0] for line in log_path.read_text().splitlines()]
        assert steps == ["0", "1", "2"]

    def test_single_step_decreases_loss_on_one_triplet(self, corpus):
        # a pool of one triplet (n_t=1): every batch holds only it
        decreased = 0
        for seed in range(20):
            config = TrainConfig(steps=1, n_t=1, seed=seed)
            net = micro_net(seed)

            def triplet_loss():
                triplets = sample_training_batch(corpus, 1, 2, 2, seed=config.seed, step=0)
                style_x, content_x, targets = stack_triplets(triplets)
                out = net.forward_generate(Tensor(style_x), Tensor(content_x), mode="train")
                return weighted_l1_loss(out, targets).item()

            before = triplet_loss()
            train(config, corpus, net=net, adam=AdamState(learning_rate=1e-3))
            after = triplet_loss()
            decreased += after < before
        assert decreased >= 18

    def test_fixed_seed_runs_are_bit_identical(self, corpus, tmp_path):
        config = TrainConfig(steps=4, seed=7, **MICRO_TRAIN)
        net_a, net_b = micro_net(7), micro_net(7)
        a = train(config, corpus, net=net_a)
        b = train(config, corpus, net=net_b)
        assert a.losses == b.losses
        path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(path_a, net_a.state_arrays())
        save_checkpoint(path_b, net_b.state_arrays())
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_resume_from_checkpoint_is_reproducible(self, corpus, tmp_path):
        config = TrainConfig(steps=3, seed=9, **MICRO_TRAIN)
        first = micro_net(9)
        train(config, corpus, net=first)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, first.state_arrays())

        def resume_loss():
            net = FontNet.from_state(load_checkpoint(path))
            more = TrainConfig(steps=1, seed=9, start_step=3, **MICRO_TRAIN)
            return train(more, corpus, net=net).losses[0]

        assert resume_loss() == resume_loss()

    @pytest.mark.parametrize("name, value", [
        ("steps", -1),
        ("learning_rate", float("nan")),
        ("learning_rate", 0.0),
        ("start_step", -5),
    ])
    def test_rejects_values_the_code_cannot_use(self, name, value):
        """A NaN rate writes NaN weights and a zero one moves none; the rate is Adam's."""
        owner = AdamState if name == "learning_rate" else TrainConfig
        with pytest.raises(ValueError, match=name):
            owner(**{name: value})

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_an_infinite_learning_rate(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            AdamState(learning_rate=value)

    @pytest.mark.parametrize("rate", [1e300, 3.5e38])
    def test_rejects_a_rate_beyond_float32_before_any_update(self, corpus, rate):
        """Finite in float64, inf in float32: Adam would turn every weight into NaN."""
        config = TrainConfig(steps=2, **MICRO_TRAIN)
        net = micro_net()
        before = {name: p.data.copy() for name, p in net.params.items()}
        with pytest.raises(ValueError, match="learning_rate .* non-finite in float32"):
            train(config, corpus, net=net, adam=AdamState(learning_rate=rate))
        for name, p in net.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_a_rate_beyond_float32_creates_no_log(self, corpus, tmp_path):
        config = TrainConfig(steps=1, **MICRO_TRAIN)
        log_path = tmp_path / "run.log"
        with pytest.raises(ValueError, match="learning_rate"):
            train(config, corpus, micro_net(), adam=AdamState(learning_rate=1e300),
                  log_path=log_path)
        assert not log_path.exists()

    def test_trains_in_float32(self, corpus, monkeypatch):
        """Parameters, gradients, Adam moments and buffers all stay float32."""
        grad_dtypes = set()

        def recording_adam_step(params, state):
            grad_dtypes.update(p.grad.dtype for p in params.values())
            adam_step(params, state)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        adam, net = AdamState(), micro_net(2)
        train(TrainConfig(steps=2, seed=2, **MICRO_TRAIN), corpus, net=net, adam=adam)
        assert grad_dtypes == {np.dtype(np.float32)}
        assert {t.data.dtype for t in net.params.values()} == {np.dtype(np.float32)}
        assert set(adam.m) == set(adam.v) == set(net.params)
        assert {a.dtype for a in [*adam.m.values(), *adam.v.values()]} == {
            np.dtype(np.float32)}
        assert {a.dtype for s in net.buffers.values() for a in (s.mean, s.std)} == {
            np.dtype(np.float32)}
        item = sample_training_batch(corpus, 1, 2, 2, seed=0)[0]
        image = net.generate_from_refs(item.style_refs.images, item.content_refs.images)
        assert image.dtype == np.float32

    def test_checkpoint_round_trip_is_bit_exact(self, corpus, tmp_path):
        net = micro_net(4)
        train(TrainConfig(steps=2, seed=4, **MICRO_TRAIN), corpus, net=net)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net.state_arrays())
        want = net.state_arrays()
        got = FontNet.from_state(load_checkpoint(path)).state_arrays()
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_nonfinite_loss_aborts_with_diagnostic(self, corpus):
        config = TrainConfig(steps=1, seed=3, **MICRO_TRAIN)
        net = micro_net(3)
        net.params["mixer.tensor"].data[0, 0, 0] = np.nan
        with pytest.raises(TrainingError, match="step 0"):
            train(config, corpus, net=net)

    def test_nonfinite_loss_updates_nothing(self, corpus, monkeypatch):
        """The refused step leaves parameters, Adam's state, every gradient and the
        batch-norm running statistics as the last good step left them."""
        net = micro_net(3)
        adam = AdamState(learning_rate=1e-3)
        train(TrainConfig(steps=1, seed=3, **MICRO_TRAIN), corpus, net=net, adam=adam)
        assert adam.step_count == 1 and adam.m
        before = _optimizer_state(net.params, adam)
        running = {name: [(a, a.tobytes()) for a in (stats.mean, stats.std)]
                   for name, stats in net.buffers.items()}
        monkeypatch.setattr(training, "weighted_l1_loss",
                            lambda generated, targets: weighted_l1_loss(generated, targets)
                            * np.nan)
        with pytest.raises(TrainingError, match=r"non-finite loss nan at step 1 on batch \["):
            train(TrainConfig(steps=2, start_step=1, seed=3, **MICRO_TRAIN), corpus,
                  net=net, adam=adam)
        _assert_untouched(net.params, adam, before)
        for name, stats in net.buffers.items():
            for now, (then, raw) in zip((stats.mean, stats.std), running[name]):
                assert now is then and now.tobytes() == raw, name

    def test_mismatched_image_size_rejected_before_the_log_opens(self, corpus, tmp_path):
        net = micro_net(image_size=32)
        log = tmp_path / "mis.log"
        with pytest.raises(TrainingError, match="32px"):
            train(TrainConfig(steps=1), corpus, net=net, log_path=log)
        assert not log.exists()

    @pytest.mark.parametrize("change", [{"ref_count": 9}, {"n_t": 0}])
    def test_corpus_refusal_comes_before_the_log_opens(self, corpus, tmp_path, change):
        """A net's r beyond the 6 known ids, or an empty pool, leaves no empty log
        behind."""
        config = TrainConfig(steps=1, n_t=change.get("n_t", 20))
        log = tmp_path / "refused.log"
        with pytest.raises(CorpusError):
            train(config, corpus, micro_net(ref_count=change.get("ref_count", 2)), log_path=log)
        assert not log.exists()

    def test_split_run_with_an_evaluation_between_equals_one_run(self, corpus):
        """Eval-mode batch norm updates no running statistics, so evaluate() is invisible."""
        config = TrainConfig(steps=4, seed=5, **MICRO_TRAIN)
        whole_net, split_net, adam = micro_net(5), micro_net(5), AdamState()
        whole = train(config, corpus, net=whole_net)
        first = train(TrainConfig(steps=2, seed=5, **MICRO_TRAIN), corpus, net=split_net,
                      adam=adam)
        evaluate(split_net, build_eval_sets(corpus, r=2, seed=0, per_set=2))
        second = train(TrainConfig(steps=2, start_step=2, seed=5, **MICRO_TRAIN), corpus,
                       net=split_net, adam=adam)
        assert first.losses + second.losses == whole.losses
        split_state = split_net.state_arrays()
        whole_state = whole_net.state_arrays()
        assert split_state.keys() == whole_state.keys()
        for name, array in whole_state.items():
            assert np.array_equal(split_state[name], array), name
        assert adam.step_count == 4


class TestEvaluate:
    def test_returns_all_cells_with_finite_metrics(self, corpus):
        net = micro_net(0)
        suites = build_eval_sets(corpus, r=2, seed=1, per_set=2)
        results = evaluate(net, suites)
        assert sorted(results) == ["d1", "d2", "d3", "d4"]
        for metrics in results.values():
            assert isinstance(metrics, SuiteMetrics)
            assert np.isfinite([metrics.l1, metrics.rmse, metrics.pdar]).all()
            assert metrics.l1 >= 0 and metrics.rmse >= 0 and 0 <= metrics.pdar <= 1

    def test_deterministic(self, corpus):
        net = micro_net(1)
        suites = build_eval_sets(corpus, r=2, seed=2, per_set=2)
        assert evaluate(net, suites) == evaluate(net, suites)

    def test_rejects_empty_suite(self, corpus):
        net = micro_net(2)
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, {"d1": []})

    @pytest.mark.parametrize("per_set", [1, 2, 3, 4, 7])
    def test_equals_a_per_item_recomputation(self, corpus, per_set):
        """Chunks of EVAL_BATCH items, the last one short, give the per-item metrics."""
        net = micro_net(4)
        suites = build_eval_sets(corpus, r=2, seed=3, per_set=per_set)
        results = evaluate(net, suites)
        for cell, items in suites.items():
            rows = []
            for item in items:
                image = net.generate_from_refs(item.style_refs.images,
                                               item.content_refs.images)
                rows.append([l1_metric(image, item.target), rmse_metric(image, item.target),
                             pdar_metric(image, item.target)])
            got = results[cell]
            assert np.abs(np.array([got.l1, got.rmse, got.pdar])
                          - np.mean(rows, axis=0)).max() <= 1e-12

    def test_default_cell_memory_ceiling(self):
        """One 24-item cell of the default 64 px net, in float32: 5.9 MiB traced at
        3 items per forward; 4 items per forward (7.9 MiB) would pass 7 MiB."""
        corpus = Corpus(CorpusConfig())
        items = build_eval_sets(corpus, r=4, seed=1)["d1"]
        net = FontNet.initialize(FontNetConfig())
        tracemalloc.start()
        try:
            evaluate(net, {"d1": items})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(items) == 24
        assert peak <= 7 << 20


class TestTrainNstPair:
    def test_loss_decreases_and_is_deterministic(self):
        rng = np.random.default_rng(4)
        style = rng.uniform(size=(1, 3, 24, 24))
        content = rng.uniform(size=(1, 3, 24, 24))
        extractor = FeatureExtractor(seed=0)

        def run():
            net = NstNet.initialize(NstConfig(), seed=2)
            return train_nst_pair(net, extractor, style, content, steps=25)

        trace_a = run()
        trace_b = run()
        assert trace_a == trace_b
        assert min(trace_a) < trace_a[0]

    @staticmethod
    def _pair(seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(1, 3, 16, 16)), rng.uniform(size=(1, 3, 16, 16))

    def test_touches_no_flag_and_only_the_decoder_learns(self, monkeypatch):
        """No requires_grad flag changes, and only decoder.* parameters get a
        gradient or a new value."""
        style, content = self._pair(5)
        net = NstNet.initialize(NstConfig(), seed=0)
        before = {name: p.data.tobytes() for name, p in net.params.items()}
        flags = {name: p.requires_grad for name, p in net.params.items()}
        steps = []
        real_adam_step = training.adam_step

        def spy(params, state):
            steps.append(({name: p.requires_grad for name, p in net.params.items()},
                          {name for name, p in net.params.items() if p.grad is not None}))
            real_adam_step(params, state)

        monkeypatch.setattr(training, "adam_step", spy)
        train_nst_pair(net, FeatureExtractor(seed=0), style, content, steps=2)
        decoder = {name for name in net.params if name.startswith("decoder.")}
        assert len(steps) == 2
        for step_flags, with_grad in steps:
            assert step_flags == flags
            assert with_grad == decoder
        for name, p in net.params.items():
            assert (p.data.tobytes() != before[name]) == (name in decoder), name

    def test_leaves_the_extractor_without_gradients(self):
        """A frozen extractor is not taped: no step computes its kernel gradients."""
        style, content = self._pair(6)
        extractor = FeatureExtractor(seed=0)
        train_nst_pair(NstNet.initialize(NstConfig(), seed=0), extractor, style, content,
                       steps=2)
        assert all(p.grad is None for p in extractor.params.values())

    def test_flags_are_restored_when_the_run_aborts(self, monkeypatch):
        style, content = self._pair(6)
        net = NstNet.initialize(NstConfig(), seed=0)
        calls = []

        def nan_on_third_step(*args, **kwargs):
            calls.append(None)
            loss, parts = nst_objective(*args, **kwargs)
            return (loss * np.nan if len(calls) == 3 else loss), parts

        monkeypatch.setattr(training, "nst_objective", nan_on_third_step)
        with pytest.raises(TrainingError, match="step 2"):
            train_nst_pair(net, FeatureExtractor(seed=0), style, content, steps=5)
        assert all(p.requires_grad for p in net.params.values())

    def test_nonfinite_loss_updates_nothing(self, monkeypatch):
        """A step refused after two good ones leaves every parameter, the decoder's
        Adam state and every gradient as the second step left them."""
        style, content = self._pair(6)
        net = NstNet.initialize(NstConfig(), seed=0)
        seen = []

        def recording_adam_step(params, state):
            adam_step(params, state)
            seen.append((state, _optimizer_state(net.params, state)))

        def nan_on_third_step(*args, **kwargs):
            loss, parts = nst_objective(*args, **kwargs)
            return (loss * np.nan if len(seen) == 2 else loss), parts

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        monkeypatch.setattr(training, "nst_objective", nan_on_third_step)
        with pytest.raises(TrainingError, match="non-finite stylization loss nan at step 2"):
            train_nst_pair(net, FeatureExtractor(seed=0), style, content, steps=5)
        assert len(seen) == 2
        adam, before = seen[-1]
        assert adam.step_count == 2
        _assert_untouched(net.params, adam, before)

    @pytest.mark.parametrize("as_tensor", [
        lambda a: Tensor(a),
        lambda a: Tensor(a.astype(np.float32)),
    ], ids=["float64", "float32"])
    def test_tensor_images_train_like_arrays(self, as_tensor):
        """Tensor images give the array run's trace and parameters bit for bit: a
        float64 Tensor is cast to the net's float32 like a float64 array."""
        style, content = self._pair(13)
        extractor = FeatureExtractor(seed=0)
        arrays = NstNet.initialize(NstConfig(), seed=1)
        tensors = NstNet.initialize(NstConfig(), seed=1)
        want = train_nst_pair(arrays, extractor, style, content, steps=3)
        got = train_nst_pair(tensors, extractor, as_tensor(style), as_tensor(content), steps=3)
        assert got == want
        for (name, a), b in zip(arrays.params.items(), tensors.params.values()):
            assert b.data.dtype == np.float32, name
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_frozen_encoders_run_once_per_call(self, monkeypatch):
        style, content = self._pair(8)
        net = NstNet.initialize(NstConfig(), seed=0)
        counts = {"style_encode": 0, "content_encode": 0}

        def counting(method):
            real = getattr(NstNet, method)

            def counted(self, *args, **kwargs):
                counts[method] += 1
                return real(self, *args, **kwargs)

            return counted

        for method in counts:
            monkeypatch.setattr(NstNet, method, counting(method))
        train_nst_pair(net, FeatureExtractor(seed=0), style, content, steps=3)
        assert counts == {"style_encode": 1, "content_encode": 1}

    def test_trains_in_float32(self, monkeypatch):
        """Parameters, the gradients handed to Adam and Adam's moments stay float32."""
        style, content = self._pair(9)
        net = NstNet.initialize(NstConfig(), seed=0)
        grad_dtypes, states = set(), []

        def recording_adam_step(params, state):
            grad_dtypes.update(p.grad.dtype for p in params.values())
            states.append(state)
            adam_step(params, state)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        train_nst_pair(net, FeatureExtractor(seed=0), style, content, steps=2)
        assert len(states) == 2 and states[0] is states[1]
        assert grad_dtypes == {np.dtype(np.float32)}
        assert {t.data.dtype for t in net.params.values()} == {np.dtype(np.float32)}
        adam = states[0]
        assert set(adam.m) == set(adam.v) == {
            name for name in net.params if name.startswith("decoder.")}
        assert {a.dtype for a in [*adam.m.values(), *adam.v.values()]} == {
            np.dtype(np.float32)}

    @pytest.mark.parametrize("name, value", [
        ("steps", -3),
    ])
    def test_rejects_configs_that_learn_nothing(self, name, value):
        style, content = self._pair(10)
        net = NstNet.initialize(NstConfig(), seed=0)
        with pytest.raises(ValueError, match=name):
            train_nst_pair(net, FeatureExtractor(seed=0), style, content,
                           **{"steps": 3, name: value})

    def test_freezing_keeps_trace_and_updates_bit_identical(self):
        """Same trace and parameters as the loop that tapes every parameter.

        The reference loop feeds the images as float32 Tensors: a float64
        Tensor would promote the float32 net's forward to float64."""
        style, content = self._pair(7)
        extractor = FeatureExtractor(seed=0)
        frozen = NstNet.initialize(NstConfig(), seed=4)
        trace = train_nst_pair(frozen, extractor, style, content, steps=3)

        taped = NstNet.initialize(NstConfig(), seed=4)
        subset = {n: p for n, p in taped.params.items() if n.startswith("decoder.")}
        adam = AdamState(learning_rate=1e-3)
        style32, content32 = (Tensor(a.astype(np.float32)) for a in (style, content))
        want = []
        for _ in range(3):
            graph = Graph()
            with graph:
                loss, _ = nst_objective(extractor, taped.forward(style32, content32),
                                        content32, style32)
            graph.backward(loss)
            assert taped.params["style_enc.conv0.kernel"].grad is not None
            clip_gradients(subset, 10.0)
            adam_step(subset, adam)
            for p in taped.params.values():
                p.grad = None
            want.append(loss.item())
        assert trace == want
        for (name, a), b in zip(frozen.params.items(), taped.params.values()):
            assert np.array_equal(a.data, b.data), name


class TestStepHooks:
    """The names ``perfbench`` swaps in ``training``'s globals: ``Graph`` (the
    ``nst_train`` workload stamps each step's start by subclassing it) and the
    loss, clip and Adam functions its tracer wraps. Each step must create one
    graph before its forward, then call the loss, the clip and Adam once."""

    @staticmethod
    def _record(monkeypatch, loss_name, forward):
        events = []

        class CountingGraph(Graph):
            def __init__(self):
                events.append("graph")
                super().__init__()

        def recording(event, real):
            def wrapped(*args, **kwargs):
                events.append(event)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(training, "Graph", CountingGraph)
        for event, name in (("loss", loss_name), ("clip", "clip_gradients"),
                            ("adam", "adam_step")):
            monkeypatch.setattr(training, name, recording(event, getattr(training, name)))
        owner, method = forward
        monkeypatch.setattr(owner, method, recording("forward", getattr(owner, method)))
        return events

    def test_train_steps_through_the_hooks(self, corpus, monkeypatch):
        events = self._record(monkeypatch, "weighted_l1_loss",
                              (FontNet, "forward_generate"))
        train(TrainConfig(steps=2, seed=1, **MICRO_TRAIN), corpus, net=micro_net(1))
        assert events == ["graph", "forward", "loss", "clip", "adam"] * 2

    def test_train_nst_pair_steps_through_the_hooks(self, monkeypatch):
        events = self._record(monkeypatch, "nst_objective", (NstNet, "decode"))
        rng = np.random.default_rng(14)
        style, content = rng.uniform(size=(2, 1, 3, 16, 16))
        train_nst_pair(NstNet.initialize(NstConfig(), seed=0), FeatureExtractor(seed=0),
                       style, content, steps=3)
        assert events == ["graph", "forward", "loss", "clip", "adam"] * 3
