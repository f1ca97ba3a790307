"""Objective weights, the weighted L1 loss, and the three evaluation metrics."""

import warnings

import numpy as np
import pytest

from gradcheck import check_gradients

from stylemix.autodiff import ShapeError, Tensor
from stylemix.losses import (
    DegenerateTargetWarning,
    binarize,
    darkness_weight,
    l1_metric,
    pdar_metric,
    rmse_metric,
    size_thickness_weight,
    weighted_l1_loss,
)


class TestBinarize:
    def test_all_zero_is_all_black(self):
        assert binarize(np.zeros((3, 3))).all()

    def test_exact_half_is_white(self):
        mask = binarize(np.array([[0.5, 0.4999999]]))
        assert mask.tolist() == [[False, True]]

    @pytest.mark.parametrize("seed", range(10))
    def test_count_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.uniform(0.0, 1.0, size=(9, 11))
        count = int(binarize(image).sum())
        oracle = sum(1 for v in image.ravel() if v < 0.5)
        assert count == oracle

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binarize(np.array([[1.5]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binarize(np.array([[-0.1]]))


class TestSizeThicknessWeight:
    def test_four_black_pixels(self):
        assert size_thickness_weight(np.zeros((2, 2))) == 0.25

    def test_blank_target_falls_back_with_warning(self):
        with pytest.warns(DegenerateTargetWarning):
            weight = size_thickness_weight(np.ones((4, 8)))
        assert weight == 1.0 / 32

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_counting_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        image = (rng.uniform(size=(6, 6)) > 0.4).astype(float)  # 0 or 1 values
        if not (image < 0.5).any():
            image[0, 0] = 0.0
        count = sum(1 for v in image.ravel() if v < 0.5)
        assert size_thickness_weight(image) == 1.0 / count


class TestDarknessWeight:
    def test_singleton_batch(self):
        assert darkness_weight([np.zeros((2, 2))]).tolist() == [1.0]

    def test_equal_means_split_evenly(self):
        image = np.full((3, 3), 0.2)
        weights = darkness_weight([image, image.copy()])
        assert np.allclose(weights, [0.5, 0.5])

    def test_hand_softmax_case(self):
        weights = darkness_weight([np.array([[0.2]]), np.array([[0.4]])])
        want = np.exp([0.2, 0.4]) / np.exp([0.2, 0.4]).sum()
        assert np.allclose(weights, want, atol=1e-12)
        assert np.allclose(weights, [0.4502, 0.5498], atol=1e-4)

    def test_blank_image_counts_as_mean_zero(self):
        weights = darkness_weight([np.ones((2, 2)), np.zeros((2, 2))])
        want = np.exp([0.0, 0.0]) / 2.0
        assert np.allclose(weights, want)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="empty"):
            darkness_weight([])

    @pytest.mark.parametrize("seed", range(10))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(200 + seed)
        batch = [rng.uniform(size=(5, 5)) for _ in range(int(rng.integers(1, 7)))]
        assert abs(darkness_weight(batch).sum() - 1.0) <= 1e-12


class TestWeightedL1Loss:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(size=(2, 1, 4, 4))
        loss = weighted_l1_loss(Tensor(target.copy()), target)
        assert loss.item() == 0.0

    def test_single_black_pixel_hand_case(self):
        loss = weighted_l1_loss(Tensor(np.full((1, 1, 1, 1), 0.3)),
                                np.zeros((1, 1, 1, 1)))
        assert np.isclose(loss.item(), 0.3)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0])
    def test_linear_in_error_scale(self, alpha):
        rng = np.random.default_rng(1)
        target = rng.uniform(0.0, 0.4, size=(3, 1, 5, 5))
        delta = rng.uniform(0.0, 0.2, size=target.shape)
        base = weighted_l1_loss(Tensor(target + delta), target).item()
        scaled = weighted_l1_loss(Tensor(target + alpha * delta), target).item()
        assert np.isclose(scaled, alpha * base, rtol=1e-12)

    def test_positive_when_different(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            target = rng.uniform(size=(2, 1, 3, 3))
            other = target.copy()
            other[0, 0, 0, 0] += 0.01
            assert weighted_l1_loss(Tensor(other), target).item() > 0.0

    def test_two_target_hand_case_with_a_blank_target(self):
        """The loss is sum_b W_st * W_d * |g - t|_1. Target 0 has two black pixels
        (W_st 1/2, black mean 0.3); the blank target 1 falls back to W_st 1/4 and a
        black mean of 0, and warns once."""
        targets = np.array([[[[0.2, 1.0], [0.4, 1.0]]], [[[1.0, 1.0], [1.0, 1.0]]]])
        generated = np.array([[[[0.5, 0.9], [0.4, 1.0]]], [[[0.5, 1.0], [1.0, 1.0]]]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss = weighted_l1_loss(Tensor(generated), targets).item()
        assert [w.category for w in caught] == [DegenerateTargetWarning]
        darkness = np.exp([0.3, 0.0]) / np.exp([0.3, 0.0]).sum()
        want = 0.5 * darkness[0] * (0.3 + 0.1) + 0.25 * darkness[1] * 0.5
        assert np.isclose(loss, want, rtol=1e-12, atol=0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_l1_loss(Tensor(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 3, 3)))

    def test_rejects_a_rank_0_pair(self):
        with pytest.raises(ShapeError, match="batches"):
            weighted_l1_loss(Tensor(np.array(0.5)), np.array(0.2))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        target = rng.uniform(size=(2, 1, 4, 4))
        data = rng.uniform(size=(2, 1, 4, 4))
        # keep every pixel away from the |.| kink
        near = np.abs(data - target) < 1e-3
        data[near] = np.clip(target[near] + 0.1, 0.0, 1.0)
        generated = Tensor(data, requires_grad=True)

        def make_loss():
            return weighted_l1_loss(generated, target)

        check_gradients(make_loss, [generated], tol=1e-4)


def brute_force_l1(a, b):
    total = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        total += abs(x - y)
    return total / a.size


def brute_force_rmse(a, b):
    total = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        total += (x - y) ** 2
    return (total / a.size) ** 0.5


def brute_force_pdar(a, b):
    count = 0
    for x, y in zip(a.ravel(), b.ravel()):
        count += (x < 0.5) != (y < 0.5)
    return count / a.size


class TestMetrics:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(3)
        image = rng.uniform(size=(5, 5))
        assert l1_metric(image, image) == 0.0
        assert rmse_metric(image, image) == 0.0
        assert pdar_metric(image, image) == 0.0

    def test_hand_case(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.2, 0.4]])
        assert np.isclose(l1_metric(a, b), 0.3)
        assert np.isclose(rmse_metric(a, b), np.sqrt(0.1))

    def test_pdar_hand_cases(self):
        quarter = pdar_metric(np.array([[0.0, 1.0], [1.0, 1.0]]),
                              np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert quarter == 0.25
        ones = pdar_metric(np.zeros((3, 3)), np.ones((3, 3)))
        assert ones == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(400 + seed)
        a = rng.uniform(size=(6, 7))
        b = rng.uniform(size=(6, 7))
        for metric in (l1_metric, rmse_metric, pdar_metric):
            assert metric(a, b) >= 0.0
            assert metric(a, b) == metric(b, a)
        assert 0.0 <= pdar_metric(a, b) <= 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_match_brute_force_oracles(self, seed):
        rng = np.random.default_rng(500 + seed)
        a = rng.uniform(size=(8, 9))
        b = rng.uniform(size=(8, 9))
        assert abs(l1_metric(a, b) - brute_force_l1(a, b)) <= 1e-12
        assert abs(rmse_metric(a, b) - brute_force_rmse(a, b)) <= 1e-12
        assert abs(pdar_metric(a, b) - brute_force_pdar(a, b)) <= 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            l1_metric(np.zeros((2, 2)), np.zeros((3, 3)))
