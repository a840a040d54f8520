"""Hand values, analytic identities, and FD gradient checks per loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrank import autodiff as ad
from diffrank import metrics as mt
from diffrank.autodiff import Tensor
from diffrank.errors import ConfigError
from diffrank.gradcheck import loss_gradient_check
from diffrank.losses import LOSS_NAMES, LossSpec, ranking_loss


def _loss(name, scores, labels, **kw):
    spec = LossSpec(name=name, **kw)
    return ranking_loss(spec, Tensor(np.asarray(scores, dtype=np.float64)), labels)


class TestMse:
    def test_zero_at_perfect_fit(self):
        assert _loss("mse", [1.0, 3.0], [1, 3]).item() == 0.0

    def test_hand_value(self):
        # ((2-1)^2 + (0-2)^2) / 2
        assert _loss("mse", [2.0, 0.0], [1, 2]).item() == pytest.approx(2.5)

    def test_gradient_formula(self):
        y_hat = Tensor(np.array([2.0, 0.0, 1.0]), requires_grad=True)
        ad.backward(ranking_loss(LossSpec("mse"), y_hat, [1, 2, 1]))
        np.testing.assert_allclose(
            y_hat.grad, 2.0 * (np.array([2.0, 0.0, 1.0]) - [1, 2, 1]) / 3.0, atol=1e-12
        )


class TestRmse:
    def test_square_root_of_mse(self):
        mse = _loss("mse", [2.0, 0.0], [1, 2]).item()
        assert _loss("rmse", [2.0, 0.0], [1, 2]).item() == pytest.approx(
            math.sqrt(mse + 1e-12)
        )

    def test_gradient_finite_at_perfect_fit(self):
        y_hat = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        ad.backward(ranking_loss(LossSpec("rmse"), y_hat, [1, 3]))
        assert np.all(np.isfinite(y_hat.grad))
        np.testing.assert_allclose(y_hat.grad, 0.0, atol=1e-6)


class TestRankNet:
    def test_tied_scores_single_pair_is_ln2(self):
        assert _loss("ranknet", [0.7, 0.7], [1, 0]).item() == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_decreases_as_margin_grows(self):
        vals = [_loss("ranknet", [m, 0.0], [1, 0]).item() for m in (0.0, 0.5, 2.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_no_pairs_gives_zero(self):
        assert _loss("ranknet", [1.0, 2.0], [2, 2]).item() == 0.0

    def test_translation_invariant(self, rng):
        s = rng.standard_normal(5)
        y = [0, 3, 1, 2, 4]
        a = _loss("ranknet", s, y).item()
        b = _loss("ranknet", s + 11.7, y).item()
        assert a == pytest.approx(b, abs=1e-9)


class TestListNet:
    def test_shifted_scores_hit_label_entropy(self, rng):
        y = np.array([0, 2, 4, 1], dtype=float)
        p = np.exp(y - y.max()) / np.exp(y - y.max()).sum()
        entropy = -(p * np.log(p)).sum()
        val = _loss("listnet", y + 3.25, y.astype(int)).item()
        assert val == pytest.approx(entropy, abs=1e-9)

    def test_never_below_entropy(self, rng):
        y = np.array([0, 1, 3], dtype=float)
        p = np.exp(y) / np.exp(y).sum()
        entropy = -(p * np.log(p)).sum()
        for _ in range(20):
            val = _loss("listnet", rng.standard_normal(3) * 3, y.astype(int)).item()
            assert val >= entropy - 1e-12


class TestApproxNdcg:
    def test_range(self, rng):
        for _ in range(20):
            y = rng.integers(0, 5, size=6)
            if y.max() == 0:
                y[0] = 1
            val = _loss("approxndcg", rng.standard_normal(6), y).item()
            assert -1.0 - 1e-9 <= val <= 0.0

    def test_sharp_temperature_recovers_hard_ndcg(self, rng):
        y = np.array([3, 0, 2, 1, 4])
        s = np.array([0.5, -1.0, 0.1, 2.0, 1.0])
        hard = mt.ndcg_at_k(y.astype(float), mt.ranking_order(s), "ALL")
        val = _loss("approxndcg", s, y, t_smooth=1e-4).item()
        assert val == pytest.approx(-hard, abs=1e-6)

    def test_all_zero_labels_contribute_zero(self, rng):
        assert _loss("approxndcg", rng.standard_normal(4), [0, 0, 0, 0]).item() == 0.0

    def test_better_ordering_gives_lower_loss(self):
        y = [0, 1, 2, 3]
        good = _loss("approxndcg", [0.0, 1.0, 2.0, 3.0], y).item()
        bad = _loss("approxndcg", [3.0, 2.0, 1.0, 0.0], y).item()
        assert good < bad


class TestNdcgLoss2pp:
    def test_perfect_order_below_reversed(self):
        y = [0, 1, 2, 3]
        good = _loss("ndcgloss2pp", [0.0, 1.0, 2.0, 3.0], y).item()
        bad = _loss("ndcgloss2pp", [3.0, 2.0, 1.0, 0.0], y).item()
        assert good < bad

    def test_mu_zero_matches_position_only_reference(self, rng):
        """Independent reimplementation with the gap term removed."""
        y = np.array([2, 0, 3, 1, 4], dtype=float)
        s = rng.standard_normal(5)
        got = _loss("ndcgloss2pp", s, y.astype(int), mu=0.0, sigma=1.0).item()

        order = np.lexsort((np.arange(5), -s))
        ranks = np.empty(5)
        ranks[order] = np.arange(1, 6)
        inv_d = 1.0 / np.log2(1.0 + ranks)
        max_dcg = ((2.0 ** np.sort(y)[::-1] - 1) / np.log2(2 + np.arange(5))).sum()
        g = (2.0**y - 1) / max_dcg
        expect = 0.0
        for i in range(5):
            for j in range(5):
                if y[i] > y[j]:
                    w = abs(inv_d[i] - inv_d[j]) * abs(g[i] - g[j])
                    expect += -w * math.log2(1 / (1 + math.exp(-(s[i] - s[j]))))
        assert got == pytest.approx(expect, abs=1e-9)

    def test_translation_invariant(self, rng):
        s = rng.standard_normal(6)
        y = [0, 1, 4, 2, 0, 3]
        a = _loss("ndcgloss2pp", s, y).item()
        b = _loss("ndcgloss2pp", s - 4.2, y).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_no_pairs_gives_zero(self):
        assert _loss("ndcgloss2pp", [0.3, 0.1], [1, 1]).item() == 0.0


class TestCommon:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            LossSpec(name="hinge")

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            LossSpec(name="approxndcg", t_smooth=0.0)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_nonnegative_except_approxndcg(self, name, rng):
        for _ in range(10):
            y = rng.integers(0, 5, size=5)
            val = _loss(name, rng.standard_normal(5), y).item()
            if name == "approxndcg":
                assert val <= 0.0
            else:
                assert val >= 0.0

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_gradients_match_finite_differences(self, name):
        worst = loss_gradient_check(LossSpec(name=name))
        assert worst < 1e-4


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    name=st.sampled_from(LOSS_NAMES),
)
@settings(max_examples=30)
def test_joint_permutation_invariance(seed, name):
    rng = np.random.default_rng(seed)
    n = 5
    y = rng.integers(0, 5, size=n)
    s = rng.permutation(n).astype(float) * 0.37  # distinct scores
    perm = rng.permutation(n)
    a = _loss(name, s, y).item()
    b = _loss(name, s[perm], y[perm]).item()
    assert a == pytest.approx(b, abs=1e-9)
