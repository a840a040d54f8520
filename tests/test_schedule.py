"""Schedule construction, invariants, and the Gaussian process algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrank import schedule as sc
from diffrank.errors import ConfigError


def _table(kind, T):
    return sc.build_schedule(sc.ScheduleSpec(kind=kind, timesteps=T))


class TestConstruction:
    def test_linear_endpoints_at_default_size(self):
        t = _table("linear", 1000)
        assert t.beta_at(1) == pytest.approx(1e-4, abs=1e-12)
        assert t.beta_at(1000) == pytest.approx(0.02, abs=1e-12)

    def test_cosine_matches_closed_form_pointwise(self):
        t = _table("cosine", 1000)
        s = 0.008

        def f(step):
            return math.cos(((step / 1000 + s) / (1 + s)) * math.pi / 2) ** 2

        for step in (1, 500, 1000):
            assert t.alpha_bar_at(step) == pytest.approx(f(step) / f(0), abs=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            sc.ScheduleSpec(kind="quadratic", timesteps=100)

    def test_timestep_bounds_rejected(self):
        with pytest.raises(ConfigError):
            sc.ScheduleSpec(kind="linear", timesteps=0)
        with pytest.raises(ConfigError):
            sc.ScheduleSpec(kind="linear", timesteps=10001)

    def test_tables_are_immutable(self):
        t = _table("linear", 100)
        with pytest.raises(ValueError):
            t.beta[0] = 0.5

    def test_beta_tilde_hand_formula_at_t2(self):
        # the identities that define the stored quantities hold exactly,
        # from the first reverse step t = 2 up to t = T
        for kind in sc.SCHEDULE_KINDS:
            for T in (2, 200, 1000):
                t = _table(kind, T)
                for step in range(2, T + 1):
                    expect = (
                        (1 - t.alpha_bar_at(step - 1))
                        / (1 - t.alpha_bar_at(step))
                        * t.beta_at(step)
                    )
                    assert t.beta_tilde_at(step) == expect, (kind, T, step)
                for step in range(1, T + 1):
                    assert t.alpha_at(step) == 1.0 - t.beta_at(step), (kind, T, step)
                assert np.array_equal(t.alpha_bar, np.cumprod(1.0 - t.beta)), (kind, T)


@pytest.mark.parametrize("kind", sc.SCHEDULE_KINDS)
@pytest.mark.parametrize("T", [200, 600, 1000])
class TestInvariants:
    def test_beta_in_open_unit_interval(self, kind, T):
        t = _table(kind, T)
        assert np.all(t.beta > 0) and np.all(t.beta < 1)

    def test_alpha_bar_strictly_decreasing(self, kind, T):
        t = _table(kind, T)
        assert np.all(np.diff(t.alpha_bar) < 0) and t.alpha_bar[0] < 1

    def test_terminal_alpha_bar_small(self, kind, T):
        t = _table(kind, T)
        assert t.alpha_bar_at(T) < 0.01

    def test_posterior_variance_below_beta(self, kind, T):
        t = _table(kind, T)
        assert np.all(t.beta_tilde[1:] < t.beta[1:])


@pytest.mark.parametrize("T", [200, 600, 1000])
def test_trunclinear_fast_then_slow(T):
    t = _table("trunclinear", T)
    half = T // 2
    first_drop = t.alpha_bar_at(1) - t.alpha_bar_at(half)
    second_drop = t.alpha_bar_at(half) - t.alpha_bar_at(T)
    assert second_drop < first_drop


@given(
    kind=st.sampled_from(sc.SCHEDULE_KINDS),
    T=st.integers(min_value=4, max_value=1500),
)
@settings(max_examples=60)
def test_invariants_hold_across_sizes(kind, T):
    t = _table(kind, T)
    assert np.all(t.beta > 0) and np.all(t.beta < 1)
    assert np.all(np.diff(t.alpha_bar) < 0)
    assert np.all(t.alpha_bar > 0) and t.alpha_bar[0] < 1
    assert np.all(t.beta_tilde[1:] < t.beta[1:])


class TestQSample:
    def test_zero_noise_scales_by_sqrt_alpha_bar(self):
        t = _table("linear", 500)
        y0 = np.array([0.0, 1.0, 4.0])
        for step in (1, 250, 500):
            out = sc.q_sample(y0, step, np.zeros(3), t)
            np.testing.assert_allclose(
                out, math.sqrt(t.alpha_bar_at(step)) * y0, atol=1e-15
            )

    def test_t_out_of_range_raises_index_error(self):
        t = _table("linear", 100)
        with pytest.raises(IndexError):
            sc.q_sample(np.zeros(2), 0, np.zeros(2), t)
        with pytest.raises(IndexError):
            sc.q_sample(np.zeros(2), 101, np.zeros(2), t)

    def test_shape_mismatch_rejected(self):
        t = _table("linear", 100)
        with pytest.raises(ValueError):
            sc.q_sample(np.zeros(2), 5, np.zeros(3), t)


class TestPosterior:
    def test_noise_free_consistency(self):
        # feeding y_t = sqrt(abar_t) * y0 must return sqrt(abar_{t-1}) * y0
        y0 = np.array([0.0, 2.0, 4.0, 1.0])
        for kind in sc.SCHEDULE_KINDS:
            t = _table(kind, 300)
            for step in (2, 150, 300):
                y_t = math.sqrt(t.alpha_bar_at(step)) * y0
                mean, var = sc.posterior(y_t, y0, step, t)
                np.testing.assert_allclose(
                    mean, math.sqrt(t.alpha_bar_at(step - 1)) * y0, atol=1e-12
                )
                assert var == pytest.approx(t.beta_tilde_at(step), abs=0)

    def test_t_below_two_rejected(self):
        t = _table("linear", 100)
        with pytest.raises(ValueError):
            sc.posterior(np.zeros(2), np.zeros(2), 1, t)


class TestReconstruct:
    @pytest.mark.parametrize("kind", sc.SCHEDULE_KINDS)
    def test_round_trip_recovers_y0(self, kind, rng):
        t = _table(kind, 600)
        y0 = rng.integers(0, 5, size=12).astype(np.float64)
        for step in (1, 300, 600):
            eps = rng.standard_normal(12)
            y_t = sc.q_sample(y0, step, eps, t)
            np.testing.assert_allclose(
                sc.reconstruct_y0(y_t, eps, step, t), y0, atol=1e-10
            )


class TestStridedTable:
    def test_marginals_preserved_exactly(self):
        base = _table("trunclinear", 1000)
        visited = [1, 334, 667, 1000]
        eff = sc.strided_table(base, visited)
        for j, t in enumerate(visited, start=1):
            assert eff.alpha_bar_at(j) == pytest.approx(
                base.alpha_bar_at(t), rel=1e-12
            )

    def test_effective_table_passes_validation(self):
        base = _table("cosine", 600)
        eff = sc.strided_table(base, [1, 200, 400, 600])
        eff.validate()
        assert eff.alpha_bar[-1] < sc.TERMINAL_ALPHA_BAR

    def test_terminal_rule_binds_build_schedule_not_strided_tables(self, monkeypatch):
        # a structurally valid table that keeps most of its signal at t = T
        monkeypatch.setitem(sc._BUILDERS, "linear", lambda T: np.full(T, 1e-5))
        with pytest.raises(ConfigError, match="terminal alpha_bar"):
            sc.build_schedule(sc.ScheduleSpec("linear", 200))
        assert sc.build_schedule(sc.ScheduleSpec("linear", 199)).alpha_bar[-1] > 0.99
        # a strided table may stop short of T, far from fully noised
        base = _table("cosine", 600)
        eff = sc.strided_table(base, [1, 100, 200])
        assert eff.alpha_bar[-1] == pytest.approx(base.alpha_bar_at(200), rel=1e-12)
        assert eff.alpha_bar[-1] >= sc.TERMINAL_ALPHA_BAR

    def test_rejects_unsorted_input(self):
        base = _table("linear", 100)
        with pytest.raises(ConfigError):
            sc.strided_table(base, [100, 1])
