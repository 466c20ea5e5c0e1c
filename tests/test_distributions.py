"""Probability machinery checked against Monte-Carlo and naive oracles."""

import numpy as np
import pytest

from kpp import autodiff as ad
from kpp.distributions import (
    DiagGaussian,
    bernoulli_log_prob,
    gaussian_log_prob,
    kl_diag_gaussians,
    kl_to_standard_normal,
    reparam_sample,
    standard_normal_like,
)

from conftest import rel_err


def gauss(mean, log_std):
    return DiagGaussian(mean=ad.constant(np.asarray(mean, dtype=np.float64)),
                        log_std=ad.constant(np.asarray(log_std, dtype=np.float64)))


class TestReparamSample:
    def test_standard_passthrough(self):
        d = gauss([[0.0]], [[0.0]])
        out = reparam_sample(d, ad.constant([[1.5]]))
        assert out.data[0, 0] == 1.5

    def test_zero_noise_returns_mean(self):
        d = gauss([[2.0]], [[np.log(0.5)]])
        out = reparam_sample(d, ad.constant([[0.0]]))
        assert out.data[0, 0] == 2.0

    def test_monte_carlo_variance(self, rng):
        d = gauss(np.zeros((1, 1)), np.zeros((1, 1)))
        draws = np.array([
            reparam_sample(d, ad.constant(rng.normal(size=(1, 1)))).data[0, 0]
            for _ in range(10_000)
        ])
        # chunked draws to keep runtime sane while matching a 1e5-scale oracle
        more = rng.normal(size=90_000)
        var = np.concatenate([draws, more]).var()
        assert abs(var - 1.0) <= 0.02

    def test_gradient_wrt_mean_is_one(self, rng):
        mean = ad.parameter(rng.normal(size=(2, 3)))
        log_std = ad.parameter(rng.normal(size=(2, 3)) * 0.1)
        noise = rng.normal(size=(2, 3))
        out = reparam_sample(DiagGaussian(mean=mean, log_std=log_std),
                             ad.constant(noise))
        ad.backward(ad.sum_(out))
        assert np.array_equal(mean.grad, np.ones((2, 3)))
        # d/dls (mean + e^ls * eps) = e^ls * eps exactly
        assert np.max(np.abs(log_std.grad - noise * np.exp(log_std.data))) <= 1e-15

    def test_gradient_wrt_log_std_fd(self, rng):
        ls = rng.normal(size=(2, 2)) * 0.3
        noise = rng.normal(size=(2, 2))
        t = ad.parameter(ls.copy())
        out = reparam_sample(DiagGaussian(mean=ad.constant(np.zeros((2, 2))), log_std=t),
                             ad.constant(noise))
        ad.backward(ad.sum_(out))
        h = 1e-6
        for idx in np.ndindex(2, 2):
            lp, lm = ls.copy(), ls.copy()
            lp[idx] += h
            lm[idx] -= h
            fd = ((np.exp(lp) * noise).sum() - (np.exp(lm) * noise).sum()) / (2 * h)
            assert rel_err(t.grad[idx], fd) <= 1e-5

    def test_shape_mismatch_rejected(self):
        d = gauss(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            reparam_sample(d, ad.constant(np.zeros((3, 2))))


class TestKL:
    def test_identical_distributions_zero(self, rng):
        m = rng.normal(size=(4, 5))
        ls = rng.normal(size=(4, 5)) * 0.3
        kl = kl_diag_gaussians(gauss(m, ls), gauss(m.copy(), ls.copy()))
        assert np.max(np.abs(kl.data)) <= 1e-12

    def test_unit_mean_shift_half_nat(self):
        kl = kl_diag_gaussians(gauss([[1.0]], [[0.0]]), gauss([[0.0]], [[0.0]]))
        assert abs(kl.data[0] - 0.5) <= 1e-12

    def test_monte_carlo_oracle(self, rng):
        m_q, ls_q = rng.normal(size=(1, 3)), rng.normal(size=(1, 3)) * 0.3
        m_p, ls_p = rng.normal(size=(1, 3)), rng.normal(size=(1, 3)) * 0.3
        kl = float(kl_diag_gaussians(gauss(m_q, ls_q), gauss(m_p, ls_p)).data[0])
        n = 1_000_000
        z = m_q + np.exp(ls_q) * rng.normal(size=(n, 3))

        def logpdf(x, m, ls):
            return (-0.5 * np.log(2 * np.pi) - ls
                    - 0.5 * (x - m) ** 2 * np.exp(-2 * ls)).sum(axis=1)

        diff = logpdf(z, m_q, ls_q) - logpdf(z, m_p, ls_p)
        se = diff.std(ddof=1) / np.sqrt(n)
        assert abs(diff.mean() - kl) <= 3 * se

    def test_standard_alias_is_exact(self, rng):
        q = gauss(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)) * 0.5)
        a = kl_to_standard_normal(q).data
        b = kl_diag_gaussians(q, standard_normal_like(q)).data
        assert np.array_equal(a, b)

    def test_standard_self_kl_zero(self):
        q = gauss(np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.max(np.abs(kl_to_standard_normal(q).data)) == 0.0

    def test_nonnegative_and_strictly_positive_when_perturbed(self, rng):
        for _ in range(20):
            m = rng.normal(size=(2, 6))
            ls = rng.normal(size=(2, 6)) * 0.4
            kl = kl_diag_gaussians(gauss(m, ls),
                                   gauss(rng.normal(size=(2, 6)),
                                         rng.normal(size=(2, 6)) * 0.4))
            assert np.min(kl.data) >= 0.0
            bumped = kl_diag_gaussians(gauss(m + 1e-3, ls), gauss(m, ls))
            assert np.min(bumped.data) >= 1e-9

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            kl_diag_gaussians(gauss(np.zeros((2, 3)), np.zeros((2, 3))),
                              gauss(np.zeros((2, 4)), np.zeros((2, 4))))

    def test_gradients_flow_to_both_arguments(self, rng):
        mq = ad.parameter(rng.normal(size=(1, 3)))
        lq = ad.parameter(rng.normal(size=(1, 3)) * 0.2)
        mp = ad.parameter(rng.normal(size=(1, 3)))
        lp = ad.parameter(rng.normal(size=(1, 3)) * 0.2)
        kl = kl_diag_gaussians(DiagGaussian(mean=mq, log_std=lq),
                               DiagGaussian(mean=mp, log_std=lp))
        ad.backward(ad.sum_(kl))
        for p in (mq, lq, mp, lp):
            assert p.grad is not None and np.all(np.isfinite(p.grad))


class TestBernoulli:
    def test_logit_zero(self):
        lp = bernoulli_log_prob(ad.constant([[0.0]]), ad.constant([[1.0]]))
        assert abs(lp.data[0] - np.log(0.5)) <= 1e-12

    def test_saturated_logit_no_overflow(self):
        lp = bernoulli_log_prob(ad.constant([[20.0]]), ad.constant([[1.0]]))
        assert abs(lp.data[0]) <= 1e-8
        lp = bernoulli_log_prob(ad.constant([[-200.0]]), ad.constant([[0.0]]))
        assert abs(lp.data[0]) <= 1e-8

    def test_matches_naive_formula(self, rng):
        logits = rng.normal(size=(4, 10)) * 2
        target = (rng.random((4, 10)) < 0.5).astype(np.float64)
        lp = bernoulli_log_prob(ad.constant(logits), ad.constant(target)).data
        p = 1 / (1 + np.exp(-logits))
        naive = (target * np.log(p) + (1 - target) * np.log(1 - p)).sum(axis=1)
        assert np.max(np.abs(lp - naive)) <= 1e-10

    def test_always_nonpositive(self, rng):
        logits = rng.normal(size=(8, 20)) * 5
        target = (rng.random((8, 20)) < 0.5).astype(np.float64)
        lp = bernoulli_log_prob(ad.constant(logits), ad.constant(target)).data
        assert np.max(lp) <= 0.0

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_log_prob(ad.constant([[0.0]]), ad.constant([[0.5]]))


class TestGaussianLogProb:
    def test_at_mean_unit_sigma(self):
        lp = gaussian_log_prob(ad.constant([[0.7]]), ad.constant([[0.7]]), 1.0)
        assert abs(lp.data[0] + 0.5 * np.log(2 * np.pi)) <= 1e-12

    def test_one_sigma_away(self):
        lp = gaussian_log_prob(ad.constant([[0.0]]), ad.constant([[2.0]]), 2.0)
        assert abs(lp.data[0] + 0.5 * np.log(2 * np.pi) + np.log(2.0) + 0.5) <= 1e-12

    def test_matches_direct_formula(self, rng):
        m = rng.normal(size=(3, 6))
        x = rng.normal(size=(3, 6))
        for std in (0.3, 1.0, 2.5):
            lp = gaussian_log_prob(ad.constant(m), ad.constant(x), std).data
            direct = (-0.5 * np.log(2 * np.pi) - np.log(std)
                      - 0.5 * (x - m) ** 2 / std ** 2).sum(axis=1)
            assert np.max(np.abs(lp - direct)) <= 1e-10

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ValueError):
            gaussian_log_prob(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 4))), 1.0)

    @pytest.mark.parametrize("std", [0.0, -1.0, float("nan")])
    def test_nonpositive_std_rejected(self, std):
        with pytest.raises(ValueError, match="std must be > 0"):
            gaussian_log_prob(ad.constant(np.zeros((1, 2))), ad.constant(np.zeros((1, 2))), std)


def test_diag_gaussian_shape_invariant():
    with pytest.raises(ValueError):
        DiagGaussian(mean=ad.constant(np.zeros((2, 3))),
                     log_std=ad.constant(np.zeros((3, 2))))
