from fractions import Fraction

import numpy as np
import pytest

from fedsim.compensated import BLOCK, combine_updates, two_diff, two_prod, two_sum
from helpers import combine_updates_unblocked


def exact(x):
    return Fraction(float(x))


class TestErrorFreeTransforms:
    def test_two_sum_exact_over_random_pairs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200)
        b = rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200)
        s, e = two_sum(a, b)
        for ai, bi, si, ei in zip(a, b, s, e):
            assert exact(si) + exact(ei) == exact(ai) + exact(bi)

    def test_two_diff_exact_over_random_pairs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=200)
        b = rng.normal(size=200) * 1e-12
        d, e = two_diff(a, b)
        for ai, bi, di, ei in zip(a, b, d, e):
            assert exact(di) + exact(ei) == exact(ai) - exact(bi)

    def test_two_prod_exact_over_random_pairs(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        p, e = two_prod(a, b)
        for ai, bi, pi, ei in zip(a, b, p, e):
            assert exact(pi) + exact(ei) == exact(ai) * exact(bi)

    def test_catastrophic_cancellation_is_captured(self):
        d, e = two_diff(np.array([1.0]), np.array([1.0 - 1e-17]))
        assert exact(d[0]) + exact(e[0]) == exact(1.0) - exact(1.0 - 1e-17)


class TestCombineUpdates:
    def test_zero_residuals_return_base_exactly(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=50)
        out = combine_updates(base, [1 / 3, 2 / 3], [base, base], 1.0)
        assert np.array_equal(out, base)

    def test_single_unit_weight_returns_target_exactly(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=100)
        # Include coordinates whose difference is catastrophically inexact.
        target = base.copy()
        target[:30] = rng.normal(size=30) * 1e-18
        target[30:35] = 0.0
        target[35:] = -base[35:] * rng.uniform(0.5, 3.0, size=65)
        out = combine_updates(base, [1.0], [target], 1.0)
        assert out.tobytes() == target.tobytes()

    def test_matches_high_precision_reference(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=40)
        coeffs = [0.3, 0.45, 0.25]
        targets = [rng.normal(size=40) for _ in coeffs]
        scale = 0.7
        out = combine_updates(base, coeffs, targets, scale)
        for j in range(40):
            reference = exact(base[j]) - exact(scale) * sum(
                exact(c) * (exact(base[j]) - exact(t[j])) for c, t in zip(coeffs, targets)
            )
            assert abs(exact(out[j]) - reference) <= abs(reference) * Fraction(1, 2**50)

    def test_bitwise_equal_inputs_give_bitwise_equal_outputs(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=64)
        coeffs = [5 / 7, 2 / 7]
        targets = [rng.normal(size=64), rng.normal(size=64)]
        a = combine_updates(base, list(coeffs), [t.copy() for t in targets], 1.0)
        b = combine_updates(base, list(coeffs), [t.copy() for t in targets], 1.0)
        assert a.tobytes() == b.tobytes()

    def test_equal_halves_match_plain_average(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=32)
        w1 = rng.normal(size=32)
        w2 = rng.normal(size=32)
        out = combine_updates(base, [0.5, 0.5], [w1, w2], 1.0)
        assert np.array_equal(out, (w1 + w2) / 2.0)


def bits(x):
    return x.view(np.int64)


class TestBlocking:
    def _inputs(self, size, seed, n_terms=4):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=size)
        magnitudes = 10.0 ** rng.integers(-12, 3, size=(n_terms, size))
        targets = [base + m * rng.normal(size=size) for m in magnitudes]
        coeffs = list(rng.dirichlet(np.ones(n_terms)))
        return base, coeffs, targets

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_matches_unblocked_bitwise(self, size, scale):
        base, coeffs, targets = self._inputs(size, seed=size)
        copies = [base.copy()] + [t.copy() for t in targets]
        out = combine_updates(base, coeffs, targets, scale)
        ref = combine_updates_unblocked(base, coeffs, targets, scale)
        assert out.shape == (size,)
        assert np.array_equal(bits(out), bits(ref))
        for before, after in zip(copies, [base] + targets):
            assert np.array_equal(bits(before), bits(after))

    def test_non_finite_target_matches_unblocked_bitwise(self):
        # A non-finite party model spreads inf/NaN through the error terms;
        # blocking must reproduce those values (and NaN bit patterns) too.
        base, coeffs, targets = self._inputs(2 * BLOCK + 3, seed=5)
        targets[1][BLOCK - 1] = np.inf
        targets[2][BLOCK] = -np.inf
        targets[3][2 * BLOCK + 2] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            out = combine_updates(base, coeffs, targets, 0.7)
            ref = combine_updates_unblocked(base, coeffs, targets, 0.7)
        assert not np.isfinite(out[[BLOCK - 1, BLOCK, 2 * BLOCK + 2]]).any()
        assert np.array_equal(bits(out), bits(ref))
