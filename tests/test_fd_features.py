import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdspoof import fd_features as fd
from fdspoof.cepstral import CepstralMatrix
from fdspoof.exceptions import DomainError, InsufficientDigits, ZeroValue


def brute_force_first_digit(x, base):
    """Oracle: repeatedly multiply/divide |x| into [1, base)."""
    m = abs(x)
    while m >= base:
        m /= base
    while m < 1.0:
        m *= base
    return int(m)


def oracle_divergences(p, q, alpha=0.3, epsilon=1e-10):
    """Term-by-term evaluation of the four divergences on two raw vectors."""
    mse = sum((pi - qi) ** 2 for pi, qi in zip(p, q)) / len(p)
    pf = [max(pi, epsilon) for pi in p]
    qf = [max(qi, epsilon) for qi in q]
    pf = [v / sum(pf) for v in pf]
    qf = [v / sum(qf) for v in qf]
    js = sum(a * math.log(a / b) for a, b in zip(pf, qf)) + sum(
        b * math.log(b / a) for a, b in zip(pf, qf)
    )
    s_pq = sum(a ** alpha / b ** (alpha - 1.0) for a, b in zip(pf, qf))
    s_qp = sum(b ** alpha / a ** (alpha - 1.0) for a, b in zip(pf, qf))
    renyi = (math.log(s_pq) + math.log(s_qp)) / (1.0 - alpha)
    tsallis = (2.0 - s_pq - s_qp) / (1.0 - alpha)
    return js, renyi, tsallis, mse


def benford_probs(base=10, beta=1.0, gamma=0.0, delta=1.0):
    d = np.arange(1, base, dtype=float)
    return beta * np.log1p(1.0 / (gamma + d ** delta)) / np.log(base)


class TestQuantize:
    def test_arithmetic(self):
        assert fd.quantize(6.0, 3.0) == 2.0

    def test_identity(self):
        assert fd.quantize(1.234, 1.0) == 1.234

    def test_sign_passes_through(self):
        assert fd.quantize(-4.4, 4.0) == pytest.approx(-1.1)


class TestFirstDigit:
    def test_small_value(self):
        assert fd.first_digit(0.00932, 10) == 9

    def test_power_of_base(self):
        assert fd.first_digit(1.0, 10) == 1

    def test_base_20(self):
        assert fd.first_digit(123.4, 20) == 6

    def test_zero_rejected(self):
        with pytest.raises(ZeroValue):
            fd.first_digit(0.0, 10)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        values = 10.0 ** rng.uniform(-6, 6, 5000)
        for base in (10, 20):
            got = [fd.first_digit(v, base) for v in values]
            want = [brute_force_first_digit(v, base) for v in values]
            assert got == want

    @given(
        st.floats(1.001, 9.999).filter(lambda m: abs(m - round(m)) > 1e-6),
        st.integers(-5, 5),
    )
    def test_mantissa_invariance(self, mantissa, k):
        assert fd.first_digit(mantissa * 10.0 ** k, 10) == fd.first_digit(mantissa, 10)


class TestDigitPmf:
    def test_counting(self):
        values = np.array([1.0, 1.5, 2.0, 9.0])
        pmf = fd.digit_pmf(values, 1.0, 10, min_digits=1)
        assert pmf.probabilities[0] == 0.5  # digit 1
        assert pmf.probabilities[1] == 0.25  # digit 2
        assert pmf.probabilities[8] == 0.25  # digit 9
        assert pmf.count == 4

    def test_degenerate_single_digit(self):
        pmf = fd.digit_pmf(np.full(32, 7.7), 1.0, 10, min_digits=1)
        assert pmf.probabilities[6] == 1.0

    def test_zeros_dropped(self):
        values = np.array([0.0, 3.0, 0.0, 3.0])
        pmf = fd.digit_pmf(values, 1.0, 10, min_digits=1)
        assert pmf.count == 2
        assert pmf.probabilities[2] == 1.0

    def test_insufficient_digits(self):
        with pytest.raises(InsufficientDigits):
            fd.digit_pmf(np.array([1.0, 2.0]), 1.0, 10, min_digits=10)

    def test_benford_sampled_monte_carlo(self):
        rng = np.random.default_rng(2)
        values = 10.0 ** rng.uniform(0, 1, 100000)
        pmf = fd.digit_pmf(values, 1.0, 10)
        assert pmf.probabilities[0] == pytest.approx(math.log10(2), abs=0.01)
        assert pmf.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stretching_by_base_power_leaves_pmf_unchanged(self):
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-2, 2, 2000)
        base_pmf = fd.digit_pmf(values, 1.0, 10)
        for delta in (10.0, 100.0, 0.1):
            assert np.array_equal(
                fd.digit_pmf(values, delta, 10).probabilities, base_pmf.probabilities
            )


class TestBenfordIdeal:
    def test_classic_p1(self):
        assert fd.benford_ideal(1, 10, 1.0, 0.0, 1.0) == pytest.approx(0.301030, abs=1e-6)

    def test_classic_p9(self):
        assert fd.benford_ideal(9, 10, 1.0, 0.0, 1.0) == pytest.approx(0.045757, abs=1e-6)

    def test_telescoping_normalization(self):
        total = sum(fd.benford_ideal(d, 10, 1.0, 0.0, 1.0) for d in range(1, 10))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fd.benford_ideal(1, 10, 1.0, -2.0, 1.0)


class TestFitBenford:
    def test_exact_benford_fixed_point(self):
        pmf = fd.DigitPmf(10, benford_probs(), 1000)
        fit = fd.fit_benford(pmf)
        assert fit.converged
        assert fit.residual_mse < 1e-10
        curve = fd.benford_ideal(np.arange(1, 10), 10, fit.beta, fit.gamma, fit.delta_exp)
        assert np.allclose(curve, pmf.probabilities, atol=1e-5)

    def test_generate_then_fit_recovers_curve(self):
        probs = benford_probs(10, 1.05, 0.2, 0.9)
        probs = probs / probs.sum()
        fit = fd.fit_benford(fd.DigitPmf(10, probs, 1000))
        assert fit.converged
        assert fit.residual_mse < 1e-6

    def test_uniform_fits_worse_than_benford(self):
        benford_fit = fd.fit_benford(fd.DigitPmf(10, benford_probs(), 1000))
        uniform_fit = fd.fit_benford(fd.DigitPmf(10, np.full(9, 1.0 / 9.0), 1000))
        assert uniform_fit.converged
        assert uniform_fit.residual_mse > benford_fit.residual_mse

    def test_returned_params_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(9))
            fit = fd.fit_benford(fd.DigitPmf(10, probs, 100))
            d = np.arange(1, 10, dtype=float)
            assert np.all(fit.gamma + d ** fit.delta_exp > 0)

    @pytest.mark.parametrize("base", [10, 20])
    def test_spike_at_digit_one_converges(self, base):
        # the family reaches a one-digit pmf at digit 1 only as delta -> inf
        probs = np.zeros(base - 1)
        probs[0] = 1.0
        pmf = fd.DigitPmf(base, probs, 100)
        fit = fd.fit_benford(pmf)
        assert fit.converged
        assert fd.divergences(pmf, fit).js < 1e-6

    @pytest.mark.parametrize("base", [10, 20])
    def test_dirichlet_pmfs_converge(self, base):
        rng = np.random.default_rng(13)
        probs = np.vstack([rng.dirichlet(np.full(base - 1, c), size=200)
                           for c in (0.1, 0.5, 1.0, 5.0)])
        params, residual, converged = fd.fit_benford_batch(probs, base)
        assert np.mean(converged) >= 0.95
        for i in range(0, len(probs), 97):
            alone = fd.fit_benford_batch(probs[i], base)
            assert np.array_equal(alone[0][0], params[i])
            assert alone[1][0] == residual[i]
            assert alone[2][0] == converged[i]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 10, 20]).flatmap(
        lambda base: st.tuples(st.just(base), st.lists(
            st.floats(0.0, 1.0), min_size=base - 1, max_size=base - 1
        ).filter(lambda w: sum(w) > 0.0))))
    def test_fit_is_feasible_and_no_worse_than_benford(self, case):
        base, weights = case
        probs = np.array(weights) / sum(weights)
        pmf = fd.DigitPmf(base, probs, 100)
        fit = fd.fit_benford(pmf)
        d = np.arange(1, base, dtype=float)
        assert np.isfinite([fit.beta, fit.gamma, fit.delta_exp, fit.residual_mse]).all()
        with np.errstate(over="ignore"):
            assert np.all(fit.gamma + d ** fit.delta_exp > 0)
        benford_mse = np.mean((benford_probs(base) - probs) ** 2)
        assert fit.residual_mse <= benford_mse + 1e-15
        # the residual is the mse of the reported curve
        assert fd.divergences(pmf, fit).mse == fit.residual_mse

    def test_batch_composition_is_irrelevant(self):
        rng = np.random.default_rng(5)
        pmfs = rng.dirichlet(np.ones(9), size=8)
        together = fd.fit_benford_batch(pmfs, 10)
        for i in range(len(pmfs)):
            alone = fd.fit_benford_batch(pmfs[i], 10)
            assert np.array_equal(alone[0][0], together[0][i])
            assert alone[1][0] == together[1][i]
            assert alone[2][0] == together[2][i]


class TestDivergences:
    def test_identity_of_indiscernibles(self):
        pmf = fd.DigitPmf(10, benford_probs(), 1000)
        fit = fd.BenfordFit(1.0, 0.0, 1.0, 0.0, True)
        ds = fd.divergences(pmf, fit)
        assert abs(ds.js) < 1e-12
        assert abs(ds.renyi) < 1e-12
        assert abs(ds.tsallis) < 1e-12
        assert abs(ds.mse) < 1e-12

    def test_base3_worked_example(self):
        # p = (0.5, 0.5) against the classic base-3 Benford curve
        pmf = fd.DigitPmf(3, np.array([0.5, 0.5]), 100)
        fit = fd.BenfordFit(1.0, 0.0, 1.0, 0.0, True)
        ds = fd.divergences(pmf, fit)
        q = benford_probs(base=3)
        want = oracle_divergences([0.5, 0.5], list(q))
        assert ds.js == pytest.approx(0.0702, abs=1e-3)
        assert ds.js == pytest.approx(want[0], abs=1e-9)
        assert ds.renyi == pytest.approx(want[1], abs=1e-9)
        assert ds.tsallis == pytest.approx(want[2], abs=1e-9)

    def test_mse_worked_example(self):
        # fitted curve identically 0.5 over d in {1, 2}: delta=0, beta chosen so
        # beta * log3(2) == 0.5
        pmf = fd.DigitPmf(3, np.array([0.6, 0.4]), 100)
        beta = 0.5 / (math.log(2) / math.log(3))
        fit = fd.BenfordFit(beta, 0.0, 0.0, 0.0, True)
        assert fd.divergences(pmf, fit).mse == pytest.approx(0.01, rel=1e-9)

    def test_nonnegativity_and_symmetry_against_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            p = rng.dirichlet(np.ones(9))
            q = rng.dirichlet(np.ones(9))
            js, renyi, tsallis, mse = oracle_divergences(list(p), list(q))
            js_s, renyi_s, tsallis_s, mse_s = oracle_divergences(list(q), list(p))
            assert js >= 0.0 and tsallis >= 0.0 and mse >= 0.0
            assert js == pytest.approx(js_s, rel=1e-12)
            assert renyi == pytest.approx(renyi_s, rel=1e-12)
            assert tsallis == pytest.approx(tsallis_s, rel=1e-9)
            assert mse == pytest.approx(mse_s, rel=1e-12)

    def test_package_matches_oracle_on_fitted_curve(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(9))
        pmf = fd.DigitPmf(10, probs, 500)
        fit = fd.fit_benford(pmf)
        q = fd.benford_ideal(np.arange(1, 10), 10, fit.beta, fit.gamma, fit.delta_exp)
        want = oracle_divergences(list(probs), list(q))
        got = fd.divergences(pmf, fit)
        assert got.js == pytest.approx(want[0], rel=1e-9)
        assert got.renyi == pytest.approx(want[1], rel=1e-6, abs=1e-12)
        assert got.tsallis == pytest.approx(want[2], rel=1e-6, abs=1e-12)
        assert got.mse == pytest.approx(want[3], rel=1e-9)


def matrix_from_columns(columns):
    values = np.column_stack(columns)
    return CepstralMatrix(values=values, frequencies=tuple(range(2, 2 + values.shape[1])))


def isotonic_fit(y):
    """Least-squares non-decreasing fit of y (pool-adjacent-violators)."""
    blocks = []  # [sum, count] per pooled run
    for v in y:
        blocks.append([v, 1])
        while len(blocks) > 1 and blocks[-2][0] * blocks[-1][1] > blocks[-1][0] * blocks[-2][1]:
            total, count = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
    return np.concatenate([np.full(count, total / count) for total, count in blocks])


def monotone_mse_bound(probs):
    """Lowest mse any monotone curve reaches against probs.

    Every generalized Benford curve is monotone in d, so this bounds from
    below the mse of the fitted curve, whatever point the fitter reports.
    """
    rising = np.mean((probs - isotonic_fit(probs)) ** 2)
    falling = np.mean((probs - isotonic_fit(probs[::-1])[::-1]) ** 2)
    return min(rising, falling)


class TestAssemble:
    def test_default_layout_is_416(self):
        rng = np.random.default_rng(8)
        matrix = matrix_from_columns([10.0 ** rng.uniform(-2, 2, 64) for _ in range(13)])
        fv = fd.assemble_features(matrix)
        assert fv.values.shape == (416,)
        assert len(fv.layout) == 416
        assert fv.layout[0].name == "js_f2_b10_d1"
        assert fv.layout[-1].name == "mse_f14_b20_d4"

    def test_layout_is_pure_function_of_config(self):
        cfg = fd.FdConfig()
        a = fd.feature_layout(cfg, range(2, 15))
        b = fd.feature_layout(cfg, range(2, 15))
        assert a == b
        assert fd.layout_hash(a) == fd.layout_hash(b)

    def test_name_parse_roundtrip(self):
        cfg = fd.FdConfig(deltas=(0.008, 1.0, 2.5))
        for desc in fd.feature_layout(cfg, (2, 14)):
            assert fd.parse_feature_name(desc.name) == desc

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        matrix = matrix_from_columns([10.0 ** rng.uniform(-2, 2, 64) for _ in range(13)])
        a = fd.assemble_features(matrix)
        b = fd.assemble_features(matrix)
        assert np.array_equal(a.values, b.values)

    def test_insufficient_digits_propagates_cell(self):
        cols = [10.0 ** np.random.default_rng(10).uniform(-2, 2, 64) for _ in range(13)]
        cols[4] = np.zeros(64)
        with pytest.raises(InsufficientDigits, match=r"f=6"):
            fd.assemble_features(matrix_from_columns(cols))

    def test_batched_assembly_matches_single(self):
        rng = np.random.default_rng(11)
        matrices = [
            matrix_from_columns([10.0 ** rng.uniform(-2, 2, 64) for _ in range(13)])
            for _ in range(3)
        ]
        many, failures = fd.assemble_features_many(matrices)
        assert not failures
        for matrix, combined in zip(matrices, many):
            assert np.array_equal(fd.assemble_features(matrix).values, combined.values)

    def test_benford_matrix_scores_below_uniform_matrix(self):
        # Columns with log-uniform mantissas follow the Benford law for every
        # quantization step. Columns with mantissas in [2,3) u [8,9) have a
        # non-monotone digit profile in every (base, step) cell, so no member
        # of the curve family fits them; uniform digits would not do, since
        # the uniform pmf is the family's member at delta=0.
        rng = np.random.default_rng(12)
        n = 4096
        benford_cols = [10.0 ** rng.uniform(-3, 3, n) for _ in range(13)]
        contrast_cols = [
            (rng.choice((2.0, 8.0), n) + rng.uniform(0, 1, n)) * 10.0 ** rng.integers(-3, 3, n)
            for _ in range(13)
        ]
        fv_benford = fd.assemble_features(matrix_from_columns(benford_cols))
        fv_contrast = fd.assemble_features(matrix_from_columns(contrast_cols))

        # The contrast lies outside the family by a margin that does not depend
        # on the fit: even the best monotone curve is 10x further away in mse
        # than the fitted curve is from the Benford side.
        config = fd.FdConfig()
        mse_benford = iter(value for value, desc in zip(fv_benford.values, fv_benford.layout)
                           if desc.divergence == "mse")
        for column in contrast_cols:
            for base in config.bases:
                for delta in config.deltas:
                    bound = monotone_mse_bound(fd.digit_pmf(column, delta, base).probabilities)
                    assert bound >= 10.0 * next(mse_benford), (base, delta)

        # renyi is <= 0 and falls as the gap grows, so it orders by magnitude
        sign = np.array([-1.0 if desc.divergence == "renyi" else 1.0
                         for desc in fv_benford.layout])
        assert np.all(sign * fv_benford.values < sign * fv_contrast.values), (
            "some cells score the Benford columns at or above the non-monotone ones"
        )
