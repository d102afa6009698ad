import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_filtered_clip
from fdspoof import asvspoof, fd_features as fd, segmentation
from fdspoof.audio_io import AudioBuffer, peak_normalize
from fdspoof.cepstral import CepstralConfig, CepstralMatrix, mfcc
from fdspoof.exceptions import InsufficientDigits, SettingError
from fdspoof.segmentation import EnergyConfig, SegmentKind

MIN_DIGITS = fd.FdConfig().min_digits


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
    """numpy oracle of the curve, with d ** delta rather than the package's
    exp(delta * ln d)."""
    d = np.arange(1, base, dtype=float)
    return beta * np.log1p(1.0 / (gamma + d ** delta)) / np.log(base)


def curve(base, beta, gamma, delta):
    """The package's curve at d = 1..base-1, from the evaluator the fit uses."""
    ln_digits = np.log(np.arange(1, base, dtype=float))
    return fd._curve_batch(np.array([[beta, gamma, delta]]), ln_digits, math.log(base))[0]


def first_digit(x, base):
    return int(fd._first_digits(np.array([abs(float(x))]), base)[0])


def per_cell_pmf(column, delta, base, min_digits=MIN_DIGITS):
    """The digit pmf of one coefficient column at one quantization step, one
    cell at a time: the oracle for the batched `digit_pmf`."""
    quantized = np.asarray(column, dtype=np.float64) / delta
    nonzero = quantized[quantized != 0.0]
    if nonzero.size < min_digits:
        raise InsufficientDigits(
            f"{nonzero.size} non-zero values < required {min_digits} (base={base}, delta={delta:g})"
        )
    digits = fd._first_digits(np.abs(nonzero), base)
    return np.bincount(digits, minlength=base)[1:base] / nonzero.size


def column_pmf(values, delta, base, min_digits=MIN_DIGITS):
    """`digit_pmf` of one column at one step."""
    return fd.digit_pmf(np.asarray(values)[:, None], (delta,), base, min_digits)[0, 0]


def features(matrix, config=fd.FdConfig()):
    """(values, capped fits) of one matrix; raises the record's failure."""
    values, capped = fd.assemble_features_many([fd.cell_pmfs(matrix, config)], config)
    return values[0], int(capped[0])


class TestQuantize:
    """digit_pmf divides each value by the step, without rounding."""

    def test_arithmetic(self):
        # 6 / 3 = 2, and 6 / 7 = 0.857... has first digit 8
        pmfs = fd.digit_pmf(np.array([[6.0]]), (3.0, 7.0), 10, 1)
        assert np.argmax(pmfs[0, 0]) + 1 == 2 and np.argmax(pmfs[0, 1]) + 1 == 8

    def test_identity(self):
        # 1.234 in base 10 and 20 has first digit 1; base 2 sees 1.234 too
        for base in (2, 10, 20):
            assert column_pmf([1.234], 1.0, base, 1)[0] == 1.0

    def test_sign_passes_through(self):
        # -4.4 / 4 = -1.1 and -4.4 / 0.5 = -8.8 count by magnitude
        pmfs = fd.digit_pmf(np.array([[-4.4]]), (4.0, 0.5), 10, 1)
        assert pmfs[0, 0, 0] == 1.0 and pmfs[0, 1, 7] == 1.0


class TestFirstDigit:
    def test_small_value(self):
        assert first_digit(0.00932, 10) == 9

    def test_power_of_base(self):
        assert first_digit(1.0, 10) == 1

    def test_base_20(self):
        assert first_digit(123.4, 20) == 6

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        values = 10.0 ** rng.uniform(-6, 6, 5000)
        for base in (10, 20):
            got = fd._first_digits(values.copy(), base).tolist()
            want = [brute_force_first_digit(v, base) for v in values]
            assert got == want

    @given(
        st.floats(1.001, 9.999).filter(lambda m: abs(m - round(m)) > 1e-6),
        st.integers(-5, 5),
    )
    def test_mantissa_invariance(self, mantissa, k):
        assert first_digit(mantissa * 10.0 ** k, 10) == first_digit(mantissa, 10)


class TestDigitPmf:
    def test_counting(self):
        values = np.array([1.0, 1.5, 2.0, 9.0])
        pmf = column_pmf(values, 1.0, 10, 1)
        assert pmf[0] == 0.5  # digit 1
        assert pmf[1] == 0.25  # digit 2
        assert pmf[8] == 0.25  # digit 9
        # four values counted: every probability is a multiple of 1/4
        assert np.array_equal(pmf * 4, [2, 1, 0, 0, 0, 0, 0, 0, 1])

    def test_degenerate_single_digit(self):
        pmf = column_pmf(np.full(32, 7.7), 1.0, 10, 1)
        assert pmf[6] == 1.0

    def test_zeros_dropped(self):
        values = np.array([0.0, 3.0, 0.0, 3.0])
        assert column_pmf(values, 1.0, 10, 2)[2] == 1.0
        # two non-zero values: a third required digit is missing
        with pytest.raises(InsufficientDigits, match=r"^2 non-zero values < required 3 "):
            column_pmf(values, 1.0, 10, 3)

    def test_insufficient_digits(self):
        with pytest.raises(InsufficientDigits) as info:
            column_pmf(np.array([1.0, 2.0]), 1.0, 10, 10)
        assert str(info.value) == "2 non-zero values < required 10 (base=10, delta=1)"
        assert info.value.cell == (0, 0)

    def test_first_short_cell_in_row_major_order(self):
        # 1e-30 / 1e300 underflows to zero, so column 0 runs short at the
        # second step only; column 1 is short at every step
        columns = np.column_stack([np.r_[np.full(5, 1e-30), np.ones(10)],
                                   np.r_[np.zeros(5), np.ones(10)]])
        with pytest.raises(InsufficientDigits) as info:
            fd.digit_pmf(columns, (1.0, 1e300), 20, 12)
        assert info.value.cell == (0, 1)
        assert str(info.value) == "10 non-zero values < required 12 (base=20, delta=1e+300)"
        assert fd.digit_pmf(columns, (1.0, 1e300), 20, 10).shape == (2, 2, 19)

    def test_overflowing_step_is_a_setting_error(self):
        # 1 / 1e-320 overflows to inf, which has no first digit
        columns = np.array([[1e-30, 1.0], [2e-30, 1e-30]] * 10)
        with pytest.raises(SettingError, match=r"^quantization step 1e-320 is too small"):
            fd.digit_pmf(columns, (1.0, 1e-320), 10, 1)
        assert fd.digit_pmf(columns[:, :1], (1.0, 1e-290), 10, 1).shape == (1, 2, 9)

    def test_benford_sampled_monte_carlo(self):
        rng = np.random.default_rng(2)
        values = 10.0 ** rng.uniform(0, 1, 100000)
        pmf = column_pmf(values, 1.0, 10)
        assert pmf[0] == pytest.approx(math.log10(2), abs=0.01)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stretching_by_base_power_leaves_pmf_unchanged(self):
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-2, 2, 2000)
        pmfs = fd.digit_pmf(values[:, None], (1.0, 10.0, 100.0, 0.1), 10, MIN_DIGITS)[0]
        for pmf in pmfs[1:]:
            assert np.array_equal(pmf, pmfs[0])

    def test_matches_per_cell_oracle(self):
        # zeros, signs, ties at digit boundaries and a step that underflows
        rng = np.random.default_rng(15)
        columns = np.where(rng.uniform(size=(400, 5)) < 0.2, 0.0,
                           rng.choice((-1.0, 1.0), (400, 5)) * 10.0 ** rng.uniform(-5, 5, (400, 5)))
        columns[:40, 2] = np.arange(1, 41)
        deltas = (1.0, 0.008, 3.0, 1e300)
        for base in (2, 10, 20):
            pmfs = fd.digit_pmf(columns, deltas, base, 1)
            assert pmfs.shape == (5, 4, base - 1)
            for column in range(5):
                for step, delta in enumerate(deltas):
                    want = per_cell_pmf(columns[:, column], delta, base, 1)
                    assert np.array_equal(pmfs[column, step], want), (base, column, delta)


class TestCellPmfs:
    @pytest.fixture(scope="class")
    def view_matrices(self):
        """MFCC matrices of FIR clips with quiet gaps, in the full, silence
        and voiced views, each at the hop `extract` uses for that view."""
        matrices = []
        for n_coeffs, seed in ((8, 1), (64, 2)):
            clip = make_filtered_clip(n_coeffs, seed).samples
            quiet = 1e-3 * make_filtered_clip(n_coeffs, seed + 10, n_samples=6000).samples
            buffer = peak_normalize(AudioBuffer(np.concatenate([quiet, clip, quiet, clip]),
                                                16000, f"clip{seed}"))
            for view in segmentation.segment(buffer, EnergyConfig()):
                config = asvspoof.view_config(view.kind, CepstralConfig())
                matrices.append(mfcc(segmentation.extract(buffer, view), config))
        return matrices

    def test_every_cell_matches_per_cell_oracle(self, view_matrices):
        config = fd.FdConfig()
        for matrix in view_matrices:
            pmfs = fd.cell_pmfs(matrix, config)
            assert [p.shape for p in pmfs] == [(13 * 4, base - 1) for base in config.bases]
            for b, base in enumerate(config.bases):
                cells = ((f_idx, delta) for f_idx in range(len(matrix.frequencies))
                         for delta in config.deltas)
                for row, (f_idx, delta) in enumerate(cells):
                    want = per_cell_pmf(matrix.values[:, f_idx], delta, base)
                    assert np.array_equal(pmfs[b][row], want), (matrix.n_frames, base, delta)

    def test_one_digit_pmf_call_per_base(self, view_matrices, monkeypatch):
        calls = []
        digit_pmf = fd.digit_pmf

        def counted(*args):
            calls.append(args[2])
            return digit_pmf(*args)

        monkeypatch.setattr(fd, "digit_pmf", counted)
        fd.cell_pmfs(view_matrices[0], fd.FdConfig(bases=(20, 10)))
        assert calls == [20, 10]


class TestBenfordIdeal:
    """The generalized Benford curve, through the evaluator the fit uses."""

    def test_classic_p1(self):
        assert curve(10, 1.0, 0.0, 1.0)[0] == pytest.approx(0.301030, abs=1e-6)

    def test_classic_p9(self):
        assert curve(10, 1.0, 0.0, 1.0)[8] == pytest.approx(0.045757, abs=1e-6)

    def test_telescoping_normalization(self):
        total = sum(curve(10, 1.0, 0.0, 1.0))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        # gamma + d^delta <= 0 at d = 1 and 2 only: nan shape, infinite mse
        ln_digits = np.log(np.arange(1, 10, dtype=float))
        shape = fd._shape_batch(np.array([-2.5, 1.0]), ln_digits, math.log(10))
        assert np.isnan(shape[:2]).all() and np.isfinite(shape[2:]).all()
        probs = benford_probs()[None, :]
        _, mse = fd._projected_batch(np.array([[[-2.5, 1.0], [0.0, 1.0]]]), probs,
                                     ln_digits, math.log(10))
        assert mse[0, 0] == np.inf and mse[0, 1] < 1e-20


class TestFitBenford:
    def test_exact_benford_fixed_point(self):
        fit = fd.fit_benford(benford_probs(), 10)
        assert fit.converged
        assert fit.residual_mse < 1e-10
        fitted = curve(10, fit.beta, fit.gamma, fit.delta_exp)
        assert np.allclose(fitted, benford_probs(), atol=1e-5)

    def test_generate_then_fit_recovers_curve(self):
        probs = benford_probs(10, 1.05, 0.2, 0.9)
        probs = probs / probs.sum()
        fit = fd.fit_benford(probs, 10)
        assert fit.converged
        assert fit.residual_mse < 1e-6

    def test_uniform_fits_worse_than_benford(self):
        benford_fit = fd.fit_benford(benford_probs(), 10)
        uniform_fit = fd.fit_benford(np.full(9, 1.0 / 9.0), 10)
        assert uniform_fit.converged
        assert uniform_fit.residual_mse > benford_fit.residual_mse

    def test_returned_params_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(9))
            fit = fd.fit_benford(probs, 10)
            d = np.arange(1, 10, dtype=float)
            assert np.all(fit.gamma + d ** fit.delta_exp > 0)

    @pytest.mark.parametrize("base", [10, 20])
    def test_spike_at_digit_one_converges(self, base):
        # the family reaches a one-digit pmf at digit 1 only as delta -> inf
        probs = np.zeros(base - 1)
        probs[0] = 1.0
        fit = fd.fit_benford(probs, base)
        assert fit.converged
        assert fd.divergences(probs, base, fit).js < 1e-6

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
        fit = fd.fit_benford(probs, base)
        d = np.arange(1, base, dtype=float)
        assert np.isfinite([fit.beta, fit.gamma, fit.delta_exp, fit.residual_mse]).all()
        with np.errstate(over="ignore"):
            assert np.all(fit.gamma + d ** fit.delta_exp > 0)
        benford_mse = np.mean((benford_probs(base) - probs) ** 2)
        assert fit.residual_mse <= benford_mse + 1e-15
        # the residual is the mse of the reported curve
        assert fd.divergences(probs, base, fit).mse == fit.residual_mse

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
        fit = fd.BenfordFit(1.0, 0.0, 1.0, 0.0, True)
        ds = fd.divergences(benford_probs(), 10, fit)
        assert abs(ds.js) < 1e-12
        assert abs(ds.renyi) < 1e-12
        assert abs(ds.tsallis) < 1e-12
        assert abs(ds.mse) < 1e-12

    def test_base3_worked_example(self):
        # p = (0.5, 0.5) against the classic base-3 Benford curve
        fit = fd.BenfordFit(1.0, 0.0, 1.0, 0.0, True)
        ds = fd.divergences(np.array([0.5, 0.5]), 3, fit)
        q = benford_probs(base=3)
        want = oracle_divergences([0.5, 0.5], list(q))
        assert ds.js == pytest.approx(0.0702, abs=1e-3)
        assert ds.js == pytest.approx(want[0], abs=1e-9)
        assert ds.renyi == pytest.approx(want[1], abs=1e-9)
        assert ds.tsallis == pytest.approx(want[2], abs=1e-9)

    def test_mse_worked_example(self):
        # fitted curve identically 0.5 over d in {1, 2}: delta=0, beta chosen so
        # beta * log3(2) == 0.5
        beta = 0.5 / (math.log(2) / math.log(3))
        fit = fd.BenfordFit(beta, 0.0, 0.0, 0.0, True)
        assert fd.divergences(np.array([0.6, 0.4]), 3, fit).mse == pytest.approx(0.01, rel=1e-9)

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
        fit = fd.fit_benford(probs, 10)
        q = benford_probs(10, fit.beta, fit.gamma, fit.delta_exp)
        want = oracle_divergences(list(probs), list(q))
        got = fd.divergences(probs, 10, fit)
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
        values, _ = features(matrix)
        layout = fd.feature_layout(fd.FdConfig(), matrix.frequencies)
        assert values.shape == (416,)
        assert len(layout) == 416
        assert layout[0].name == "js_f2_b10_d1"
        assert layout[-1].name == "mse_f14_b20_d4"

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
        a, _ = features(matrix)
        b, _ = features(matrix)
        assert np.array_equal(a, b)

    def test_insufficient_digits_propagates_cell(self):
        cols = [10.0 ** np.random.default_rng(10).uniform(-2, 2, 64) for _ in range(13)]
        cols[4] = np.zeros(64)
        with pytest.raises(InsufficientDigits) as info:
            features(matrix_from_columns(cols))
        assert str(info.value) == (
            "cell (f=6, b=10, delta=1): 0 non-zero values < required 10 (base=10, delta=1)"
        )
        # the first short cell in layout order: frequency, then base, then
        # step; 1e-30 / 1e300 underflows to zero, so f=6 runs short at the
        # second step only
        cols[4] = np.r_[np.full(60, 1e-30), np.ones(4)]
        cols[7] = np.zeros(64)
        config = fd.FdConfig(bases=(20, 10), deltas=(1.0, 1e300))
        with pytest.raises(InsufficientDigits) as info:
            features(matrix_from_columns(cols), config)
        assert str(info.value) == (
            "cell (f=6, b=20, delta=1e+300): 4 non-zero values < required 10 "
            "(base=20, delta=1e+300)"
        )

    def test_batched_assembly_matches_single(self):
        rng = np.random.default_rng(11)
        matrices = [
            matrix_from_columns([10.0 ** rng.uniform(-2, 2, 64) for _ in range(13)])
            for _ in range(3)
        ]
        config = fd.FdConfig()
        values, capped = fd.assemble_features_many(
            [fd.cell_pmfs(matrix, config) for matrix in matrices], config)
        assert values.shape == (3, 416) and capped.shape == (3,)
        for matrix, row, row_capped in zip(matrices, values, capped):
            alone = features(matrix)
            assert np.array_equal(alone[0], row) and alone[1] == row_capped

    def test_columns_follow_the_layout(self):
        # every column is its cell's pmf fitted alone, at the layout's position
        rng = np.random.default_rng(16)
        matrix = matrix_from_columns([10.0 ** rng.uniform(-2, 2, 64) for _ in range(3)])
        config = fd.FdConfig(bases=(20, 10), deltas=(3.0, 1.0))
        values, _ = features(matrix, config)
        layout = fd.feature_layout(config, matrix.frequencies)
        for i in range(0, len(layout), len(fd.DIVERGENCE_NAMES)):
            cell = layout[i]
            column = matrix.values[:, matrix.frequencies.index(cell.frequency)]
            pmf = per_cell_pmf(column, cell.delta, cell.base)
            alone, _ = fd.fitted_divergences(pmf[None, :], cell.base,
                                             config.alpha, config.epsilon)
            assert np.array_equal(values[i : i + len(fd.DIVERGENCE_NAMES)], alone[0]), cell

    def test_failed_record_leaves_its_place_empty(self, wav_factory):
        # a 3000-sample clip has 4 full-view frames, fewer than min_digits:
        # its place in the chunk holds its skip, and its neighbours' rows do
        # not depend on it
        rng = np.random.default_rng(14)
        good = wav_factory(0.5 * rng.uniform(-1, 1, 8000), name="good")
        short = wav_factory(0.5 * rng.uniform(-1, 1, 3000), name="short")
        chunk = [good, short, good]
        outcomes = asvspoof._extract_chunk(chunk, SegmentKind.FULL, CepstralConfig(),
                                           fd.FdConfig(), EnergyConfig())
        skip = outcomes[1]
        assert skip == asvspoof.SkipRecord(
            "short", "InsufficientDigits",
            "cell (f=2, b=10, delta=1): 4 non-zero values < required 10 (base=10, delta=1)")
        assert np.array_equal(outcomes[0][0], outcomes[2][0]) and outcomes[0][1] == outcomes[2][1]
        alone = asvspoof._extract_chunk([good], SegmentKind.FULL, CepstralConfig(),
                                        fd.FdConfig(), EnergyConfig())[0]
        assert np.array_equal(outcomes[0][0], alone[0]) and outcomes[0][1] == alone[1]

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
        fv_benford, _ = features(matrix_from_columns(benford_cols))
        fv_contrast, _ = features(matrix_from_columns(contrast_cols))
        layout = fd.feature_layout(fd.FdConfig(), range(2, 15))

        # The contrast lies outside the family by a margin that does not depend
        # on the fit: even the best monotone curve is 10x further away in mse
        # than the fitted curve is from the Benford side.
        config = fd.FdConfig()
        mse_benford = iter(value for value, desc in zip(fv_benford, layout)
                           if desc.divergence == "mse")
        for column in contrast_cols:
            for base in config.bases:
                for delta in config.deltas:
                    bound = monotone_mse_bound(column_pmf(column, delta, base))
                    assert bound >= 10.0 * next(mse_benford), (base, delta)

        # renyi is <= 0 and falls as the gap grows, so it orders by magnitude
        sign = np.array([-1.0 if desc.divergence == "renyi" else 1.0 for desc in layout])
        assert np.all(sign * fv_benford < sign * fv_contrast), (
            "some cells score the Benford columns at or above the non-monotone ones"
        )
