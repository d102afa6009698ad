import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares, lsq_linear

from conftest import brute_force_first_digit, make_filtered_clip
from fdspoof import asvspoof, fd_features as fd, segmentation
from fdspoof.audio_io import AudioBuffer, peak_normalize
from fdspoof.cepstral import CepstralConfig, CepstralMatrix, mfcc
from fdspoof.exceptions import InsufficientDigits, SettingError
from fdspoof.segmentation import EnergyConfig, SegmentKind

MIN_DIGITS = fd.FdConfig().min_digits


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
    """The package's curve at d = 1..base-1, from the evaluator the fit uses,
    at the fit's coordinates (s, delta) with s = ln(gamma + min_d d^delta)."""
    d = np.arange(1, base, dtype=float)
    point = np.array([[math.log(gamma + np.min(d ** delta)), delta]])
    return beta * fd._shape_batch(point, np.log(d), math.log(base))[0][0]


def projected_mse(points, probs, base):
    """mse of beta * g - p at (K, 2) points (s, delta) against one pmf, with
    beta the least-squares scale of the shape g there."""
    g, _ = fd._shape_batch(points, np.log(np.arange(1, base, dtype=float)), math.log(base))
    return fd._projection_batch(np.tile(probs, (len(points), 1)), g)[2] / probs.size


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


def labelled(values):
    """An (n, k) value matrix as a CepstralMatrix of the kept coefficients 2, 3, ..."""
    return CepstralMatrix(values=values, frequencies=tuple(range(2, 2 + values.shape[1])))


def matrix_from_columns(columns):
    return labelled(np.column_stack(columns))


def column_pmf(values, delta, base, min_digits=MIN_DIGITS):
    """`digit_pmf` of one column at one step."""
    return fd.digit_pmf(matrix_from_columns([values]), (delta,), base, min_digits)[0, 0]


def features(matrix, config=fd.FdConfig()):
    """(values, capped fits) of one matrix; raises the record's failure."""
    values, capped = fd.assemble_features_many([fd.cell_pmfs(matrix, config)], config)
    return values[0], int(capped[0])


class TestQuantize:
    """digit_pmf divides each value by the step, without rounding."""

    def test_arithmetic(self):
        # 6 / 3 = 2, and 6 / 7 = 0.857... has first digit 8
        pmfs = fd.digit_pmf(labelled(np.array([[6.0]])), (3.0, 7.0), 10, 1)
        assert np.argmax(pmfs[0, 0]) + 1 == 2 and np.argmax(pmfs[0, 1]) + 1 == 8

    def test_identity(self):
        # 1.234 in base 10 and 20 has first digit 1; base 2 sees 1.234 too
        for base in (2, 10, 20):
            assert column_pmf([1.234], 1.0, base, 1)[0] == 1.0

    def test_sign_passes_through(self):
        # -4.4 / 4 = -1.1 and -4.4 / 0.5 = -8.8 count by magnitude
        pmfs = fd.digit_pmf(labelled(np.array([[-4.4]])), (4.0, 0.5), 10, 1)
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
        with pytest.raises(InsufficientDigits,
                           match=r"^cell \(f=2, b=10, delta=1\): 2 non-zero values < required 3 "):
            column_pmf(values, 1.0, 10, 3)

    def test_insufficient_digits(self):
        with pytest.raises(InsufficientDigits) as info:
            column_pmf(np.array([1.0, 2.0]), 1.0, 10, 10)
        cell, detail = str(info.value).split(": ", 1)
        assert detail == "2 non-zero values < required 10 (base=10, delta=1)"
        assert cell == "cell (f=2, b=10, delta=1)"

    def test_first_short_cell_in_row_major_order(self):
        # 1e-30 / 1e300 underflows to zero, so column 0 runs short at the
        # second step only; column 1 is short at every step
        columns = matrix_from_columns([np.r_[np.full(5, 1e-30), np.ones(10)],
                                       np.r_[np.zeros(5), np.ones(10)]])
        with pytest.raises(InsufficientDigits) as info:
            fd.digit_pmf(columns, (1.0, 1e300), 20, 12)
        cell, detail = str(info.value).split(": ", 1)
        assert cell == "cell (f=2, b=20, delta=1e+300)"
        assert detail == "10 non-zero values < required 12 (base=20, delta=1e+300)"
        assert fd.digit_pmf(columns, (1.0, 1e300), 20, 10).shape == (2, 2, 19)

    def test_overflowing_step_is_a_setting_error(self):
        # 1 / 1e-320 overflows to inf, which has no first digit
        columns = np.array([[1e-30, 1.0], [2e-30, 1e-30]] * 10)
        with pytest.raises(SettingError, match=r"^quantization step 1e-320 is too small"):
            fd.digit_pmf(labelled(columns), (1.0, 1e-320), 10, 1)
        assert fd.digit_pmf(labelled(columns[:, :1]), (1.0, 1e-290), 10, 1).shape == (1, 2, 9)

    def test_benford_sampled_monte_carlo(self):
        rng = np.random.default_rng(2)
        values = 10.0 ** rng.uniform(0, 1, 100000)
        pmf = column_pmf(values, 1.0, 10)
        assert pmf[0] == pytest.approx(math.log10(2), abs=0.01)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_stretching_by_base_power_leaves_pmf_unchanged(self):
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-2, 2, 2000)
        pmfs = fd.digit_pmf(labelled(values[:, None]), (1.0, 10.0, 100.0, 0.1), 10, MIN_DIGITS)[0]
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
            pmfs = fd.digit_pmf(labelled(columns), deltas, base, 1)
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


def four_point_shape(shape, ln_digits, ln_base):
    """The curve's shape at (..., 2) points (gamma, delta), written out; nan
    where gamma + d^delta <= 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = shape[..., 0:1] + np.exp(shape[..., 1:2] * ln_digits)
        return np.where(t > 0.0, np.log1p(1.0 / t) / ln_base, np.nan)


def four_point_projected(shape, probs, ln_digits, ln_base):
    """(beta, mse) of (B, K, 2) shape points, with the curve written out with
    np.sum and np.mean; +inf where the mse is not finite."""
    g = four_point_shape(shape, ln_digits, ln_base)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = probs[:, None, :]
        beta = np.sum(p * g, axis=-1) / np.sum(g * g, axis=-1)
        mse = np.mean((beta[..., None] * g - p) ** 2, axis=-1)
    return beta, np.where(np.isfinite(mse), mse, np.inf)


def four_point_fit(probs, base, max_iter, x_tol, f_tol, f_tol_abs):
    """A lockstep Nelder-Mead fit over (gamma, delta) from the Benford point
    (0, 1), beta projected out, that evaluates all four trial points of every
    active row on every iteration (reflection, expansion, outside and inside
    contraction) and then keeps the one the row's rule picks (Nelder & Mead
    1965; Lagarias et al. 1998); infeasible points evaluate to +inf. A row
    stops when its simplex diameter is at most x_tol or its f-spread at most
    f_tol * f_best + f_tol_abs, or after max_iter iterations, and reports the
    curve beta * g at its best vertex: the tight reference of the fit."""
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    n_prob = probs.shape[0]
    ln_digits = np.log(np.arange(1, base, dtype=np.float64))
    ln_base = math.log(base)
    steps = np.array([1.0, 2.0, 0.5, -0.5])

    x0 = np.array([0.0, 1.0])
    sim0 = np.tile(x0, (3, 1))
    for i in range(2):
        sim0[i + 1, i] = x0[i] * 1.05 if x0[i] != 0.0 else 0.00025
    sim = np.tile(sim0, (n_prob, 1, 1))
    fv = four_point_projected(sim, probs, ln_digits, ln_base)[1]

    curves = np.empty((n_prob, base - 1))
    residual = np.empty(n_prob)
    converged = np.zeros(n_prob, dtype=bool)
    active = np.arange(n_prob)

    for iteration in range(max_iter + 1):
        order = np.argsort(fv, axis=1, kind="stable")
        by_row = np.arange(active.size)[:, None]
        sim, fv = sim[by_row, order], fv[by_row, order]

        diam = np.max(np.abs(sim[:, 1:, :] - sim[:, :1, :]), axis=(1, 2))
        spread = fv[:, 2] - fv[:, 0]
        done = (diam <= x_tol) | (spread <= f_tol * fv[:, 0] + f_tol_abs)
        finished = done if iteration < max_iter else np.ones(active.size, dtype=bool)
        if finished.any():
            idx = active[finished]
            beta = four_point_projected(sim[finished, :1, :], probs[finished],
                                        ln_digits, ln_base)[0]
            curves[idx] = beta * four_point_shape(sim[finished, 0, :], ln_digits, ln_base)
            residual[idx] = fv[finished, 0]
            converged[idx] = done[finished]
            keep = ~finished
            sim, fv, probs, active = sim[keep], fv[keep], probs[keep], active[keep]
        if active.size == 0:
            break

        centroid = sim[:, :2, :].mean(axis=1)
        trial = centroid[:, None, :] + steps[:, None] * (centroid - sim[:, 2, :])[:, None, :]
        ft = four_point_projected(trial, probs, ln_digits, ln_base)[1]
        fr, fe, f_out, f_in = ft.T
        f_best, f_second, f_worst = fv.T
        # -1 marks a rejected contraction, which shrinks the simplex
        pick = np.where(
            fr < f_best, np.where(fe < fr, 1, 0),
            np.where(fr < f_second, 0,
                     np.where(fr < f_worst, np.where(f_out <= fr, 2, -1),
                              np.where(f_in < f_worst, 3, -1))))
        shrink = pick < 0
        pick = np.maximum(pick, 0)
        rows = np.arange(active.size)
        sim[:, 2, :] = np.where(shrink[:, None], sim[:, 2, :], trial[rows, pick])
        fv[:, 2] = np.where(shrink, f_worst, ft[rows, pick])
        if shrink.any():
            s = np.nonzero(shrink)[0]
            sim[s, 1:, :] = sim[s, :1, :] + 0.5 * (sim[s, 1:, :] - sim[s, :1, :])
            fv[s, 1:] = four_point_projected(sim[s, 1:, :], probs[s], ln_digits, ln_base)[1]

    return curves, residual, converged


def stacked_shape(points, ln_digits, ln_base):
    """Shape g at (B, 2) points (s, delta) and its (B, 2, D) derivatives in s
    and delta, built together at every point: the evaluator the search used
    before it built derivatives only where a step is taken."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        power = np.exp(points[:, 1:] * ln_digits)
        least = np.where(power[:, -1:] < 1.0, power[:, -1:], 1.0)
        scale = np.exp(points[:, :1])
        x = power - least
        x += scale
        g = np.log1p(np.reciprocal(x))
        g /= ln_base
        dg_dx = x + 1.0
        dg_dx *= x
        dg_dx *= -ln_base
        np.reciprocal(dg_dx, out=dg_dx)
        dx_ddelta = power * ln_digits
        dx_ddelta -= np.where(least < 1.0, least * ln_digits[-1], 0.0)
        dg = np.stack([dg_dx * scale, dg_dx * dx_ddelta], axis=1)
    return g, dg


def stacked_projection(probs, g):
    """(beta, r = beta g - p, sum of squares of r) of (B, D) shapes g."""
    beta = np.add.reduce(probs * g, -1)
    beta /= np.add.reduce(g * g, -1)
    r = beta[:, None] * g
    r -= probs
    return beta, r, np.add.reduce(r * r, -1)


def stacked_lm_fit(probs, base, max_iter, moved=None):
    """The Levenberg-Marquardt search with stacked derivatives, written as it
    was before each step re-formed only what moved: every step re-forms the
    Jacobian and normal equations of every active row and evaluates the
    trial's shape and derivatives at every row. The oracle of `_lm_batch`,
    which has to match it bit for bit. If `moved` is a list, each step
    appends to it the number of rows that take the step and stay."""
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    n_prob = probs.shape[0]
    ln_digits = np.log(np.arange(1, base, dtype=np.float64))
    ln_base = math.log(base)
    point = np.tile(fd.FIT_START, (n_prob, 1))
    g, dg = stacked_shape(point, ln_digits, ln_base)
    rows = probs
    beta, r, sse = stacked_projection(rows, g)
    damping = np.full(n_prob, 1e-3)
    sse_floor = 1e-30 * np.add.reduce(rows * rows, -1)
    curves = np.empty_like(probs)
    converged = np.zeros(n_prob, dtype=bool)
    active = np.arange(n_prob)

    for _ in range(max_iter):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = np.add.reduce(dg * r[:, None], -1)
            c += beta[:, None] * np.add.reduce(dg * g[:, None], -1)
            c /= -np.add.reduce(g * g, -1)[:, None]
            jac = beta[:, None, None] * dg
            jac += c[..., None] * g[:, None]
            a_ss = np.add.reduce(jac[:, 0] * jac[:, 0], -1)
            a_sd = np.add.reduce(jac[:, 0] * jac[:, 1], -1)
            a_dd = np.add.reduce(jac[:, 1] * jac[:, 1], -1)
            grad = np.add.reduce(jac * r[:, None], -1)
            a_ss *= 1.0 + damping
            a_dd *= 1.0 + damping
            det = a_ss * a_dd - a_sd * a_sd
            step = np.stack([a_sd * grad[:, 1] - a_dd * grad[:, 0],
                             a_sd * grad[:, 0] - a_ss * grad[:, 1]], axis=1)
            step /= det[:, None]
            trial = point + step
            trial_g, trial_dg = stacked_shape(trial, ln_digits, ln_base)
            trial_beta, trial_r, trial_sse = stacked_projection(rows, trial_g)
        accept = trial_sse < sse
        done = np.where(accept, sse - trial_sse <= 1e-8 * sse + sse_floor, damping >= 1e12)
        if moved is not None:
            moved.append(int(np.count_nonzero(accept & ~done)))
        point[accept], g[accept], dg[accept] = trial[accept], trial_g[accept], trial_dg[accept]
        beta[accept], r[accept] = trial_beta[accept], trial_r[accept]
        sse[accept] = trial_sse[accept]
        damping = np.where(accept, damping / 3.0, damping * 4.0)
        if np.count_nonzero(done):
            idx = active[done]
            curves[idx] = beta[done, None] * g[done]
            converged[idx] = True
            stay = ~done
            point, g, dg, beta, r, sse, damping, rows, sse_floor, active = (
                a[stay] for a in (point, g, dg, beta, r, sse, damping, rows, sse_floor, active))
            if active.size == 0:
                break
    curves[active] = beta[:, None] * g
    return curves, fd._mse_batch(curves, probs), converged


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def pmf_rows(draw, base):
    """One base-`base` digit pmf: arbitrary, one-hot, uniform, on two digits,
    or with tied weights."""
    n = base - 1
    kind = draw(st.sampled_from(("any", "one-hot", "uniform", "two-digit", "tied")))
    if kind == "one-hot":
        weights = [0.0] * n
        weights[draw(st.integers(0, n - 1))] = 1.0
    elif kind == "uniform":
        weights = [1.0] * n
    elif kind == "two-digit":
        weights = [0.0] * n
        first, second = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
        weights[first], weights[second] = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    elif kind == "tied":
        weights = draw(st.lists(st.sampled_from((0.0, 1.0, 2.0)), min_size=n, max_size=n)
                       .filter(lambda w: sum(w) > 0.0))
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
                       .filter(lambda w: sum(w) > 0.0))
    return np.array(weights) / sum(weights)


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
        # gamma + d^delta <= 0 has no point in (s, delta): there
        # gamma + d^delta = e^s + d^delta - min_d d^delta, which is > 0, so
        # the shape and its derivatives are finite, and the shape > 0, from
        # gamma = -min_d d^delta + 1e-300 to gamma = 1e300, at any delta
        ln_digits = np.log(np.arange(1, 10, dtype=float))
        points = np.array([(s, delta) for s in (-690.0, -40.0, 0.0, 40.0, 690.0)
                           for delta in (-60.0, -1.0, 0.0, 1.0, 60.0)])
        g, parts = fd._shape_batch(points, ln_digits, math.log(10))
        dg = fd._derivatives_batch(parts, ln_digits, math.log(10))
        assert np.all(np.isfinite(g) & (g > 0.0)) and np.isfinite(dg).all()
        # the start (0, 1) is the Benford point gamma = 0
        assert projected_mse(np.array([fd.FIT_START]), benford_probs(), 10)[0] < 1e-20

    @pytest.mark.parametrize("base", [3, 10, 20])
    def test_evaluator_matches_power_oracle(self, base):
        # beta * exp(delta * ln d) against beta * d ** delta, at gammas down to
        # just above the feasibility bound -min_d d^delta
        d = np.arange(1, base, dtype=float)
        for delta in (-3.0, 0.0, 0.5, 1.0, 7.0):
            bound = np.min(d ** delta)
            for gamma in (-0.99 * bound, -0.5 * bound, 0.0, 0.3, 5.0, 1e4):
                for beta in (0.5, 1.0, 1.7):
                    got = curve(base, beta, gamma, delta)
                    want = benford_probs(base, beta, gamma, delta)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("base", [3, 10, 20])
    def test_derivatives_match_central_differences(self, base):
        ln_digits = np.log(np.arange(1, base, dtype=float))
        points = np.array([(s, delta) for s in (-3.0, 0.0, 2.0)
                           for delta in (-2.0, -0.5, 0.5, 1.0, 3.0)])
        _, parts = fd._shape_batch(points, ln_digits, math.log(base))
        dg = fd._derivatives_batch(parts, ln_digits, math.log(base))
        for k in range(2):
            h = np.zeros(2)
            h[k] = 1e-6
            ahead = fd._shape_batch(points + h, ln_digits, math.log(base))[0]
            behind = fd._shape_batch(points - h, ln_digits, math.log(base))[0]
            np.testing.assert_allclose(dg[k], (ahead - behind) / 2e-6, rtol=1e-6, atol=1e-9)


class TestFitBenford:
    def test_exact_benford_fixed_point(self):
        fit = fd.fit_benford(benford_probs(), 10)
        assert fit.converged
        assert fit.residual_mse < 1e-10
        fitted = fit.curve
        assert np.allclose(fitted, benford_probs(), atol=1e-5)

    def test_generate_then_fit_recovers_curve(self):
        probs = benford_probs(10, 1.05, 0.2, 0.9)
        probs = probs / probs.sum()
        fit = fd.fit_benford(probs, 10)
        assert fit.converged
        assert fit.residual_mse < 1e-6

    def test_members_fit_exactly_and_two_peaks_do_not(self):
        # the Benford pmf and the uniform pmf (delta -> 0) are both in the
        # curve family, so both fit down to rounding; a pmf with half its mass
        # on digit 2 and half on digit 8 is not monotone and stays far off
        benford_fit = fd.fit_benford(benford_probs(), 10)
        uniform_fit = fd.fit_benford(np.full(9, 1.0 / 9.0), 10)
        assert uniform_fit.converged
        assert benford_fit.residual_mse <= 1e-30 and uniform_fit.residual_mse <= 1e-30
        two_peaks = np.zeros(9)
        two_peaks[[1, 7]] = 0.5
        assert fd.fit_benford(two_peaks, 10).residual_mse >= 1e-3

    def test_returned_params_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(9))
            fit = fd.fit_benford(probs, 10)
            assert np.all(np.isfinite(fit.curve) & (fit.curve >= 0))

    @pytest.mark.parametrize("base", [10, 20])
    def test_spike_at_digit_one_converges(self, base):
        # the family reaches a one-digit pmf at digit 1 only as delta -> inf
        probs = np.zeros(base - 1)
        probs[0] = 1.0
        fit = fd.fit_benford(probs, base)
        assert fit.converged
        assert fd.divergences(probs, fit).js < 1e-6

    @pytest.mark.parametrize("base", [10, 20])
    def test_dirichlet_pmfs_converge(self, base):
        rng = np.random.default_rng(13)
        probs = np.vstack([rng.dirichlet(np.full(base - 1, c), size=200)
                           for c in (0.1, 0.5, 1.0, 5.0)])
        params, residual, converged = fd.fit_benford_batch(probs, base)
        assert np.mean(converged) >= 0.95
        for i in range(0, len(probs), 97):
            alone = fd.fit_benford_batch(probs[i:i + 1], base)
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
        assert np.isfinite(fit.residual_mse)
        assert np.all(np.isfinite(fit.curve) & (fit.curve >= 0))
        benford_mse = np.mean((benford_probs(base) - probs) ** 2)
        assert fit.residual_mse <= benford_mse + 1e-15
        # the residual is the mse of the reported curve
        assert fd.divergences(probs, fit).mse == fit.residual_mse

    def test_batch_composition_is_irrelevant(self):
        rng = np.random.default_rng(5)
        pmfs = rng.dirichlet(np.ones(9), size=8)
        together = fd.fit_benford_batch(pmfs, 10)
        for i in range(len(pmfs)):
            alone = fd.fit_benford_batch(pmfs[i:i + 1], 10)
            assert np.array_equal(alone[0][0], together[0][i])
            assert alone[1][0] == together[1][i]
            assert alone[2][0] == together[2][i]


@pytest.fixture(scope="module")
def clip_pmfs():
    """Per base, the cell pmfs of full-view MFCCs of FIR-noise clips."""
    config = fd.FdConfig()
    pmfs = [[] for _ in config.bases]
    for n_coeffs, seed in ((8, 31), (32, 32), (128, 33)):
        buffer = peak_normalize(AudioBuffer(make_filtered_clip(n_coeffs, seed).samples,
                                            16000, f"clip{seed}"))
        matrix = mfcc(buffer, CepstralConfig())
        for b, probs in enumerate(fd.cell_pmfs(matrix, config)):
            pmfs[b].append(probs)
    return {base: np.concatenate(p) for base, p in zip(config.bases, pmfs)}


def bounded_lsq_mse(columns, probs):
    """mse of the least-squares fit of probs by a non-negative combination of
    the non-zero (D,) columns."""
    design = np.column_stack([c for c in columns if c.any()])
    fit = lsq_linear(design, probs, bounds=(0.0, np.inf), method="bvls")
    return np.mean((design @ fit.x - probs) ** 2)


def least_squares_mse(probs, base):
    """mse of MINPACK's Levenberg-Marquardt fit (scipy) of all three
    parameters, beta * log_b(1 + 1/(e^s + d^delta - min_d d^delta)) with
    d ** delta, from the Benford point (1, 0, 1) with tight tolerances."""
    d = np.arange(1, base, dtype=float)

    def residual(x):
        beta, s, delta = x
        power = d ** delta
        return beta * np.log1p(1.0 / (np.exp(s) + power - power.min())) / math.log(base) - probs

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        fit = least_squares(residual, (1.0, 0.0, 1.0), method="lm", xtol=1e-15, ftol=1e-15,
                            gtol=1e-15, max_nfev=20000)
    return np.mean(fit.fun ** 2)


def step_oracle(probs):
    """Least mse over every step, by brute force: for each transition digit k
    a falling step (h on digits before k, t at k with 0 <= t <= h, zero
    after), written as h = u + t with u, t >= 0, and for each end digit a
    level t >= 0 there over a level h >= 0 on every other digit."""
    digits = np.arange(probs.size)
    candidates = []
    for k in digits:
        plateau = (digits < k).astype(float)
        candidates.append([plateau, plateau + (digits == k)])
    for end in (0, probs.size - 1):
        at = (digits == end).astype(float)
        candidates.append([1.0 - at, at])
    return min(bounded_lsq_mse(c, probs) for c in candidates)


def ramp_oracle(probs):
    """Least mse over a * ln(min(d, c)) with a >= 0 and c >= 1, by brute
    force: for c in [k, k+1] the ramp is a non-negative combination of the
    rays at knees k and k+1."""
    d = np.arange(1, probs.size + 1)
    rays = [np.log(np.minimum(d, k)) for k in d]
    return min(bounded_lsq_mse(rays[k:k + 2], probs) for k in range(probs.size))


class TestLimitCurves:
    """The fit also weighs the curves the family approaches without reaching
    them, steps and log ramps, each in closed form."""

    def test_match_bounded_least_squares_on_clip_pmfs(self, clip_pmfs):
        for base, probs in clip_pmfs.items():
            probs = probs[::3]
            _, step = fd._step_batch(probs)
            _, ramp = fd._ramp_batch(probs)
            np.testing.assert_allclose(step, [step_oracle(p) for p in probs], rtol=1e-12)
            np.testing.assert_allclose(ramp, [ramp_oracle(p) for p in probs], rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([3, 10, 20]).flatmap(
        lambda base: st.lists(pmf_rows(base), min_size=1, max_size=4)))
    def test_match_bounded_least_squares(self, rows):
        probs = np.vstack(rows)
        for limit, oracle in ((fd._step_batch, step_oracle), (fd._ramp_batch, ramp_oracle)):
            curves, residual = limit(probs)
            # the residual is the mse of the reported curve, which is >= 0
            assert residual.tobytes() == np.mean((probs - curves) ** 2, axis=1).tobytes()
            assert np.all(curves >= 0.0)
            np.testing.assert_allclose(residual, [oracle(p) for p in probs],
                                       rtol=1e-12, atol=1e-30)

    @pytest.mark.parametrize("base", [10, 20])
    def test_limits_are_approached_by_the_family(self, base):
        # a falling step with its transition at k = 4 and t = h/2, and a ramp
        # with its knee at c = 4.5: the projected mse of the family at
        # (gamma, delta) = (k^a, a) and (c^-a, -a) falls towards 0 as a grows;
        # in (s, delta) these are s = ln(k^a + 1) and s = ln(c^-a + D^-a)
        d = np.arange(1, base, dtype=float)
        step = np.where(d < 4, 1.0, np.where(d == 4, 0.5, 0.0))
        ramp = np.log(np.minimum(d, 4.5))
        for target, point in ((step, lambda a: (np.logaddexp(a * math.log(4.0), 0.0), a)),
                              (ramp, lambda a: (np.logaddexp(-a * math.log(4.5),
                                                             -a * math.log(base - 1)), -a))):
            probs = target / target.sum()
            mse = projected_mse(np.array([point(a) for a in (10.0, 40.0, 160.0)]), probs, base)
            assert mse[0] > mse[1] > mse[2]
            assert mse[2] < 1e-3 * np.mean(probs ** 2)
            limit = min(fd._step_batch(probs[None])[1][0], fd._ramp_batch(probs[None])[1][0])
            assert limit < 1e-30

    @pytest.mark.parametrize("base", [3, 10, 20])
    def test_closure_pmfs_fit_exactly(self, base):
        # one-hot at the first or last digit, and any falling pmf on the first
        # two digits, are steps: they end at residual 0 with finite divergences
        n = base - 1
        probs = np.zeros((4, n))
        probs[0, 0] = probs[1, -1] = 1.0
        probs[2, :2] = (0.6, 0.4)
        probs[3, :2] = (0.5, 0.5)
        curves, residual, converged = fd.fit_benford_batch(probs, base)
        assert np.all(residual == 0.0) and converged.all()
        divs, _ = fd.fitted_divergences(probs, base, 0.3, 1e-10)
        assert np.isfinite(divs).all()
        assert np.all(divs[:, 0] < 1e-12) and np.all(divs[:, 3] == 0.0)

    @pytest.mark.parametrize("base", [10, 20])
    def test_fit_is_no_worse_than_any_part(self, clip_pmfs, base):
        probs = clip_pmfs[base]
        _, residual, converged = fd.fit_benford_batch(probs, base)
        _, search, stopped = fd._lm_batch(probs, base, fd.FIT_MAX_ITER)
        _, step = fd._step_batch(probs)
        _, ramp = fd._ramp_batch(probs)
        assert np.all(residual <= search)
        assert np.all(residual <= step) and np.all(residual <= ramp)
        # a fit counts as converged where the search stopped on its own test
        # or a limit curve is the one reported
        limit = (residual == step) | (residual == ramp)
        assert np.array_equal(converged, stopped | (limit & (residual < search)))

    @pytest.mark.parametrize("base", [10, 20])
    def test_interior_cells_match_scipy_least_squares(self, clip_pmfs, base):
        # on a sample of the cells where no limit wins, the fit ends within 1%
        # of an independent three-parameter least-squares fit
        probs = clip_pmfs[base]
        _, residual, _ = fd.fit_benford_batch(probs, base)
        limit = np.minimum(fd._step_batch(probs)[1], fd._ramp_batch(probs)[1])
        interior = np.nonzero(residual < limit)[0]
        assert interior.size >= len(probs) // 5
        for i in interior[::3]:
            assert residual[i] <= 1.01 * least_squares_mse(probs[i], base), i

    @pytest.mark.parametrize("base", [10, 20])
    def test_one_row_equals_batch_where_a_limit_wins(self, clip_pmfs, base):
        probs = clip_pmfs[base]
        curves, residual, converged = fd.fit_benford_batch(probs, base)
        _, step = fd._step_batch(probs)
        _, ramp = fd._ramp_batch(probs)
        rows = np.nonzero((residual == step) | (residual == ramp))[0]
        assert rows.size >= len(probs) // 5
        for i in rows:
            alone = fd.fit_benford_batch(probs[i:i + 1], base)
            assert alone[0][0].tobytes() == curves[i].tobytes()
            assert alone[1][0] == residual[i] and alone[2][0] == converged[i]

    @pytest.mark.parametrize("base", [10, 20])
    def test_few_cells_end_above_the_tight_reference(self, clip_pmfs, base):
        # the reference is a Nelder-Mead with only a 1e-10 diameter stop and a
        # 6000-iteration cap
        probs = clip_pmfs[base]
        _, residual, _ = fd.fit_benford_batch(probs, base)
        tight = four_point_fit(probs, base, 6000, x_tol=1e-10, f_tol=0.0, f_tol_abs=0.0)[1]
        above = residual > 1.01 * np.minimum(residual, tight)
        assert np.mean(above) <= 0.10, np.mean(above)

    def test_loop_stops_at_the_cap(self, monkeypatch):
        # the second row's shape moves closer to its pmf on every evaluation,
        # so each step lowers its sum of squares by ~19% and its search never
        # stops on its own; the Benford row's does. The second pmf is not
        # monotone, so no step or ramp replaces the capped curve
        probs = np.vstack([benford_probs(), np.array([3, 1, 2, 1, 2, 1, 2, 1, 2]) / 15.0])
        away = np.resize([1.0, -1.0], 9)
        away -= away @ probs[1] / (probs[1] @ probs[1]) * probs[1]
        shape = fd._shape_batch
        calls = []

        def endless(points, ln_digits, ln_base):
            g, parts = shape(points, ln_digits, ln_base)
            # the second row is the batch's last while it is active
            g[-1] = probs[1] + 0.05 * 0.9 ** len(calls) * away
            calls.append(len(points))
            return g, parts

        monkeypatch.setattr(fd, "_shape_batch", endless)
        _, _, converged = fd.fit_benford_batch(probs, 10)
        # one evaluation of the start, then one a step: the endless row ran
        # exactly FIT_MAX_ITER steps, and the Benford row left the batch first
        assert len(calls) == 1 + fd.FIT_MAX_ITER
        assert calls[0] == 2 and calls[-1] == 1
        assert converged.tolist() == [True, False]


@pytest.fixture(scope="module")
def silence_pmfs():
    """Per base, the cell pmfs of silence-view MFCCs of FIR-noise clips with
    quiet gaps, at the hop `extract` uses for that view."""
    config = fd.FdConfig()
    pmfs = [[] for _ in config.bases]
    for n_coeffs, seed in ((8, 41), (32, 42), (128, 43)):
        clip = make_filtered_clip(n_coeffs, seed).samples
        quiet = 1e-3 * make_filtered_clip(n_coeffs, seed + 10, n_samples=6000).samples
        buffer = peak_normalize(AudioBuffer(np.concatenate([clip, quiet, clip, quiet, clip]),
                                            16000, f"clip{seed}"))
        view = segmentation.segment(buffer, EnergyConfig())[1]
        assert view.kind is SegmentKind.SILENCE
        matrix = mfcc(segmentation.extract(buffer, view),
                      asvspoof.view_config(view.kind, CepstralConfig()))
        for b, probs in enumerate(fd.cell_pmfs(matrix, config)):
            pmfs[b].append(probs)
    return {base: np.concatenate(p) for base, p in zip(config.bases, pmfs)}


class TestSearchOracle:
    """`_lm_batch` re-forms the normal equations only where the point moved
    and builds derivatives only where a step is taken; every output bit
    matches the search that re-forms everything on every step."""

    @pytest.mark.parametrize("max_iter", [0, 1, 5, 60])
    @pytest.mark.parametrize("base", [10, 20])
    def test_clip_pmfs_match_the_stacked_search(self, clip_pmfs, silence_pmfs, base, max_iter):
        for probs in (clip_pmfs[base], silence_pmfs[base]):
            assert_same_bits(fd._lm_batch(probs, base, max_iter),
                             stacked_lm_fit(probs, base, max_iter))
            for i in range(0, len(probs), 5):
                row = probs[i:i + 1]
                assert_same_bits(fd._lm_batch(row, base, max_iter),
                                 stacked_lm_fit(row, base, max_iter))

    @pytest.mark.parametrize("base", [2, 3, 10, 20])
    def test_degenerate_pmfs_match_the_stacked_search(self, base):
        n = base - 1
        one_hot = np.eye(n)
        uniform = np.full((1, n), 1.0 / n)
        two_digit = np.zeros((3, n))
        two_digit[0, [0, -1]] = (0.7, 0.3)
        two_digit[1, [n // 2, -1]] = (0.5, 0.5)
        two_digit[2, [0, n // 2]] = (0.2, 0.8)
        tied = np.tile(np.resize([2.0, 0.0, 1.0], n), (2, 1))
        tied[1] = np.resize([1.0, 1.0, 0.0, 0.0], n)
        tied = tied[tied.sum(axis=1) > 0.0]
        tied /= tied.sum(axis=1, keepdims=True)
        probs = np.vstack([one_hot, uniform, two_digit, tied])
        for max_iter in (0, 1, 5, 60):
            assert_same_bits(fd._lm_batch(probs, base, max_iter),
                             stacked_lm_fit(probs, base, max_iter))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 10, 20]).flatmap(
        # base 2 has one digit, so its only pmf is (1,)
        lambda base: st.tuples(st.just(base),
                               st.lists(pmf_rows(base) if base > 2 else st.just(np.ones(1)),
                                        min_size=1, max_size=6),
                               st.sampled_from([0, 1, 5, 60]))))
    def test_batches_match_the_stacked_search(self, case):
        base, rows, max_iter = case
        probs = np.vstack(rows)
        assert_same_bits(fd._lm_batch(probs, base, max_iter),
                         stacked_lm_fit(probs, base, max_iter))

    @pytest.mark.parametrize("base", [10, 20])
    def test_derivatives_only_where_a_step_is_taken(self, clip_pmfs, base, monkeypatch):
        # once for every row at the start, then on each step once for every
        # row that takes it and stays in the batch, never for a refused step
        probs = clip_pmfs[base]
        moved = []
        stacked_lm_fit(probs, base, fd.FIT_MAX_ITER, moved)
        derivatives = fd._derivatives_batch
        calls = []

        def counted(parts, ln_digits, ln_base):
            calls.append(len(parts[0]))
            return derivatives(parts, ln_digits, ln_base)

        monkeypatch.setattr(fd, "_derivatives_batch", counted)
        fd._lm_batch(probs, base, fd.FIT_MAX_ITER)
        assert calls == [len(probs)] + [n for n in moved if n]


class TestDivergences:
    def test_identity_of_indiscernibles(self):
        fit = fd.BenfordFit(curve(10, 1.0, 0.0, 1.0), 0.0, True)
        ds = fd.divergences(benford_probs(), fit)
        assert abs(ds.js) < 1e-12
        assert abs(ds.renyi) < 1e-12
        assert abs(ds.tsallis) < 1e-12
        assert abs(ds.mse) < 1e-12

    def test_base3_worked_example(self):
        # p = (0.5, 0.5) against the classic base-3 Benford curve
        fit = fd.BenfordFit(curve(3, 1.0, 0.0, 1.0), 0.0, True)
        ds = fd.divergences(np.array([0.5, 0.5]), fit)
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
        fit = fd.BenfordFit(curve(3, beta, 0.0, 0.0), 0.0, True)
        assert fd.divergences(np.array([0.6, 0.4]), fit).mse == pytest.approx(0.01, rel=1e-9)

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

    @pytest.mark.parametrize("base", [10, 20])
    def test_mse_column_is_the_fit_residual(self, clip_pmfs, silence_pmfs, base):
        for probs in (clip_pmfs[base], silence_pmfs[base]):
            divs, _ = fd.fitted_divergences(probs, base, 0.3, 1e-10)
            _, residual, _ = fd.fit_benford_batch(probs, base)
            assert divs[:, 3].tobytes() == residual.tobytes()

    def test_package_matches_oracle_on_fitted_curve(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(9))
        fit = fd.fit_benford(probs, 10)
        q = fit.curve
        want = oracle_divergences(list(probs), list(q))
        got = fd.divergences(probs, fit)
        assert got.js == pytest.approx(want[0], rel=1e-9)
        assert got.renyi == pytest.approx(want[1], rel=1e-6, abs=1e-12)
        assert got.tsallis == pytest.approx(want[2], rel=1e-6, abs=1e-12)
        assert got.mse == pytest.approx(want[3], rel=1e-9)


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
