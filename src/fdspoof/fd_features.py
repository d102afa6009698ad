"""First-digit divergence features of quantized MFCC coefficients.

For every (frequency, base, quantization step) cell: quantize the coefficient
column, extract first digits of the non-zero values, build a digit pmf, fit the
three-parameter generalized Benford curve beta*log_b(1 + 1/(gamma + d^delta)),
and emit four divergences between the empirical pmf and the fitted curve
(symmetrized KL, Renyi, Tsallis, mean square error).

The curve fit is a standard Nelder-Mead simplex descent started at the exact
Benford point (1, 0, 1), capped at 2000 iterations, declared converged when the
simplex diameter drops below 1e-9. Steps that would violate gamma + d^delta > 0
evaluate to +inf and are therefore never accepted. A non-convergent fit keeps
the initial point and is flagged instead of aborting the record. The fitter
runs many cells in lockstep as one vectorized batch; per-problem arithmetic is
row-independent, so batch composition cannot change any result.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .cepstral import CepstralMatrix
from .exceptions import DomainError, InsufficientDigits, SettingError, ZeroValue

DIVERGENCE_NAMES = ("js", "renyi", "tsallis", "mse")

FIT_INITIAL_POINT = (1.0, 0.0, 1.0)
FIT_MAX_ITER = 2000
FIT_DIAMETER_TOL = 1e-9


@dataclass(frozen=True)
class FdConfig:
    bases: tuple[int, ...] = (10, 20)
    deltas: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    alpha: float = 0.3
    epsilon: float = 1e-10
    min_digits: int = 10

    def __post_init__(self) -> None:
        if any(b < 2 for b in self.bases):
            raise SettingError("every base must be >= 2")
        if any(d <= 0 for d in self.deltas):
            raise SettingError("every quantization step must be > 0")
        if not (0.0 < self.alpha < 1.0):
            raise SettingError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class DigitPmf:
    base: int
    probabilities: np.ndarray  # indexed d = 1..base-1
    count: int


@dataclass(frozen=True)
class BenfordFit:
    beta: float
    gamma: float
    delta_exp: float
    residual_mse: float
    converged: bool


@dataclass(frozen=True)
class DivergenceSet:
    js: float
    renyi: float
    tsallis: float
    mse: float


@dataclass(frozen=True)
class FeatureDescriptor:
    divergence: str
    frequency: int
    base: int
    delta: float

    @property
    def name(self) -> str:
        return f"{self.divergence}_f{self.frequency}_b{self.base}_d{self.delta:g}"


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    layout: tuple[FeatureDescriptor, ...]


# ---------------------------------------------------------------------------
# digits and pmfs
# ---------------------------------------------------------------------------

def quantize(m, delta: float):
    """Rescale a coefficient (or array) by the quantization step; no rounding."""
    if delta <= 0:
        raise ValueError("delta must be > 0")
    return m / delta


def _first_digits(magnitudes: np.ndarray, base: int) -> np.ndarray:
    """First base-b digits of strictly positive magnitudes."""
    if base == 10:
        exponents = np.floor(np.log10(magnitudes))
    else:
        exponents = np.floor(np.log(magnitudes) / math.log(base))
    mantissa = magnitudes / np.power(float(base), exponents)
    # floating-point log/floor can land one step off near decade boundaries
    for _ in range(3):
        high = mantissa >= base
        low = mantissa < 1.0
        if not (high.any() or low.any()):
            break
        mantissa[high] /= base
        mantissa[low] *= base
    return np.floor(mantissa).astype(np.int64)


def first_digit(x: float, base: int) -> int:
    """First digit of |x| in base b, i.e. floor(|x| / b^floor(log_b |x|))."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if x == 0:
        raise ZeroValue("first digit of zero is undefined")
    return int(_first_digits(np.array([abs(float(x))]), base)[0])


def digit_pmf(values, delta: float, base: int, min_digits: int = 10) -> DigitPmf:
    """Digit pmf of the quantized non-zero values of one coefficient column."""
    quantized = quantize(np.asarray(values, dtype=np.float64), delta)
    nonzero = quantized[quantized != 0.0]
    if nonzero.size < min_digits:
        raise InsufficientDigits(
            f"{nonzero.size} non-zero values < required {min_digits} (base={base}, delta={delta:g})"
        )
    digits = _first_digits(np.abs(nonzero), base)
    counts = np.bincount(digits, minlength=base)[1:base]
    return DigitPmf(base=base, probabilities=counts / nonzero.size, count=int(nonzero.size))


# ---------------------------------------------------------------------------
# generalized Benford curve and its fit
# ---------------------------------------------------------------------------

def benford_ideal(d, base: int, beta: float, gamma: float, delta_exp: float):
    """beta * log_b(1 + 1/(gamma + d^delta)); DomainError if the denominator
    is not strictly positive."""
    d = np.asarray(d, dtype=np.float64)
    t = gamma + d ** delta_exp
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError(f"gamma + d^delta must be > 0 (gamma={gamma}, delta={delta_exp})")
    out = beta * np.log1p(1.0 / t) / math.log(base)
    return float(out) if out.ndim == 0 else out


def _curve_batch(params: np.ndarray, digits: np.ndarray, ln_base: float) -> np.ndarray:
    """Evaluate the curve for a (B, 3) parameter batch; +inf-safe, (B, D)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = params[:, 1:2] + digits[None, :] ** params[:, 2:3]
        q = params[:, 0:1] * np.log1p(1.0 / t) / ln_base
    return np.where(t > 0.0, q, np.nan)


def _objective_batch(params: np.ndarray, probs: np.ndarray, digits: np.ndarray,
                     ln_base: float) -> np.ndarray:
    """Mean squared error of the curve per problem; +inf where it is not finite,
    which includes every problem with gamma + d^delta <= 0 at some digit."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.mean((_curve_batch(params, digits, ln_base) - probs) ** 2, axis=1)
    return np.where(np.isfinite(residual), residual, np.inf)


def fit_benford_batch(probs: np.ndarray, base: int,
                      max_iter: int = FIT_MAX_ITER,
                      diam_tol: float = FIT_DIAMETER_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nelder-Mead fit of each row of a (B, base-1) pmf matrix.

    Returns (params (B,3), residual (B,), converged (B,)). Problems that do not
    converge within the iteration cap report the initial point (1, 0, 1) and
    its residual, flagged converged=False.
    """
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = probs[None, :]
    n_prob = probs.shape[0]
    digits = np.arange(1, base, dtype=np.float64)
    ln_base = math.log(base)

    x0 = np.array(FIT_INITIAL_POINT)
    # scipy-style initial simplex: 5% step per coordinate, 0.00025 where zero
    sim0 = np.tile(x0, (4, 1))
    for i in range(3):
        sim0[i + 1, i] = x0[i] * 1.05 if x0[i] != 0.0 else 0.00025

    sim = np.tile(sim0[None, :, :], (n_prob, 1, 1))
    fv = np.stack(
        [_objective_batch(sim[:, v, :], probs, digits, ln_base) for v in range(4)], axis=1
    )

    params = np.tile(x0, (n_prob, 1))
    residual = fv[:, 0].copy()
    converged = np.zeros(n_prob, dtype=bool)
    # sim, fv and probs hold the active problems only, row-aligned with `active`
    active = np.arange(n_prob)

    alpha, gamma_e, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter + 1):
        order = np.argsort(fv, axis=1, kind="stable")
        sim = np.take_along_axis(sim, order[:, :, None], axis=1)
        fv = np.take_along_axis(fv, order, axis=1)

        diam = np.max(np.abs(sim[:, 1:, :] - sim[:, :1, :]), axis=(1, 2))
        done = diam < diam_tol
        if done.any():
            idx = active[done]
            params[idx] = sim[done, 0, :]
            residual[idx] = fv[done, 0]
            converged[idx] = True
            keep = ~done
            sim, fv, probs, active = sim[keep], fv[keep], probs[keep], active[keep]
        if active.size == 0:
            break

        centroid = sim[:, :3, :].mean(axis=1)
        worst = sim[:, 3, :]
        xr = centroid + alpha * (centroid - worst)
        fr = _objective_batch(xr, probs, digits, ln_base)

        f_best, f_second, f_worst = fv[:, 0], fv[:, 2], fv[:, 3]
        new_x = xr.copy()
        new_f = fr.copy()
        shrink = np.zeros(active.size, dtype=bool)

        expand_try = fr < f_best
        if expand_try.any():
            xe = centroid[expand_try] + gamma_e * (xr[expand_try] - centroid[expand_try])
            fe = _objective_batch(xe, probs[expand_try], digits, ln_base)
            better = fe < fr[expand_try]
            rows = np.nonzero(expand_try)[0][better]
            new_x[rows] = xe[better]
            new_f[rows] = fe[better]

        # contract towards the reflected point when it beats the worst vertex
        # (accepted if no worse than it), else towards the worst vertex
        # (accepted if strictly better than it); a rejected contraction shrinks
        rows = np.nonzero(~expand_try & (fr >= f_second))[0]
        if rows.size:
            outside = fr[rows] < f_worst[rows]
            target = np.where(outside[:, None], xr[rows], worst[rows])
            xc = centroid[rows] + rho * (target - centroid[rows])
            fc = _objective_batch(xc, probs[rows], digits, ln_base)
            ok = np.where(outside, fc <= fr[rows], fc < f_worst[rows])
            new_x[rows[ok]] = xc[ok]
            new_f[rows[ok]] = fc[ok]
            shrink[rows[~ok]] = True

        replace = ~shrink
        sim[replace, 3, :] = new_x[replace]
        fv[replace, 3] = new_f[replace]
        if shrink.any():
            rows = np.nonzero(shrink)[0]
            sim[rows, 1:, :] = sim[rows, :1, :] + sigma * (sim[rows, 1:, :] - sim[rows, :1, :])
            for v in (1, 2, 3):
                fv[rows, v] = _objective_batch(sim[rows, v, :], probs[rows], digits, ln_base)

    return params, residual, converged


def fit_benford(pmf: DigitPmf) -> BenfordFit:
    """Fit the generalized Benford curve to one digit pmf."""
    params, residual, converged = fit_benford_batch(pmf.probabilities, pmf.base)
    return BenfordFit(
        beta=float(params[0, 0]),
        gamma=float(params[0, 1]),
        delta_exp=float(params[0, 2]),
        residual_mse=float(residual[0]),
        converged=bool(converged[0]),
    )


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _divergences_batch(probs: np.ndarray, params: np.ndarray, base: int,
                       alpha: float, epsilon: float) -> np.ndarray:
    """(B, 4) array of (js, renyi, tsallis, mse) rows.

    MSE compares the raw pmf against the raw curve; the ratio-based divergences
    floor both sides at epsilon and renormalize first, which keeps S_alpha <= 1
    and hence js, tsallis >= 0.

    renyi is (ln S_pq + ln S_qp) / (1 - alpha), so it is <= 0 and falls as the
    gap grows: it is the negative of the symmetrized Renyi divergence written
    with 1 / (alpha - 1). The paper's abstract does not say which sign its Renyi
    term takes; this pinned formula is kept, so compare renyi by magnitude.
    """
    digits = np.arange(1, base, dtype=np.float64)
    q_raw = _curve_batch(params, digits, math.log(base))
    mse = np.mean((probs - q_raw) ** 2, axis=1)

    p = np.clip(probs, epsilon, None)
    p = p / p.sum(axis=1, keepdims=True)
    q = np.clip(q_raw, epsilon, None)
    q = q / q.sum(axis=1, keepdims=True)

    log_ratio = np.log(p / q)
    js = np.sum(p * log_ratio, axis=1) - np.sum(q * log_ratio, axis=1)

    s_pq = np.sum(p ** alpha * q ** (1.0 - alpha), axis=1)
    s_qp = np.sum(q ** alpha * p ** (1.0 - alpha), axis=1)
    renyi = (np.log(s_pq) + np.log(s_qp)) / (1.0 - alpha)
    tsallis = (2.0 - s_pq - s_qp) / (1.0 - alpha)

    return np.stack([js, renyi, tsallis, mse], axis=1)


def divergences(pmf: DigitPmf, fit: BenfordFit, alpha: float = 0.3,
                epsilon: float = 1e-10) -> DivergenceSet:
    """Divergence set between a digit pmf and its fitted Benford curve."""
    params = np.array([[fit.beta, fit.gamma, fit.delta_exp]])
    row = _divergences_batch(pmf.probabilities[None, :], params, pmf.base, alpha, epsilon)[0]
    return DivergenceSet(js=float(row[0]), renyi=float(row[1]),
                         tsallis=float(row[2]), mse=float(row[3]))


# ---------------------------------------------------------------------------
# layout and assembly
# ---------------------------------------------------------------------------

def feature_layout(config: FdConfig, frequencies) -> tuple[FeatureDescriptor, ...]:
    """Column order: frequency, then base, then delta, then the four divergences."""
    return tuple(
        FeatureDescriptor(name, f, b, float(d))
        for f in frequencies
        for b in config.bases
        for d in config.deltas
        for name in DIVERGENCE_NAMES
    )


def layout_hash(layout) -> str:
    joined = ",".join(desc.name for desc in layout)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def parse_feature_name(name: str) -> FeatureDescriptor:
    try:
        div, f_part, b_part, d_part = name.split("_")
        return FeatureDescriptor(div, int(f_part[1:]), int(b_part[1:]), float(d_part[1:]))
    except ValueError:
        raise ValueError(f"unparsable feature column name {name!r}") from None


def _cell_pmfs(matrix: CepstralMatrix, config: FdConfig) -> list[DigitPmf]:
    """Digit pmfs for every (frequency, base, delta) cell in layout order."""
    pmfs = []
    for f_idx, f in enumerate(matrix.frequencies):
        column = matrix.values[:, f_idx]
        for base in config.bases:
            for delta in config.deltas:
                try:
                    pmfs.append(digit_pmf(column, delta, base, config.min_digits))
                except InsufficientDigits as exc:
                    raise InsufficientDigits(
                        f"cell (f={f}, b={base}, delta={delta:g}): {exc}"
                    ) from None
    return pmfs


def _vectors_from_pmfs(all_pmfs: list[list[DigitPmf]], config: FdConfig) -> np.ndarray:
    """Fit and score every record's cell pmfs; one batched fit per base."""
    n_records = len(all_pmfs)
    if n_records == 0:
        return np.zeros((0, 0))
    n_cells = len(all_pmfs[0])
    n_div = len(DIVERGENCE_NAMES)
    out = np.empty((n_records, n_cells * n_div))
    for base in config.bases:
        cell_idx = [i for i, pmf in enumerate(all_pmfs[0]) if pmf.base == base]
        probs = np.array(
            [rec[i].probabilities for rec in all_pmfs for i in cell_idx]
        )
        params, _, _ = fit_benford_batch(probs, base)
        divs = _divergences_batch(probs, params, base, config.alpha, config.epsilon)
        divs = divs.reshape(n_records, len(cell_idx), n_div)
        for j, i in enumerate(cell_idx):
            out[:, i * n_div : (i + 1) * n_div] = divs[:, j, :]
    return out


def assemble_features(matrix: CepstralMatrix, config: FdConfig = FdConfig()) -> FeatureVector:
    """Full divergence feature vector of one cepstral matrix (416 by default)."""
    pmfs = _cell_pmfs(matrix, config)
    values = _vectors_from_pmfs([pmfs], config)[0]
    return FeatureVector(values=values, layout=feature_layout(config, matrix.frequencies))


def assemble_features_many(
    matrices, config: FdConfig = FdConfig()
) -> tuple[list[FeatureVector | None], list[tuple[int, InsufficientDigits]]]:
    """Feature vectors for many matrices at once, sharing one fit batch.

    Returns a list aligned with the input (None where a record failed) plus the
    per-record failures. Results are bit-identical to per-record assembly.
    """
    collected: list[list[DigitPmf]] = []
    keep: list[int] = []
    failures: list[tuple[int, InsufficientDigits]] = []
    layout = None
    for idx, matrix in enumerate(matrices):
        if layout is None:
            layout = feature_layout(config, matrix.frequencies)
        try:
            collected.append(_cell_pmfs(matrix, config))
            keep.append(idx)
        except InsufficientDigits as exc:
            failures.append((idx, exc))
    results: list[FeatureVector | None] = [None] * (len(keep) + len(failures))
    if collected:
        vectors = _vectors_from_pmfs(collected, config)
        for row, idx in enumerate(keep):
            results[idx] = FeatureVector(values=vectors[row], layout=layout)
    return results, failures
