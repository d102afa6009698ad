"""First-digit divergence features of quantized MFCC coefficients.

For every (frequency, base, quantization step) cell: quantize the coefficient
column, extract first digits of the non-zero values, build a digit pmf, fit the
three-parameter generalized Benford curve beta*log_b(1 + 1/(gamma + d^delta)),
and emit four divergences between the empirical pmf and the fitted curve
(symmetrized KL, Renyi, Tsallis, mean square error).

Records take one path: `cell_pmfs` builds a record's cell pmfs with one
`digit_pmf` call per base, and `assemble_features_many` fits the pmfs of a
batch of records with one `fit_benford_batch` call per base. The curve has one
evaluator, `_shape_batch`, which computes d^delta as exp(delta * ln d); the
fit, its projection and the divergences all use it. `fit_benford(probs, base)`
and `divergences(probs, base, fit)` are single-pmf wrappers over the same
batched code; no feature path calls them.

The curve fit projects beta out (variable projection): beta enters the curve
linearly, so at every (gamma, delta_exp) it takes its least-squares value
<p,g>/<g,g>, where g is the curve's shape log_b(1 + 1/(gamma + d^delta)).
A Nelder-Mead simplex then searches the two remaining parameters, starting at
the Benford point (gamma, delta_exp) = (0, 1). A fit stops when the simplex
diameter is at most 1e-6 or the spread of its three values is at most
1e-6 * f_best + 1e-12. It is capped at 2000 iterations, and it always reports
its best vertex and that vertex's residual; converged=False only means that
the cap was hit. Points that violate gamma + d^delta > 0 evaluate to +inf and
are therefore never accepted. The fitter runs many cells in lockstep as one
vectorized batch; per-problem arithmetic is row-independent, so batch
composition cannot change any result.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .cepstral import CepstralMatrix
from .exceptions import InsufficientDigits, SettingError

DIVERGENCE_NAMES = ("js", "renyi", "tsallis", "mse")

FIT_START = (0.0, 1.0)  # (gamma, delta_exp) of the Benford curve; beta is projected
FIT_MAX_ITER = 2000
FIT_X_TOL = 1e-6  # stop once the simplex diameter is this small ...
FIT_F_TOL = 1e-6  # ... or its f-spread is at most FIT_F_TOL * f_best + FIT_F_TOL_ABS
FIT_F_TOL_ABS = 1e-12


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
        if any(not 0 < d < math.inf for d in self.deltas):
            raise SettingError("every quantization step must be > 0 and finite")
        if len(set(self.bases)) < len(self.bases) or len(set(self.deltas)) < len(self.deltas):
            raise SettingError("bases and quantization steps must not repeat")
        if not (0.0 < self.alpha < 1.0):
            raise SettingError("alpha must lie in (0, 1)")
        if not (0.0 < self.epsilon < math.inf):
            raise SettingError("epsilon must be finite and > 0")
        if self.min_digits < 1:
            raise SettingError("min_digits must be >= 1")


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


# ---------------------------------------------------------------------------
# digits and pmfs
# ---------------------------------------------------------------------------

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


def digit_pmf(columns, deltas, base: int, min_digits: int) -> np.ndarray:
    """(k, len(deltas), base-1) digit pmfs, d = 1..base-1, of the non-zero values
    of each column of an (n, k) matrix divided by each step; InsufficientDigits,
    with `cell` = (column, step), for the first short cell in row-major order.
    SettingError naming the first step that some value divided by it overflows."""
    with np.errstate(over="ignore"):
        quantized = np.asarray(columns, dtype=np.float64)[:, :, None] / np.asarray(deltas)
    overflowed = ~np.isfinite(quantized).all(axis=(0, 1))
    if overflowed.any():
        step = float(deltas[int(np.argmax(overflowed))])
        raise SettingError(f"quantization step {step!r} is too small: "
                           f"a value divided by it is not finite")
    nonzero = quantized != 0.0
    counts = np.count_nonzero(nonzero, axis=0)
    short = np.argwhere(counts < min_digits)
    if short.size:
        column, step = (int(i) for i in short[0])
        raise InsufficientDigits(
            f"{counts[column, step]} non-zero values < required {min_digits} "
            f"(base={base}, delta={deltas[step]:g})",
            cell=(column, step),
        )
    cells = np.broadcast_to(np.arange(counts.size).reshape(counts.shape), quantized.shape)
    digits = _first_digits(np.abs(quantized[nonzero]), base)
    tally = np.bincount(cells[nonzero] * base + digits, minlength=counts.size * base)
    return tally.reshape(*counts.shape, base)[..., 1:] / counts[..., None]


# ---------------------------------------------------------------------------
# generalized Benford curve and its fit
# ---------------------------------------------------------------------------

def _shape_batch(shape: np.ndarray, ln_digits: np.ndarray, ln_base: float) -> np.ndarray:
    """log_b(1 + 1/(gamma + d^delta)) for (..., 2) points (gamma, delta_exp),
    with d^delta = exp(delta * ln d); (..., D), nan where gamma + d^delta <= 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = shape[..., 0:1] + np.exp(shape[..., 1:2] * ln_digits)
        g = np.log1p(1.0 / t) / ln_base
    return np.where(t > 0.0, g, np.nan)


def _curve_batch(params: np.ndarray, ln_digits: np.ndarray, ln_base: float) -> np.ndarray:
    """The curve beta * shape for a (B, 3) parameter batch; (B, D)."""
    return params[:, 0:1] * _shape_batch(params[:, 1:], ln_digits, ln_base)


def _projected_batch(shape: np.ndarray, probs: np.ndarray, ln_digits: np.ndarray,
                     ln_base: float) -> tuple[np.ndarray, np.ndarray]:
    """(beta, mse), each (B, K), for (B, K, 2) shape points against (B, D)
    pmfs: beta = <p,g>/<g,g> is the least-squares scale of the shape g, and
    mse that of beta*g - p, +inf where it is not finite (which includes every
    point with gamma + d^delta <= 0 at some digit)."""
    g = _shape_batch(shape, ln_digits, ln_base)
    p = probs[:, None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta = np.sum(p * g, axis=-1) / np.sum(g * g, axis=-1)
        mse = np.mean((beta[..., None] * g - p) ** 2, axis=-1)
    return beta, np.where(np.isfinite(mse), mse, np.inf)


# Nelder-Mead trial points centroid + c * (centroid - worst): reflection,
# expansion, outside and inside contraction (the standard coefficients)
_TRIAL_STEPS = np.array([1.0, 2.0, 0.5, -0.5])
_SHRINK = 0.5


def fit_benford_batch(probs: np.ndarray, base: int,
                      max_iter: int = FIT_MAX_ITER) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nelder-Mead fit of each row of a (B, base-1) pmf matrix.

    The simplex moves in (gamma, delta_exp) only; beta is projected out in
    closed form at every point. Returns (params (B,3), residual (B,),
    converged (B,)): each row's best vertex with its beta and mse, and
    converged=False where the row hit the iteration cap.
    """
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = probs[None, :]
    n_prob = probs.shape[0]
    ln_digits = np.log(np.arange(1, base, dtype=np.float64))
    ln_base = math.log(base)

    x0 = np.array(FIT_START)
    # scipy-style initial simplex: 5% step per coordinate, 0.00025 where zero
    sim0 = np.tile(x0, (3, 1))
    for i in range(2):
        sim0[i + 1, i] = x0[i] * 1.05 if x0[i] != 0.0 else 0.00025
    sim = np.tile(sim0, (n_prob, 1, 1))
    fv = _projected_batch(sim, probs, ln_digits, ln_base)[1]

    params = np.empty((n_prob, 3))
    residual = np.empty(n_prob)
    converged = np.zeros(n_prob, dtype=bool)
    # sim, fv and probs hold the active problems only, row-aligned with `active`
    active = np.arange(n_prob)

    for iteration in range(max_iter + 1):
        order = np.argsort(fv, axis=1, kind="stable")
        by_row = np.arange(active.size)[:, None]
        sim, fv = sim[by_row, order], fv[by_row, order]

        diam = np.max(np.abs(sim[:, 1:, :] - sim[:, :1, :]), axis=(1, 2))
        spread = fv[:, 2] - fv[:, 0]
        done = (diam <= FIT_X_TOL) | (spread <= FIT_F_TOL * fv[:, 0] + FIT_F_TOL_ABS)
        finished = done if iteration < max_iter else np.ones(active.size, dtype=bool)
        if finished.any():
            idx = active[finished]
            params[idx, 0] = _projected_batch(sim[finished, :1, :], probs[finished],
                                              ln_digits, ln_base)[0][:, 0]
            params[idx, 1:] = sim[finished, 0, :]
            residual[idx] = fv[finished, 0]
            converged[idx] = done[finished]
            keep = ~finished
            sim, fv, probs, active = sim[keep], fv[keep], probs[keep], active[keep]
        if active.size == 0:
            break

        centroid = sim[:, :2, :].mean(axis=1)
        trial = centroid[:, None, :] + _TRIAL_STEPS[:, None] * (centroid - sim[:, 2, :])[:, None, :]
        ft = _projected_batch(trial, probs, ln_digits, ln_base)[1]
        fr, fe, f_out, f_in = ft.T
        f_best, f_second, f_worst = fv.T
        # expand if the reflection beats the best vertex, keep the reflection
        # if it beats the second-worst, else contract: outside when the
        # reflection beats the worst vertex (accepted if no worse than the
        # reflection), inside otherwise (accepted if better than the worst);
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
            sim[s, 1:, :] = sim[s, :1, :] + _SHRINK * (sim[s, 1:, :] - sim[s, :1, :])
            fv[s, 1:] = _projected_batch(sim[s, 1:, :], probs[s], ln_digits, ln_base)[1]

    return params, residual, converged


def fit_benford(probs: np.ndarray, base: int) -> BenfordFit:
    """Fit the generalized Benford curve to one base-`base` digit pmf."""
    params, residual, converged = fit_benford_batch(probs, base)
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
    ln_digits = np.log(np.arange(1, base, dtype=np.float64))
    q_raw = _curve_batch(params, ln_digits, math.log(base))
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


def fitted_divergences(probs: np.ndarray, base: int, alpha: float,
                       epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(B, 4) divergence rows of a (B, base-1) pmf matrix against its fitted
    curves, with every row fitted in one batch, and the (B,) converged mask of
    the fits; row i equals the single-pmf
    `divergences(probs_i, base, fit_benford(probs_i, base))` bit for bit."""
    params, _, converged = fit_benford_batch(probs, base)
    return _divergences_batch(probs, params, base, alpha, epsilon), converged


def divergences(probs: np.ndarray, base: int, fit: BenfordFit, alpha: float = 0.3,
                epsilon: float = 1e-10) -> DivergenceSet:
    """Divergence set between a base-`base` digit pmf and its fitted Benford curve."""
    params = np.array([[fit.beta, fit.gamma, fit.delta_exp]])
    row = _divergences_batch(np.asarray(probs)[None, :], params, base, alpha, epsilon)[0]
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


def cell_pmfs(matrix: CepstralMatrix, config: FdConfig) -> list[np.ndarray]:
    """Per base, the (frequencies x deltas, base-1) digit pmfs of every cell,
    frequency-major, as the layout orders them; InsufficientDigits names the
    first short cell in layout order."""
    probs = []
    for base in config.bases:
        try:
            pmfs = digit_pmf(matrix.values, config.deltas, base, config.min_digits)
        except InsufficientDigits as exc:
            column, step = exc.cell
            raise InsufficientDigits(
                f"cell (f={matrix.frequencies[column]}, b={base}, "
                f"delta={config.deltas[step]:g}): {exc}"
            ) from None
        probs.append(pmfs.reshape(-1, base - 1))
    return probs


def assemble_features_many(pmfs, config: FdConfig) -> tuple[np.ndarray, np.ndarray]:
    """(values (records, columns), capped fits (records,)) of many records'
    `cell_pmfs`, with one batched fit per base. `values` follows `feature_layout`;
    `capped fits` counts a record's cells whose fit hit the iteration cap. A row
    does not depend on the other records in the batch."""
    if not pmfs:
        return np.empty((0, 0)), np.zeros(0, dtype=np.int64)
    n_records, n_deltas, n_div = len(pmfs), len(config.deltas), len(DIVERGENCE_NAMES)
    n_freq = pmfs[0][0].shape[0] // n_deltas
    values = np.empty((n_records, n_freq, len(config.bases), n_deltas, n_div))
    capped = np.zeros(n_records, dtype=np.int64)
    for b, base in enumerate(config.bases):
        probs = np.concatenate([record[b] for record in pmfs])
        divs, converged = fitted_divergences(probs, base, config.alpha, config.epsilon)
        values[:, :, b] = divs.reshape(n_records, n_freq, n_deltas, n_div)
        capped += np.count_nonzero(~converged.reshape(n_records, -1), axis=1)
    return values.reshape(n_records, -1), capped
