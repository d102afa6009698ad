"""First-digit divergence features of quantized MFCC coefficients.

For every (frequency, base, quantization step) cell: quantize the coefficient
column, extract first digits of the non-zero values, build a digit pmf, fit the
three-parameter generalized Benford curve beta*log_b(1 + 1/(gamma + d^delta)),
and emit four divergences between the empirical pmf and the fitted curve
(symmetrized KL, Renyi, Tsallis, mean square error).

Records take one path: `cell_pmfs` builds a record's cell pmfs with one
`digit_pmf` call per base, and `assemble_features_many` fits the pmfs of a
batch of records with one `fit_benford_batch` call per base. The curve has one
shape evaluator, `_shape_batch`, which computes d^delta as exp(delta * ln d)
and keeps the intermediates from which `_derivatives_batch` builds the shape's
derivatives; the search builds them only where it takes a step. The fit
reports each row's curve and that curve's residual, not the parameters; the
divergences read the curve.
`fit_benford(probs, base)`, which returns a `BenfordFit(curve, residual_mse,
converged)`, and `divergences(probs, fit)` are single-pmf wrappers over the
same batched code; no feature path calls them.

The curve fit projects beta out (variable projection, Golub & Pereyra 1973):
beta enters the curve linearly, so at every point it takes its least-squares
value <p,g>/<g,g>, where g is the curve's shape log_b(1 + 1/(gamma + d^delta)).
The two remaining parameters are searched as (s, delta), with
gamma = e^s - min_d d^delta: then gamma + d^delta = e^s + d^delta - min_d d^delta
is > 0 at every point, so no point is infeasible, and the start (0, 1) is the
Benford point gamma = 0. Each step is a Levenberg-Marquardt step on the exact
Jacobian of the projected residual (Levenberg 1944; Marquardt 1963): one damped
2x2 solve per row, taken only where it strictly lowers the sum of squares. A
row keeps the undamped normal equations of its point, so a refused step, which
changes only the damping, re-forms nothing; the trial's derivatives are built
only for rows that take the step and stay in the batch. The damping starts at
1e-3 and is divided by 3 after a taken step and multiplied by 4 after a
refused one. A row stops after a taken step that lowers its sum of squares by
at most 1e-8 of it plus 1e-30 * <p,p>, or after a refused step at damping
>= 1e12, and it is capped at 60 steps. The search runs many cells in lockstep
as one vectorized batch, which a row leaves when it stops; per-problem
arithmetic is row-independent, so batch composition cannot change any result.

Many pmfs have no finite optimum: their residual falls as the parameters run
off to infinity, towards a curve the family approaches but never reaches.
Two kinds of such limit have a closed-form least-squares fit, computed for
every row in one array pass: steps (`_step_batch`: a falling step at any
digit, or a flat curve with its first or last digit at its own level) and
log ramps (`_ramp_batch`: a * ln(min(d, c))). The fit reports the capped
search's curve unless the best step, or then the best ramp, has the strictly
lower residual. converged=False means that the search hit the cap and its
curve is the one reported.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .cepstral import CepstralMatrix
from .exceptions import InsufficientDigits, SettingError

DIVERGENCE_NAMES = ("js", "renyi", "tsallis", "mse")

FIT_START = (0.0, 1.0)  # (s, delta) of the Benford curve; beta is projected
FIT_MAX_ITER = 60


@dataclass(frozen=True)
class FdConfig:
    bases: tuple[int, ...] = (10, 20)
    deltas: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    alpha: float = 0.3
    epsilon: float = 1e-10
    min_digits: int = 10

    def __post_init__(self) -> None:
        if not self.bases or not self.deltas:
            raise SettingError("bases and quantization steps must not be empty")
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
    curve: np.ndarray  # (base-1,) fitted curve beta * g at d = 1..base-1
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


def digit_pmf(matrix: CepstralMatrix, deltas, base: int, min_digits: int) -> np.ndarray:
    """(k, len(deltas), base-1) digit pmfs, d = 1..base-1, of the non-zero values
    of each of the k columns of `matrix` divided by each step. InsufficientDigits
    for the first short cell in row-major order, named by its frequency label,
    base and step as `cell (f=2, b=10, delta=1): ...`; SettingError naming the
    first step that some value divided by it overflows."""
    with np.errstate(over="ignore"):
        quantized = np.asarray(matrix.values, dtype=np.float64)[:, :, None] / np.asarray(deltas)
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
        delta = f"{deltas[step]:g}"
        raise InsufficientDigits(
            f"cell (f={matrix.frequencies[column]}, b={base}, delta={delta}): "
            f"{counts[column, step]} non-zero values < required {min_digits} "
            f"(base={base}, delta={delta})"
        )
    cells = np.broadcast_to(np.arange(counts.size).reshape(counts.shape), quantized.shape)
    digits = _first_digits(np.abs(quantized[nonzero]), base)
    tally = np.bincount(cells[nonzero] * base + digits, minlength=counts.size * base)
    return tally.reshape(*counts.shape, base)[..., 1:] / counts[..., None]


# ---------------------------------------------------------------------------
# generalized Benford curve and its fit
# ---------------------------------------------------------------------------

def _shape_batch(points: np.ndarray, ln_digits: np.ndarray,
                 ln_base: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Shape g = log_b(1 + 1/x) at (B, 2) points (s, delta), with
    x_d = e^s + d^delta - min_d d^delta and d^delta = exp(delta * ln d), and
    the intermediates (power d^delta, least min_d d^delta, scale e^s, x) from
    which `_derivatives_batch` builds its derivatives. x > 0 wherever e^s > 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        power = np.exp(points[:, 1:] * ln_digits)
        # 1^delta is exactly 1, so the least power is at d = D where it is below 1
        least = np.where(power[:, -1:] < 1.0, power[:, -1:], 1.0)
        scale = np.exp(points[:, :1])
        x = power - least
        x += scale
        g = np.log1p(np.reciprocal(x))
        g /= ln_base
    return g, (power, least, scale, x)


def _derivatives_batch(parts: tuple[np.ndarray, ...], ln_digits: np.ndarray,
                       ln_base: float) -> tuple[np.ndarray, np.ndarray]:
    """(B, D) derivatives of the shape in s and in delta, from the
    intermediates `_shape_batch` returns for (rows of) its points."""
    power, least, scale, x = parts
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dg_dx = x + 1.0
        dg_dx *= x
        dg_dx *= -ln_base
        np.reciprocal(dg_dx, out=dg_dx)
        dg_ddelta = power * ln_digits
        dg_ddelta -= np.where(least < 1.0, least * ln_digits[-1], 0.0)
        dg_ddelta *= dg_dx
        dg_dx *= scale
    return dg_dx, dg_ddelta


def _mse_batch(curves: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """mse over the last axis of curves against pmfs that broadcast to them;
    the fit's residuals and the divergences' mse both come from here."""
    r = curves - probs
    r *= r
    mse = np.add.reduce(r, -1)
    mse /= r.shape[-1]
    return mse


def _projection_batch(probs: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """(beta, r = beta g - p, sum of squares of r, <g,g>) of (B, D) shapes g
    against (B, D) pmfs, with beta = <p,g>/<g,g> the least-squares scale of
    each shape."""
    gg = np.add.reduce(g * g, -1)
    beta = np.add.reduce(probs * g, -1)
    beta /= gg
    r = beta[:, None] * g
    r -= probs
    return beta, r, np.add.reduce(r * r, -1), gg


def _normal_batch(g: np.ndarray, beta: np.ndarray, r: np.ndarray, gg: np.ndarray,
                  dg_ds: np.ndarray, dg_ddelta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Undamped normal equations (a_ss, a_sd, a_dd, grad_s, grad_delta) of the
    projected residual r at (B, D) shapes g, from `_projection_batch` and
    `_derivatives_batch` at the same points: A = J^T J and grad = J^T r."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the Jacobian of r, beta's dependence included:
        # J_k = beta dg_k + c_k g with c_k = (<dg_k, -r> - beta <g, dg_k>) / <g,g>
        neg_gg = -gg
        jac = []
        for dg in (dg_ds, dg_ddelta):
            c = np.add.reduce(dg * r, -1)
            c += beta * np.add.reduce(dg * g, -1)
            c /= neg_gg
            j = beta[:, None] * dg
            j += c[:, None] * g
            jac.append(j)
        j_s, j_d = jac
        return (np.add.reduce(j_s * j_s, -1), np.add.reduce(j_s * j_d, -1),
                np.add.reduce(j_d * j_d, -1), np.add.reduce(j_s * r, -1),
                np.add.reduce(j_d * r, -1))


def fit_benford_batch(probs: np.ndarray, base: int,
                      max_iter: int = FIT_MAX_ITER) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit of each row of a (B, base-1) pmf matrix on the closure of the curve
    family: the capped Levenberg-Marquardt search's curve, replaced by the
    row's best step, then by its best log ramp, wherever that has the strictly
    lower residual.

    Returns (curves (B, base-1), residual (B,), converged (B,)): each row's
    reported curve and its mse, and converged=False where the search hit the
    iteration cap and its curve is the one reported.
    """
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    curves, residual, converged = _lm_batch(probs, base, max_iter)
    for limit_curves, limit_residual in (_step_batch(probs), _ramp_batch(probs)):
        lower = limit_residual < residual
        curves[lower] = limit_curves[lower]
        residual[lower] = limit_residual[lower]
        converged |= lower
    return curves, residual, converged


def _lm_batch(probs: np.ndarray, base: int,
              max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levenberg-Marquardt fit of each row of a C-contiguous float64
    (B, base-1) pmf matrix over (s, delta), with beta projected out.

    Returns (curves (B, base-1), residual (B,), converged (B,)): each row's
    curve beta * g at its last accepted point and that curve's mse, and
    converged=False where the row hit the iteration cap.
    """
    n_prob = probs.shape[0]
    ln_digits = np.log(np.arange(1, base, dtype=np.float64))
    ln_base = math.log(base)
    point = np.tile(FIT_START, (n_prob, 1))
    g, parts = _shape_batch(point, ln_digits, ln_base)
    rows = probs
    beta, r, sse, gg = _projection_batch(rows, g)
    normal = _normal_batch(g, beta, r, gg, *_derivatives_batch(parts, ln_digits, ln_base))
    damping = np.full(n_prob, 1e-3)
    sse_floor = 1e-30 * np.add.reduce(rows * rows, -1)
    curves = np.empty_like(probs)
    converged = np.zeros(n_prob, dtype=bool)
    active = np.arange(n_prob)

    for _ in range(max_iter):
        a_ss, a_sd, a_dd, grad_s, grad_d = normal
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # damped normal equations (A + damping diag(A)) step = -grad, in closed form
            a_ss = a_ss * (1.0 + damping)
            a_dd = a_dd * (1.0 + damping)
            det = a_ss * a_dd - a_sd * a_sd
            step = np.stack([a_sd * grad_d - a_dd * grad_s,
                             a_sd * grad_s - a_ss * grad_d], axis=1)
            step /= det[:, None]
            trial = point + step
            trial_g, trial_parts = _shape_batch(trial, ln_digits, ln_base)
            trial_beta, trial_r, trial_sse, trial_gg = _projection_batch(rows, trial_g)
        # a step is taken only where it lowers the sum of squares; nan never does
        accept = trial_sse < sse
        done = np.where(accept, sse - trial_sse <= 1e-8 * sse + sse_floor, damping >= 1e12)
        np.copyto(point, trial, where=accept[:, None])
        np.copyto(g, trial_g, where=accept[:, None])
        np.copyto(beta, trial_beta, where=accept)
        np.copyto(sse, trial_sse, where=accept)
        damping = np.where(accept, damping / 3.0, damping * 4.0)
        # the normal equations move with the point, and only rows that stay need them
        moved = (accept & ~done).nonzero()[0]
        if moved.size:
            slopes = _derivatives_batch(tuple(a.take(moved, 0) for a in trial_parts),
                                        ln_digits, ln_base)
            fresh = _normal_batch(*(a.take(moved, 0) for a in (trial_g, trial_beta, trial_r,
                                                                trial_gg)), *slopes)
            for kept, new in zip(normal, fresh):
                kept[moved] = new
        if np.count_nonzero(done):
            idx = active[done]
            curves[idx] = beta[done, None] * g[done]
            converged[idx] = True
            stay = (~done).nonzero()[0]
            point, g, beta, sse, damping, rows, sse_floor, active, *normal = (
                a.take(stay, 0) for a in (point, g, beta, sse, damping, rows, sse_floor,
                                          active, *normal))
            if active.size == 0:
                break
    curves[active] = beta[:, None] * g
    return curves, _mse_batch(curves, probs), converged


def _step_batch(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(curves (B, D), residual (B,)) of each row's least-squares step: the
    best two-level curve that the family approaches but never reaches.

    The candidates are a falling step for every transition digit k (level h on
    digits 1..k-1, t in [0, h] at k, zero after; delta -> +inf with gamma near
    k^delta) and a flat curve with one end digit at its own level (h on digits
    2..D and any t >= 0 at digit 1, or h on 1..D-1 and t at D; delta -> 0 with
    gamma -> -1 raises that digit, and delta -> -inf with gamma > 0, or a
    falling step at k = D, lowers it). A rising step with two or more zero
    digits is no such limit. Each candidate has a closed form: h is the mean
    of its digits and t is p_k, except where a falling step's p_k exceeds h,
    when both levels share the mean of digits 1..k. A row keeps the candidate
    that explains the most of sum(p^2), the first on ties, and its residual is
    the mse of the curve it reports.
    """
    n_prob, n_dig = probs.shape
    digit = np.arange(n_dig)
    # falling step with its transition at digit k = digit + 1; the plateau of
    # k = 1 is empty, and there t = p_1 on either branch
    upto = np.cumsum(probs, axis=1)
    plateau = np.hstack([np.zeros((n_prob, 1)), upto[:, :-1]])
    plateau_mean = plateau / np.maximum(digit, 1)
    fits = probs <= plateau_mean
    shared = upto / (digit + 1)
    level = np.where(fits, plateau_mean, shared)
    trans = np.where(fits, probs, shared)
    gain = np.where(fits, plateau * plateau_mean + probs * probs, upto * shared)
    # one end digit at p_1 or p_D, the other digits at their mean
    end = probs[:, [0, -1]]
    rest = np.column_stack([np.add.reduce(probs[:, 1:], 1), plateau[:, -1]])
    rest_mean = rest / max(n_dig - 1, 1)
    zero = np.zeros((n_prob, 1))
    # per candidate: the curve is `below` before digit `pos`, `at` on it and
    # `above` after it
    below = np.hstack([level, zero, rest_mean[:, 1:]])
    at = np.hstack([trans, end])
    above = np.hstack([np.zeros_like(level), rest_mean[:, :1], zero])
    pos = np.r_[digit, 0, n_dig - 1]
    best = np.hstack([gain, end * end + rest * rest_mean]).argmax(axis=1)[:, None]
    chosen = pos[best]
    curves = np.where(digit < chosen, np.take_along_axis(below, best, 1),
                      np.where(digit == chosen, np.take_along_axis(at, best, 1),
                               np.take_along_axis(above, best, 1)))
    return curves, _mse_batch(curves, probs)


def _ramp_batch(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(curves (B, D), residual (B,)) of each row's least-squares log ramp
    a * ln(min(d, c)) with a >= 0 and c >= 1: the limit of the family as
    delta -> -inf with gamma = c^delta.

    The candidates are a ray at every integer knee c = k, and inside every
    interval k < c < k+1 the curve a * ln d up to digit k and b after it, with
    a ln k <= b <= a ln(k+1); the second applies where the unconstrained fit
    of (a, b) keeps that bound, and otherwise the optimum is on a ray. A row
    keeps the candidate that explains the most of sum(p^2), the first on ties.
    """
    n_prob, n_dig = probs.shape
    knee = np.arange(1, n_dig + 1)
    ln_d = np.log(knee)
    # sums over digits 1..k (sxy, sxx) and k+1..D (tail), for knee k = 1..D
    sxy = np.cumsum(probs * ln_d, axis=1)
    sxx = np.cumsum(ln_d * ln_d)
    tail = np.hstack([np.cumsum(probs[:, :0:-1], axis=1)[:, ::-1], np.zeros((n_prob, 1))])
    flat = n_dig - knee
    ray_dot = sxy + ln_d * tail
    ray_norm = sxx + flat * ln_d * ln_d
    ray = np.divide(ray_dot, ray_norm, out=np.zeros_like(ray_dot), where=ray_norm > 0.0)
    # a is free at k = 1, where the ramp is zero; b has no digits at k = D
    slope = np.divide(sxy, sxx, out=np.zeros_like(sxy), where=sxx > 0.0)
    level = np.divide(tail, flat, out=np.zeros_like(tail), where=flat > 0)
    inside = (level <= slope * np.log(knee + 1)) | (knee == 1)
    inside &= (level >= slope * ln_d) & (flat > 0)
    gain = np.hstack([ray * ray_dot, np.where(inside, slope * sxy + level * tail, -1.0)])
    best = gain.argmax(axis=1)[:, None]
    at = knee[best % n_dig]
    a = np.take_along_axis(np.hstack([ray, slope]), best, 1)
    b = np.take_along_axis(np.hstack([ray * ln_d, level]), best, 1)
    curves = np.where(knee <= at, a * ln_d, b)
    return curves, _mse_batch(curves, probs)


def fit_benford(probs: np.ndarray, base: int) -> BenfordFit:
    """Fit the generalized Benford curve to one base-`base` digit pmf."""
    curves, residual, converged = fit_benford_batch(np.asarray(probs)[None, :], base)
    return BenfordFit(curve=curves[0], residual_mse=float(residual[0]),
                      converged=bool(converged[0]))


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _divergences_batch(probs: np.ndarray, curves: np.ndarray, alpha: float,
                       epsilon: float) -> np.ndarray:
    """(B, 4) array of (js, renyi, tsallis, mse) rows of (B, D) pmfs against
    their (B, D) fitted curves.

    MSE compares the raw pmf against the raw curve; the ratio-based divergences
    floor both sides at epsilon and renormalize first, which keeps S_alpha <= 1
    and hence js, tsallis >= 0.

    renyi is (ln S_pq + ln S_qp) / (1 - alpha), so it is <= 0 and falls as the
    gap grows: it is the negative of the symmetrized Renyi divergence written
    with 1 / (alpha - 1). The paper's abstract does not say which sign its Renyi
    term takes; this pinned formula is kept, so compare renyi by magnitude.
    """
    mse = _mse_batch(curves, probs)

    p = np.clip(probs, epsilon, None)
    p = p / p.sum(axis=1, keepdims=True)
    q = np.clip(curves, epsilon, None)
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
    `divergences(probs_i, fit_benford(probs_i, base))` bit for bit."""
    curves, _, converged = fit_benford_batch(probs, base)
    return _divergences_batch(probs, curves, alpha, epsilon), converged


def divergences(probs: np.ndarray, fit: BenfordFit, alpha: float = 0.3,
                epsilon: float = 1e-10) -> DivergenceSet:
    """Divergence set between a digit pmf and its fitted Benford curve."""
    row = _divergences_batch(np.asarray(probs)[None, :], fit.curve[None, :], alpha, epsilon)[0]
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
    frequency-major, as the layout orders them; `digit_pmf`'s InsufficientDigits
    names the first short cell of the first base that has one."""
    return [digit_pmf(matrix, config.deltas, base, config.min_digits).reshape(-1, base - 1)
            for base in config.bases]


def assemble_features_many(pmfs, config: FdConfig) -> tuple[np.ndarray, np.ndarray]:
    """(values (records, columns), capped fits (records,)) of many records'
    `cell_pmfs`, with one batched fit per base. `values` follows `feature_layout`;
    `capped fits` counts a record's cells whose fit reports converged=False. A row
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
