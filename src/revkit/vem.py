"""Variational EM engine for joint dereverberation and subband filter estimation.

The observation in each frequency band is modeled as the dry spectrum
convolved across frames with a short band-to-band filter plus stationary
Gaussian noise:

    X(f, t) = sum_l H_l(f) S(f, t - l) + W(f, t)

with a zero-mean complex Gaussian prior of precision alpha(f, t) on
S(f, t) and noise precision delta(f). The E-step has closed-form
per-bin posterior updates which are blended with the previous iterate by
an exponential moving average; the M-step solves per-band normal
equations for the filter and a scalar update for the noise precision.
Bands are fully independent, so everything is vectorized across rows and
can be chunked over worker threads without changing any result.

Boundary convention: frame indices outside [0, T) contribute zero
observation, zero mean and zero variance everywhere.

Per band, an expected complete-data log-likelihood (constants dropped) is
tracked every iteration and the iterate with the highest value is the one
returned, so late-iteration drift cannot degrade the output. Its fit
E||X - H * S||^2 always comes from the Gram form of the M-step's normal
equations; in the loop it is the residual the M-step already computed.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .prior import DEFAULT_POWER_FLOOR, PriorPrecision
from .stft import Spectrogram

# Bands per work unit. Fixed (not derived from the thread count) so that
# chunk boundaries, and therefore every floating-point result, are
# identical for any number of workers.
_BAND_CHUNK = 64


@dataclass
class CtfFilter:
    """Band-to-band filter taps, shape (F, L); h[:, 0] is the current-frame tap."""

    h: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.complex128)
        if self.h.ndim != 2 or self.h.shape[1] < 1:
            raise ValueError("filter must be an F x L matrix with L >= 1")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("filter contains non-finite taps")

    @property
    def num_taps(self) -> int:
        return self.h.shape[1]


@dataclass
class NoisePrecision:
    """Per-band noise precision delta (1/power), strictly positive."""

    delta: np.ndarray

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if not np.all(np.isfinite(self.delta)) or np.any(self.delta <= 0):
            raise ValueError("noise precision must be finite and positive")


@dataclass
class Posterior:
    """Per-bin posterior mean mu and precision gamma of the dry spectrum."""

    mu: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.complex128)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.mu.shape != self.gamma.shape:
            raise ValueError("mu and gamma shapes differ")
        if np.any(self.gamma <= 0) or not np.all(np.isfinite(self.gamma)):
            raise ValueError("gamma must be finite and positive")


@dataclass
class VemConfig:
    """Engine settings.

    ctf_len : filter length L in frames.
    ema : smoothing factor in [0, 1); 0 applies raw updates, values near 1
        change the posterior very slowly.
    max_iters : number of EM iterations.
    skip_low_bands : lowest bands excluded from inference (their output
        spectrum is zeroed; speech has no content down there and the SNR
        is hopeless).
    delta_cap : upper clamp for the noise precision so a noiseless fit
        cannot overflow.
    jitter : relative Tikhonov term (times mean Gram diagonal) added to
        the M-step normal equations.
    power_floor : minimum power before any inversion.
    """

    ctf_len: int = 30
    ema: float = 0.7
    max_iters: int = 100
    skip_low_bands: int = 3
    delta_cap: float = 1e12
    jitter: float = 1e-8
    power_floor: float = DEFAULT_POWER_FLOOR

    def __post_init__(self):
        if self.ctf_len < 1:
            raise ValueError("ctf_len must be >= 1")
        if not 0.0 <= self.ema < 1.0:
            raise ValueError("ema (lambda) must lie in [0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.skip_low_bands < 0:
            raise ValueError("skip_low_bands must be >= 0")
        if self.delta_cap <= 0 or self.jitter < 0 or self.power_floor <= 0:
            raise ValueError("delta_cap/jitter/power_floor out of range")


@dataclass
class VemState:
    """Mutable engine state: posterior, filter and noise precision."""

    posterior: Posterior
    filter: CtfFilter
    noise: NoisePrecision


# ---------------------------------------------------------------------------
# Array kernels. All operate on (F, T) rows independently.

def _init_arrays(X, cfg):
    power = X.real ** 2 + X.imag ** 2
    gamma = 1.0 / np.maximum(power, cfg.power_floor)
    mu = np.zeros_like(X)
    h = np.zeros((X.shape[0], cfg.ctf_len), dtype=np.complex128)
    h[:, 0] = 1.0
    delta = 1.0 / np.maximum(power.min(axis=1), cfg.power_floor)
    delta = np.minimum(delta, cfg.delta_cap)
    return mu, gamma, h, delta


def _ctf_conv(h, S):
    """Full-length frame-axis convolution Y(t) = sum_l h_l S(t - l).

    h is (F, L), S is (F, T); the result is (F, T + L - 1) so the filter
    tail is kept. Serves the E-step residual and ``rir.ctf_to_rir``; the
    likelihood's fit comes from the M-step's normal equations instead.
    """
    F, T = S.shape
    L = h.shape[1]
    Y = np.zeros((F, T + L - 1), dtype=np.result_type(h, S))
    for l in range(L):
        Y[:, l: l + T] += h[:, l: l + 1] * S
    return Y


def _e_step_arrays(X, alpha, mu_pre, gamma_pre, h, delta, lam):
    F, T = X.shape
    L = h.shape[1]
    hnorm2 = np.sum(h.real ** 2 + h.imag ** 2, axis=1)
    gamma_raw = alpha + delta[:, None] * hnorm2[:, None]

    # Residual of the previous means against the (zero-extended)
    # observation: R(tau) = X(tau) - sum_l H_l mu_pre(tau - l).
    resid = _ctf_conv(h, mu_pre)
    np.negative(resid, out=resid)
    resid[:, :T] += X

    # sum_l H_l^* [X(t+l) - sum_{l' != l} H_l' mu_pre(t+l-l')]
    #   = sum_l H_l^* R(t+l) + ||H||^2 mu_pre(t)
    acc = np.zeros((F, T), dtype=np.complex128)
    for l in range(L):
        acc += np.conj(h[:, l: l + 1]) * resid[:, l: l + T]
    acc += hnorm2[:, None] * mu_pre
    mu_raw = (delta[:, None] / gamma_raw) * acc

    # Moving average on the mean and on the variance (not the precision).
    inv_new = lam / gamma_pre + (1.0 - lam) / gamma_raw
    mu_new = lam * mu_pre + (1.0 - lam) * mu_raw
    return mu_new, 1.0 / inv_new


def _gram_windows(mu, var, L):
    """Gram of the stacked-mean windows plus the variance diagonal.

    Entries follow the S-vector layout (oldest first): with w_i(t) =
    mu(t - L + 1 + i) zero-padded on the left,
    G[i, j] = sum_t w_i(t) w_j(t)* + [i == j] sum_t var(t - L + 1 + i).
    Needs T >= L (callers left-pad with zero frames). Then
    G[i, i + d] = sum_{s <= T - L + i} mu(s) mu*(s + d): a head sum over
    s <= T - L shared by the whole diagonal plus forward cumulative
    increments, O(F T L) instead of the O(F T L^2) window product.
    """
    F, T = mu.shape
    muc = np.conj(mu)
    G = np.zeros((F, L, L), dtype=np.complex128)
    n = T - L + 1
    for d in range(L):
        head = np.sum(mu[:, :n] * muc[:, d: n + d], axis=1)
        steps = mu[:, n: T - d] * muc[:, n + d:]
        vals = np.cumsum(np.concatenate([head[:, None], steps], axis=1),
                         axis=1)
        ar = np.arange(L - d)
        G[:, ar, ar + d] = vals
        if d > 0:
            G[:, ar + d, ar] = np.conj(vals)

    cv = np.cumsum(var, axis=1)
    idx = np.arange(L)
    G[:, idx, idx] = G[:, idx, idx].real + cv[:, T - L + idx]
    return G


def _normal_equations(X, mu, gamma, L):
    """Unregularized Gram G, right-hand side b and ||X||^2 of the per-band
    filter normal equations, taps in S-vector (oldest-first) order."""
    var = 1.0 / gamma
    T = X.shape[1]
    # Zero frames before the start change no sum below and make T >= L.
    # Only short inputs are padded; at T >= L the copies would be pure cost.
    if T < L:
        X, mu, var = (np.pad(a, ((0, 0), (L - T, 0))) for a in (X, mu, var))
    G = _gram_windows(mu, var, L)

    # b[j] = sum_t X(t) mu*(t - L + 1 + j), a plain lag correlation
    muc = np.conj(mu)
    b = np.empty((X.shape[0], L), dtype=np.complex128)
    for j in range(L):
        e = L - 1 - j
        b[:, j] = np.sum(X[:, e:] * muc[:, : X.shape[1] - e], axis=1)
    x2 = np.sum(X.real ** 2 + X.imag ** 2, axis=1)
    return G, b, x2


def _fit(G, b, x2, hv):
    """Expected residual E||X - H * S||^2 = ||X||^2 - 2 Re<hv, b> + hv G hv^H
    at oldest-first taps hv, non-negative as G is unregularized."""
    cross = 2.0 * np.real(np.sum(hv * np.conj(b), axis=1))
    quad = np.real(
        np.matmul(hv[:, None, :], np.matmul(G, np.conj(hv)[..., None]))
    )[:, 0, 0]
    return np.maximum(x2 - cross + quad, 0.0)


def _m_step_arrays(X, mu, gamma, L, cfg):
    T = X.shape[1]
    idx = np.arange(L)
    G, b, x2 = _normal_equations(X, mu, gamma, L)

    diag_mean = np.sum(G[:, idx, idx].real, axis=1) / L
    jit = np.where(diag_mean > 0, cfg.jitter * diag_mean, 1e-30)
    Gj = G.copy()
    Gj[:, idx, idx] += jit[:, None]

    # Row-vector solve hv . Gj = b via the transposed system.
    n_warn = 0
    try:
        hv = np.linalg.solve(np.conj(Gj), b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        n_warn = 1
        Gj[:, idx, idx] += (1e6 * jit + 1e-12)[:, None]
        hv = np.linalg.solve(np.conj(Gj), b[..., None])[..., 0]

    # Noise precision from the expected residual at the new filter.
    residual = _fit(G, b, x2, hv)
    with np.errstate(divide="ignore"):
        delta = np.where(residual > 0.0, T / residual, np.inf)
    delta = np.minimum(delta, cfg.delta_cap)

    h_new = hv[:, ::-1].copy()  # back to lag order, h[:, 0] = current tap
    return delta, h_new, n_warn, residual


def _loglik_from_fit(alpha, mu, gamma, delta, fit):
    """T log delta - delta * fit plus the prior term, per band."""
    power = mu.real ** 2 + mu.imag ** 2 + 1.0 / gamma
    prior_term = np.sum(np.log(alpha) - alpha * power, axis=1)
    return mu.shape[1] * np.log(delta) - delta * fit + prior_term


def _loglik_arrays(X, alpha, mu, gamma, h, delta):
    fit = _fit(*_normal_equations(X, mu, gamma, h.shape[1]), h[:, ::-1])
    return _loglik_from_fit(alpha, mu, gamma, delta, fit)


def _run_chunk(X, alpha, cfg):
    """Full EM loop for one block of bands; returns best snapshots and trace."""
    iters = cfg.max_iters
    mu, gamma, h, delta = _init_arrays(X, cfg)
    trace = np.empty((iters + 1, X.shape[0]))
    trace[0] = _loglik_arrays(X, alpha, mu, gamma, h, delta)

    best_ll = np.full(X.shape[0], -np.inf)
    best_mu = np.zeros_like(mu)
    best_h = h.copy()
    n_warn = 0
    for it in range(1, iters + 1):
        # No previous iterate exists at iteration 1; blending with the
        # uninformative start would wreck the initial noise precision.
        lam = cfg.ema if it > 1 else 0.0
        mu, gamma = _e_step_arrays(X, alpha, mu, gamma, h, delta, lam)
        delta, h, w, fit = _m_step_arrays(X, mu, gamma, cfg.ctf_len, cfg)
        n_warn += w
        ll = _loglik_from_fit(alpha, mu, gamma, delta, fit)
        trace[it] = ll
        better = ll > best_ll
        best_ll = np.where(better, ll, best_ll)
        best_mu[better] = mu[better]
        best_h[better] = h[better]
    return best_mu, best_h, trace, n_warn


# ---------------------------------------------------------------------------
# Public operations.

def init(X: Spectrogram, alpha: PriorPrecision, cfg: VemConfig) -> VemState:
    """Uninformative start: gamma = 1/|X|^2, mu = 0, unit direct tap, and
    delta from the minimum per-band frame power."""
    if X.data.shape != alpha.shape:
        raise ValueError(
            f"observation {X.data.shape} and prior {alpha.shape} disagree"
        )
    mu, gamma, h, delta = _init_arrays(X.data, cfg)
    return VemState(
        posterior=Posterior(mu, gamma),
        filter=CtfFilter(h),
        noise=NoisePrecision(delta),
    )


def e_step(state: VemState, X: Spectrogram, alpha: PriorPrecision,
           cfg: VemConfig) -> Posterior:
    """Closed-form posterior update followed by the moving-average blend."""
    mu, gamma = _e_step_arrays(
        X.data, alpha.alpha, state.posterior.mu, state.posterior.gamma,
        state.filter.h, state.noise.delta, cfg.ema,
    )
    return Posterior(mu, gamma)


def m_step(state: VemState, X: Spectrogram,
           cfg: VemConfig) -> tuple[NoisePrecision, CtfFilter]:
    """Per-band normal-equations filter update, then the noise precision
    evaluated at the new filter (clamped to (0, delta_cap])."""
    delta, h, n_warn, _ = _m_step_arrays(
        X.data, state.posterior.mu, state.posterior.gamma, cfg.ctf_len, cfg
    )
    if n_warn:
        warnings.warn("singular Gram matrix; jitter increased", RuntimeWarning)
    return NoisePrecision(delta), CtfFilter(h)


def expected_loglik(state: VemState, X: Spectrogram,
                    alpha: PriorPrecision) -> np.ndarray:
    """Per-band expected complete-data log-likelihood, constants dropped."""
    return _loglik_arrays(
        X.data, alpha.alpha, state.posterior.mu, state.posterior.gamma,
        state.filter.h, state.noise.delta,
    )


def run(X: Spectrogram, alpha: PriorPrecision, cfg: VemConfig,
        threads: int = 1) -> tuple[Spectrogram, CtfFilter, np.ndarray]:
    """Run the full engine and return the best per-band estimates.

    Parameters
    ----------
    X : Spectrogram
        Reverberant observation (normalized; ``scale`` is carried through
        to the returned spectrum so synthesis restores the input scale).
    alpha : PriorPrecision
        Fixed prior precision, same shape as ``X.data``.
    cfg : VemConfig
    threads : int
        Worker threads for band-parallel processing. Results are
        identical for any value.

    Returns
    -------
    (S_hat, H_hat, trace)
        ``S_hat``: posterior-mean spectrum, per band from the iteration
        with the highest likelihood; skipped low bands are zero.
        ``H_hat``: matching filter rows; skipped bands carry the unit
        direct tap. ``trace``: (max_iters + 1, F) likelihood values,
        row 0 evaluated at the initialization, NaN for skipped bands.
    """
    if X.data.shape != alpha.shape:
        raise ValueError(
            f"observation {X.data.shape} and prior {alpha.shape} disagree"
        )
    F, T = X.data.shape
    skip = min(cfg.skip_low_bands, F)

    S = np.zeros((F, T), dtype=np.complex128)
    H = np.zeros((F, cfg.ctf_len), dtype=np.complex128)
    H[:skip, 0] = 1.0
    trace = np.full((cfg.max_iters + 1, F), np.nan)

    chunks = [
        slice(a, min(a + _BAND_CHUNK, F)) for a in range(skip, F, _BAND_CHUNK)
    ]
    n_warn = 0

    def work(sl):
        return _run_chunk(X.data[sl], alpha.alpha[sl], cfg)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(work, chunks))

    for sl, (best_mu, best_h, tr, w) in zip(chunks, results):
        S[sl] = best_mu
        H[sl] = best_h
        trace[:, sl] = tr
        n_warn += w
    if n_warn:
        warnings.warn(
            f"singular Gram matrix in {n_warn} update(s); jitter increased",
            RuntimeWarning,
        )

    S_hat = Spectrogram(S, X.config, scale=X.scale, sample_rate=X.sample_rate)
    return S_hat, CtfFilter(H), trace
