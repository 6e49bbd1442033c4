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
can be chunked over worker threads without changing any result: each
block of bands from ``SKIP_LOW_BANDS`` up writes its own rows of ``run``'s
outputs in place, and the rows below stay zero. A band whose filter
system is singular gets a larger jitter on its own, and ``run`` warns
with the number of such band updates. ``run`` uses ``VemConfig.threads``
workers, one unless set; the CLI sets every CPU the process may run on.

Boundary convention: frame indices outside [0, T) contribute zero
observation, zero mean and zero variance everywhere.

Every frame-axis sum (E-step residual and back-projection, M-step
autocorrelation and right-hand side) is a product of FFTs of one length
N >= T + L - 1 per block of bands, so none wraps around. X is transformed
once per block; each posterior mean's spectrum serves the M-step after its
E-step and the next E-step. An iteration costs O(F N log N + F L^3).

Per band, an expected complete-data log-likelihood (constants dropped) is
tracked every iteration and the iterate with the highest value is the one
returned, so late-iteration drift cannot degrade the output. Its fit
E||X - H * S||^2 always comes from the Gram form of the M-step's normal
equations; in the loop it is the residual the M-step already computed.
The step API, ``init`` to ``expected_loglik``, exists for ``bench/tracing.py``
to time per kernel until ROADMAP item 1; ``revkit`` does not re-export it.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .prior import POWER_FLOOR, PriorPrecision
from .stft import Spectrogram, _next_fast_len

# Bands per work unit. A band's bits do not depend on its block, so the size
# trades per-call overhead (at 2 threads, 128-band blocks cut engine CPU 9 %,
# 16-band ones cost 29 % more) against memory (127-band blocks raised the
# CLI's peak RSS by 10-17 MB). ``rir.ctf_to_rir`` uses the same blocks.
_BAND_CHUNK = 64

SKIP_LOW_BANDS = 3  # bins 0, 31.25 and 62.5 Hz, where speech has no content
# Numerical guards, not model parameters:
DELTA_CAP = 1e12  # noise-precision ceiling, so a noiseless fit cannot overflow
JITTER = 1e-8  # M-step Tikhonov term, relative to the mean Gram diagonal


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

    ctf_len : filter length L in frames of 8 ms (30: 240 ms).
    ema : smoothing factor in [0, 1); 0 applies raw updates, values near 1
        change the posterior very slowly.
    max_iters : number of EM iterations.
    threads : worker threads over blocks of bands; results never depend on it.

    The numerical guards are the module constants ``DELTA_CAP``,
    ``JITTER`` and ``prior.POWER_FLOOR``.
    """

    ctf_len: int = 30
    ema: float = 0.7
    max_iters: int = 100
    threads: int = 1

    def __post_init__(self):
        if self.ctf_len < 1:
            raise ValueError("ctf_len must be >= 1")
        if not 0.0 <= self.ema < 1.0:
            raise ValueError("ema (lambda) must lie in [0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class VemState:
    """Mutable engine state: posterior, filter and noise precision."""

    posterior: Posterior
    filter: CtfFilter
    noise: NoisePrecision


# ---------------------------------------------------------------------------
# Array kernels. All operate on (F, T) rows independently.

def _init_arrays(X, alpha, L):
    power = X.real ** 2 + X.imag ** 2
    gamma = 1.0 / np.maximum(power, POWER_FLOOR)
    mu = np.zeros_like(X)
    h = np.zeros((X.shape[0], L), dtype=np.complex128)
    h[:, 0] = 1.0
    # The noise power starts as the band's mean power above the prior's,
    # 1/alpha: trusting the observation instead leaves the engine in the
    # trivial fit S = X. A band the prior explains starts at 1/POWER_FLOOR.
    excess = np.mean(np.maximum(power - 1.0 / alpha, 0.0), axis=1)
    delta = 1.0 / np.maximum(excess, POWER_FLOOR)
    return mu, gamma, h, delta


def _fft_padded(a, n):
    """``fft(a, n)`` of the rows of ``a``, zero-padded to length n in the
    output buffer and transformed in place. Same bits; numpy's own padding
    path took 8-29 % longer on 64-band blocks of n = 480-2048."""
    out = np.zeros((a.shape[0], n), dtype=np.complex128)
    out[:, : a.shape[1]] = a
    return fft(out, out=out)


def _spectrum(a, L):
    """Frame-axis FFT of the (F, T) rows, zero-padded to a fast length
    N >= T + L - 1, so every product of such spectra with L taps is a
    linear, not circular, convolution or correlation over lags 0..L-1."""
    return _fft_padded(a, _next_fast_len(a.shape[1] + L - 1))


def _e_step_arrays(FX, alpha, mu_pre, Fmu, gamma_pre, h, delta, lam):
    """FX and Fmu are the ``_spectrum`` of the observation and of mu_pre."""
    T = mu_pre.shape[1]
    hnorm2 = np.sum(h.real ** 2 + h.imag ** 2, axis=1)
    gamma_raw = alpha + delta[:, None] * hnorm2[:, None]

    # sum_l H_l^* [X(t+l) - sum_{l' != l} H_l' mu_pre(t+l-l')]
    #   = sum_l H_l^* R(t+l) + ||H||^2 mu_pre(t), with the residual
    # R = X - H * mu_pre (zero-extended) correlated against H^*. R is built
    # in one buffer (Fh is this call's own, so it is conjugated in place);
    # FX and Fmu are read only.
    Fh = _fft_padded(h, FX.shape[1])
    R = Fh * Fmu
    np.subtract(FX, R, out=R)
    np.multiply(np.conjugate(Fh, out=Fh), R, out=R)
    acc = ifft(R, out=R)[:, :T]
    acc += hnorm2[:, None] * mu_pre
    mu_raw = (delta[:, None] / gamma_raw) * acc

    # Moving average on the mean and on the variance (not the precision).
    inv_new = lam / gamma_pre + (1.0 - lam) / gamma_raw
    mu_new = lam * mu_pre + (1.0 - lam) * mu_raw
    return mu_new, 1.0 / inv_new


def _gram_windows(mu, Fmu, var, L):
    """Gram of the stacked-mean windows plus the variance diagonal.

    Entries follow the S-vector layout (oldest first): with w_i(t) =
    mu(t - L + 1 + i) zero outside [0, T),
    G[i, j] = sum_t w_i(t) w_j(t)* + [i == j] sum_t var(t - L + 1 + i).
    The window sum G[i, i + d] = sum_{s <= T - L + i} mu(s) mu*(s + d) is
    the full lag-d autocorrelation c_d, read off the power spectrum |Fmu|^2
    (Fmu is the ``_spectrum`` of mu), minus the products over the last
    L - 1 frames, a reverse cumulative sum over i. Cost O(F N log N + F L^2);
    with the solve that follows, the M-step is O(F N log N + F L^3).
    """
    F, T = mu.shape
    # c_d = sum_s mu(s) mu*(s + d); lags d >= T are zero by construction.
    m = min(T, L)
    c = np.zeros((F, L), dtype=np.complex128)
    c[:, :m] = rfft(Fmu.real ** 2 + Fmu.imag ** 2)[:, :m] / Fmu.shape[1]

    # With u(p) = mu(T - L + 1 + p) for p <= L - 2, zero elsewhere:
    # K[i, d] = c_d - sum_{p >= i} u(p) u*(p + d) = G[i, i + d].
    k = min(T, L - 1)
    u = np.zeros((F, 2 * L - 1), dtype=np.complex128)
    u[:, L - 1 - k: L - 1] = mu[:, T - k:]
    K = u[:, :L, None] * sliding_window_view(np.conj(u), L, axis=1)
    np.cumsum(K[:, ::-1], axis=1, out=K[:, ::-1])
    np.subtract(c[:, None, :], K, out=K)
    i, j = np.indices((L, L))
    G = K[:, np.minimum(i, j), np.abs(j - i)]
    np.conjugate(G, out=G, where=j < i)

    # Variance diagonal: G[i, i] adds the sum of var over frames before
    # T - r, r = L - 1 - i, that is the band's total less its last r frames.
    # Only the last L - 1 frames need a cumulative sum; a window wholly
    # before frame 0 (r >= T) gets an exact zero.
    r = min(T - 1, L - 1)
    dv = np.zeros((F, L))
    dv[:, L - 1] = np.sum(var, axis=1)
    tail = np.cumsum(var[:, : T - r - 1: -1], axis=1)
    dv[:, L - 1 - r: L - 1] = dv[:, L - 1:] - tail[:, ::-1]
    idx = np.arange(L)
    G[:, idx, idx] = G[:, idx, idx].real + dv
    return G


def _normal_equations(FX, mu, Fmu, gamma, L):
    """Unregularized Gram G and right-hand side b of the per-band filter
    normal equations, taps in S-vector (oldest-first) order. FX and Fmu are
    the ``_spectrum`` of the observation and of mu."""
    G = _gram_windows(mu, Fmu, 1.0 / gamma, L)
    # b[j] = sum_t X(t) mu*(t - L + 1 + j), the cross-correlation at lag L-1-j.
    # The product is formed in place: numpy elides the temporary of
    # ``FX * np.conj(Fmu)`` only above 256 KiB, and the elided product
    # rounds differently, so a band's bits would depend on its block's size.
    P = np.conj(Fmu)
    np.multiply(P, FX, out=P)
    b = ifft(P, out=P)[:, L - 1:: -1]
    # Taps whose windows lie wholly before the first frame (T < L) get exact
    # zeros, not FFT roundoff, which the near-singular solve would amplify.
    k = max(L - mu.shape[1], 0)
    G[:, :k] = G[:, :, :k] = b[:, :k] = 0.0
    return G, b


def _band_energy(X):
    """||X||^2 per band, the constant term of every fit."""
    return np.sum(X.real ** 2 + X.imag ** 2, axis=1)


def _fit(G, b, x2, hv):
    """Expected residual E||X - H * S||^2 = ||X||^2 - 2 Re<hv, b> + hv G hv^H
    at oldest-first taps hv, non-negative as G is unregularized."""
    cross = 2.0 * np.real(np.sum(hv * np.conj(b), axis=1))
    quad = np.real(
        np.matmul(hv[:, None, :], np.matmul(G, np.conj(hv)[..., None]))
    )[:, 0, 0]
    return np.maximum(x2 - cross + quad, 0.0)


def _solve_bandwise(Gjc, b, jit):
    """The batched solve one band at a time, after it failed: only a band
    whose own system is singular gets its jitter raised, so it cannot change
    the others. Returns the taps and the number of such bands."""
    idx = np.arange(Gjc.shape[1])
    hv, n_warn = np.empty_like(b), 0
    for f in range(b.shape[0]):
        G, rhs = Gjc[f: f + 1], b[f: f + 1, :, None]
        try:
            hv[f] = np.linalg.solve(G, rhs)[0, :, 0]
        except np.linalg.LinAlgError:
            n_warn += 1
            G[:, idx, idx] += 1e6 * jit[f] + 1e-12
            hv[f] = np.linalg.solve(G, rhs)[0, :, 0]
    return hv, n_warn


def _m_step_arrays(x2, FX, mu, Fmu, gamma, L):
    """x2 is the ``_band_energy`` of the observation, FX and Fmu the
    ``_spectrum`` of it and of mu."""
    T = mu.shape[1]
    idx = np.arange(L)
    G, b = _normal_equations(FX, mu, Fmu, gamma, L)

    diag_mean = np.sum(G[:, idx, idx].real, axis=1) / L
    jit = np.where(diag_mean > 0, JITTER * diag_mean, 1e-30)
    # Row-vector solve hv . Gj = b via the transposed system, Gj^T = Gj*.
    Gjc = np.conj(G)
    Gjc[:, idx, idx] += jit[:, None]
    n_warn = 0
    try:
        hv = np.linalg.solve(Gjc, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        hv, n_warn = _solve_bandwise(Gjc, b, jit)

    # Noise precision from the expected residual at the new filter.
    residual = _fit(G, b, x2, hv)
    with np.errstate(divide="ignore"):
        delta = np.where(residual > 0.0, T / residual, np.inf)
    delta = np.minimum(delta, DELTA_CAP)

    h_new = hv[:, ::-1].copy()  # back to lag order, h[:, 0] = current tap
    return delta, h_new, n_warn, residual


def _loglik_from_fit(log_alpha, alpha, mu, gamma, delta, fit):
    """T log delta - delta * fit plus the prior term, per band; log_alpha
    is np.log(alpha)."""
    power = mu.real ** 2 + mu.imag ** 2 + 1.0 / gamma
    prior_term = np.sum(log_alpha - alpha * power, axis=1)
    return mu.shape[1] * np.log(delta) - delta * fit + prior_term


def _loglik_arrays(X, alpha, mu, gamma, h, delta):
    L = h.shape[1]
    G, b = _normal_equations(_spectrum(X, L), mu, _spectrum(mu, L), gamma, L)
    fit = _fit(G, b, _band_energy(X), h[:, ::-1])
    return _loglik_from_fit(np.log(alpha), alpha, mu, gamma, delta, fit)


def _run_chunk(X, alpha, cfg, S, H, trace):
    """Full EM loop for one block of bands. Writes the block's best iterate,
    its filter and the likelihood of every iteration into the block's own
    rows ``S`` and ``H`` (S zero on entry) and columns ``trace``; returns the
    number of solver fallbacks."""
    iters, L = cfg.max_iters, cfg.ctf_len
    mu, gamma, h, delta = _init_arrays(X, alpha, L)
    # One spectrum of X for the whole block, trace row 0 included; each mu's
    # spectrum serves the M-step that follows its E-step and the next
    # E-step. ||X||^2 and log alpha are likewise computed once.
    FX, Fmu = _spectrum(X, L), _spectrum(mu, L)
    x2, log_alpha = _band_energy(X), np.log(alpha)
    G, b = _normal_equations(FX, mu, Fmu, gamma, L)
    trace[0] = _loglik_from_fit(log_alpha, alpha, mu, gamma, delta,
                                _fit(G, b, x2, h[:, ::-1]))
    H[:] = h

    best_ll = np.full(X.shape[0], -np.inf)
    n_warn = 0
    for it in range(1, iters + 1):
        # No previous iterate exists at iteration 1: the start's mu = 0 and
        # variance |X|^2 are placeholders. Blended in, that variance would
        # reach the first M-step's fit as noise and undo the start's delta.
        lam = cfg.ema if it > 1 else 0.0
        mu, gamma = _e_step_arrays(FX, alpha, mu, Fmu, gamma, h, delta, lam)
        Fmu = _spectrum(mu, L)
        delta, h, w, fit = _m_step_arrays(x2, FX, mu, Fmu, gamma, L)
        n_warn += w
        ll = _loglik_from_fit(log_alpha, alpha, mu, gamma, delta, fit)
        trace[it] = ll
        better = ll > best_ll
        best_ll = np.where(better, ll, best_ll)
        S[better] = mu[better]
        H[better] = h[better]
    return n_warn


def _check_shapes(X, alpha):
    if X.data.shape != alpha.shape:
        raise ValueError(
            f"observation {X.data.shape} and prior {alpha.shape} disagree"
        )


# ---------------------------------------------------------------------------
# Public operations.

def init(X: Spectrogram, alpha: PriorPrecision, cfg: VemConfig) -> VemState:
    """Uninformative start: gamma = 1/|X|^2, mu = 0, unit direct tap, and
    delta = 1 / max(mean_t max(|X|^2 - 1/alpha, 0), POWER_FLOOR) per band,
    the power the prior leaves unexplained."""
    _check_shapes(X, alpha)
    mu, gamma, h, delta = _init_arrays(X.data, alpha.alpha, cfg.ctf_len)
    return VemState(
        posterior=Posterior(mu, gamma),
        filter=CtfFilter(h),
        noise=NoisePrecision(delta),
    )


def e_step(state: VemState, X: Spectrogram, alpha: PriorPrecision,
           cfg: VemConfig) -> Posterior:
    """Closed-form posterior update followed by the moving-average blend.

    It blends with ``cfg.ema`` from its first call, while ``run`` applies
    the raw update at iteration 1, so ``init`` followed by ``e_step`` and
    ``m_step`` replays ``run`` only at ``ema = 0``."""
    mu_pre, L = state.posterior.mu, state.filter.num_taps
    mu, gamma = _e_step_arrays(
        _spectrum(X.data, L), alpha.alpha, mu_pre, _spectrum(mu_pre, L),
        state.posterior.gamma, state.filter.h, state.noise.delta, cfg.ema,
    )
    return Posterior(mu, gamma)


def m_step(state: VemState, X: Spectrogram,
           cfg: VemConfig) -> tuple[NoisePrecision, CtfFilter]:
    """Per-band normal-equations filter update, then the noise precision
    evaluated at the new filter (clamped to (0, DELTA_CAP])."""
    mu, L = state.posterior.mu, cfg.ctf_len
    delta, h, n_warn, _ = _m_step_arrays(
        _band_energy(X.data), _spectrum(X.data, L), mu, _spectrum(mu, L),
        state.posterior.gamma, L,
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


def run(X: Spectrogram, alpha: PriorPrecision,
        cfg: VemConfig) -> tuple[Spectrogram, CtfFilter, np.ndarray]:
    """Run the full engine and return the best per-band estimates.

    Parameters
    ----------
    X : Spectrogram
        Reverberant observation, at the scale the prior refers to.
    alpha : PriorPrecision
        Fixed prior precision, same shape as ``X.data``.
    cfg : VemConfig
        Every setting, the worker count ``cfg.threads`` included.

    Returns
    -------
    (S_hat, H_hat, trace)
        ``S_hat``: posterior-mean spectrum, per band from the iteration
        with the highest likelihood. ``H_hat``: matching filter rows.
        ``trace``: (max_iters + 1, F) likelihood values, row 0 evaluated
        at the initialization. The ``SKIP_LOW_BANDS`` lowest bands are
        zero in ``S_hat`` and ``H_hat`` and NaN in ``trace``.

    Each block of ``_BAND_CHUNK`` bands runs on its own and writes its own
    rows of ``S_hat`` and ``H_hat`` and columns of ``trace``; nothing is
    collected or copied afterwards.
    """
    _check_shapes(X, alpha)
    F, T = X.data.shape
    S = np.zeros((F, T), dtype=np.complex128)
    H = np.zeros((F, cfg.ctf_len), dtype=np.complex128)
    trace = np.full((cfg.max_iters + 1, F), np.nan)

    def work(a):
        sl = slice(a, a + _BAND_CHUNK)
        return _run_chunk(X.data[sl], alpha.alpha[sl], cfg,
                          S[sl], H[sl], trace[:, sl])

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        n_warn = sum(pool.map(work, range(SKIP_LOW_BANDS, F, _BAND_CHUNK)))
    if n_warn:
        warnings.warn(
            f"singular Gram matrix in {n_warn} update(s); jitter increased",
            RuntimeWarning,
        )

    return Spectrogram(S), CtfFilter(H), trace
