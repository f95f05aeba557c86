"""Trajectory integration on the 3-torus and chaos diagnostics.

Integration uses the adaptive embedded Runge-Kutta pair of order 8 by
Dormand and Prince (DOP853).  `_dop853` is a numpy implementation that
advances many initial conditions at once as lanes, each with its own step
size control; Lyapunov runs batch all their seeds through it and rescale
the tangent vector in place, without restarting the integrator.  Poincare
sections run on the same stepper: they collect its accepted steps and scan
their order-7 dense interpolants for crossings, a batch of steps at a time.
The field and its Jacobian are evaluated by exact trig summation from the
spectral coefficients.  Positive topological entropy is proxied by the
largest Lyapunov exponent (tangent flow with periodic renormalization);
reports label it as a proxy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
# np.einsum without `optimize` forwards to this C kernel: calling it directly
# skips only the Python wrapper and the __array_function__ dispatch (about
# 1.4 us of a call on tiny operands), and the sums stay bitwise the same
from numpy._core.multiarray import c_einsum as _einsum

from .errors import NoCrossings, StepSizeUnderflow
from .spectral import TWO_PI, SpectralVectorField

# One-time calibrated chaos threshold for the showcase amplitudes
# (1, 0.5, 0.1): half the median of the positive long-run estimates over
# 20 separatrix seeds at T = 1e5 (scripts/calibrate_chaos_threshold.py,
# frozen output in scripts/chaos_threshold.json).
CHAOS_THRESHOLD = 0.023942274037632105

# pieces of each accepted step that poincare brackets crossings on
POINCARE_SUBSAMPLES = 8
# accepted steps whose dense output poincare builds and searches at once:
# at most _SECTION_CHUNK, and _SECTION_TAIL once the next crossing may be the last
_SECTION_CHUNK = 64
_SECTION_TAIL = 8


@dataclass(frozen=True)
class PoincareSection:
    """Crossings of the plane x[axis] = level with the declared velocity sign."""

    axis: int
    level: float
    direction: int
    points: np.ndarray  # (m, 2): the two non-section coordinates, wrapped
    times: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class LyapunovEstimate:
    """Largest-exponent estimate with its running history (t, estimate)."""

    lambda_max: float
    history: np.ndarray
    renorm_interval: float

    def tail_spread(self):
        """Range of the estimate over the last tenth of its history (at least two entries)."""
        m = max(2, len(self.history) // 10)
        tail = self.history[-m:, 1]
        return float(np.max(tail) - np.min(tail))


@dataclass(frozen=True)
class FirstIntegralReport:
    """Constancy gap of a candidate integral and sup |grad F . v| on a grid."""

    range_gap: float
    derivative_sup: float


# Dormand-Prince 8(5,3) coefficients (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 1993), stored as exact float reprs: A
# (16 x 16: the 12 stages, the solution row and the 3 extra stages of the
# dense output), B, C, the error weights E3 and E5, and D
_TABLEAU = {name: np.array(values) for name, values in json.loads(
    resources.files(__package__).joinpath("dop853.json").read_text()).items()}
_STAGES = len(_TABLEAU["B"])  # right-hand sides per attempt
_A, _B, _C = _TABLEAU["A"][:_STAGES, :_STAGES], _TABLEAU["B"], _TABLEAU["C"][:_STAGES]
# error weights; the 3rd-order row is scaled by 1/10 so that its squared
# norm carries scipy's weight 0.01
_E = np.stack([_TABLEAU["E5"], 0.1 * _TABLEAU["E3"]])
# stage and solution weights over Z = [y, h K_0, ..., h K_{STAGES-1}]
_ZA = [np.concatenate([[1.0], _A[s, :s]]) for s in range(_STAGES)]
_ZB = np.concatenate([[1.0], _B])
# dense output: rows of A for its 3 extra stages, and the weights over all
# 16 stages of the 4 highest coefficients of the interpolant
_A_DENSE, _D = _TABLEAU["A"][_STAGES + 1:], _TABLEAU["D"]

# step-size control of scipy's DOP853; -1/8 is -1 / (error order 7 + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


@dataclass(frozen=True)
class _Run:
    y: np.ndarray         # (L, n) states at the end
    logs: np.ndarray      # (L, chunks) log norms removed at each renormalization
    attempts: np.ndarray  # (L,) step attempts, accepted or rejected


def _rms(z):
    return np.sqrt(_einsum("ln,ln->l", z, z) / z.shape[1])[:, None]


def _initial_step(rhs, y, f, tol, span):
    """Per-lane first step (column), by the rule of scipy's select_initial_step."""
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    d2 = _rms((rhs(None, y + h0 * f) - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
    return np.minimum(np.minimum(100.0 * h0, h1), span)


def _stage_views(Z):
    """(weights, rows they weigh, row to fill) for stages 1 .. STAGES-1 of Z."""
    return [(_ZA[s], Z[:s + 1], Z[s + 1]) for s in range(1, _STAGES)]


def _dop853(rhs, y0, tol, t_end, renorm=None, on_step=None):
    """Advance the rows of y0 (lanes) from t = 0 to t_end with DOP853.

    Every lane runs its own step-size control with scipy's rules at
    rtol = atol = tol: safety 0.9, step factor in [0.2, 10], exponent -1/8,
    no growth on the step after a rejection, StepSizeUnderflow below ten
    ulps of t.  Steps are clipped to land on the lane's next boundary:
    t_end or, with `renorm`, every k * renorm for k up to
    round(t_end / renorm).  At a renorm boundary the tangent block
    y[:, 3:] is divided by its norm, and so is its stored derivative (first
    same as last; J w is linear in w), so the integration goes on without
    a restart.  Lanes that are done leave the batch.  All contractions are
    einsums, never BLAS, so each lane's arithmetic is bitwise independent
    of the other lanes.  `rhs(t, Y)` must be autonomous; it is called with
    t = None.

    `on_step`, for a single lane, is called after every accepted step as
    on_step(t_old, t_new, Z, y_new), Z being the (STAGES + 2, n) rows
    [y_old, h K_0, ..., h K_{STAGES-1}, h f(y_new)] of the step; a true
    return value ends the run there, leaving the end state NaN.
    """
    y0 = np.asarray(y0, dtype=float)
    L, n = y0.shape
    chunks = 1 if renorm is None else int(round(t_end / renorm))
    span = t_end if renorm is None else renorm
    run = _Run(y=np.full_like(y0, np.nan), logs=np.zeros((L, chunks)),
               attempts=np.zeros(L, dtype=int))
    f = rhs(None, y0)
    if not np.all(np.isfinite(f)):
        raise StepSizeUnderflow("right-hand side not finite at the initial state")
    # Z[0] is y, Z[1 + s] is h times stage s; the last row holds h f(y_new)
    Z = np.empty((_STAGES + 2, L, n))
    Z[0] = y0
    stages = _stage_views(Z)
    lane = np.arange(L)
    chunk = np.zeros(L, dtype=int)
    # per-lane scalars are (L, 1) columns so that they broadcast over y
    t = np.zeros((L, 1))
    bound = np.full((L, 1), float(span))
    cap = np.full((L, 1), _MAX_FACTOR)  # 1 right after a rejection
    attempt = 0
    tol2n = n * tol * tol
    with np.errstate(divide="ignore", invalid="ignore"):
        h = _initial_step(rhs, y0, f, tol, span)
        while lane.size:
            attempt += 1
            small = h < 10.0 * np.spacing(t)
            if np.count_nonzero(small):
                stalled = small & (cap == 1.0)
                if np.count_nonzero(stalled):
                    raise StepSizeUnderflow(f"step size underflow at t = {t[stalled][0]:.6g}")
                h = np.where(small, 10.0 * np.spacing(t), h)
            t_new = np.minimum(t + h, bound)
            h = t_new - t
            np.multiply(f, h, out=Z[1])
            for weights, done_stages, stage in stages:
                np.multiply(rhs(None, _einsum("j,jln->ln", weights, done_stages)), h,
                            out=stage)
            y_new = _einsum("j,jln->ln", _ZB, Z[:_STAGES + 1])
            f_new = rhs(None, y_new)
            np.multiply(f_new, h, out=Z[-1])

            # scipy's error norm |h| e5 / sqrt((e5 + e3 / 100) n), e5 and e3 the
            # squared norms of K^T E over tol (1 + max(|y|, |y_new|)); with h K
            # in Z the factors of h cancel, and those of tol are in tol2n
            err = _einsum("ej,jln->eln", _E, Z[1:])
            scale = np.maximum(np.abs(Z[0]), np.abs(y_new))
            scale += 1.0
            err /= scale
            e5, e3 = _einsum("eln,eln->el", err, err).reshape(2, -1, 1)
            norm = np.where(e5 == 0.0, 0.0, e5 / np.sqrt((e5 + e3) * tol2n))
            ok = norm < 1.0
            # accepted: norm < 1, so the factor is above 0.9 and only the cap
            # applies; rejected (NaN included): at most 0.9, at least 0.2
            h *= np.fmin(np.fmax(_SAFETY * norm ** _EXPONENT, _MIN_FACTOR), cap)
            cap = np.where(ok, _MAX_FACTOR, 1.0)
            if on_step is not None and ok[0, 0] and on_step(t[0, 0], t_new[0, 0], Z[:, 0],
                                                             y_new[0]):
                break
            t = np.where(ok, t_new, t)
            np.copyto(Z[0], y_new, where=ok)
            np.copyto(f, f_new, where=ok)

            landed = t == bound  # only a step just accepted lands
            if not np.count_nonzero(landed):
                continue
            landed = np.flatnonzero(landed)
            if renorm is not None:
                nrm = np.linalg.norm(Z[0, landed, 3:], axis=1)[:, None]
                run.logs[lane[landed], chunk[landed]] = np.log(nrm[:, 0])
                Z[0, landed, 3:] /= nrm
                f[landed, 3:] /= nrm
            chunk[landed] += 1
            bound[landed] = (chunk[landed, None] + 1) * span
            done = chunk == chunks
            if np.count_nonzero(done):
                run.y[lane[done]] = Z[0, done]
                run.attempts[lane[done]] = attempt
                keep = ~done
                lane, chunk, t, bound, cap, h, f = (
                    a[keep] for a in (lane, chunk, t, bound, cap, h, f))
                Z = np.ascontiguousarray(Z[:, keep])
                stages = _stage_views(Z)
    return run


def field_rhs(v: SpectralVectorField):
    """RHS closure dx/dt = v(x) by direct trig summation; x of shape (3,) or (L, 3)."""
    K, C = v.K.astype(float), v.C

    def rhs(t, y):
        e = np.exp(1j * (y @ K.T))
        return (e @ C).real

    return rhs


def tangent_rhs(v: SpectralVectorField):
    """Batched RHS for lanes (x, w), w a tangent vector: dw = J(x) w.

    A lane is a row [x, w] of the (L, 6) state.  Each pair of modes +-k,
    rows i and m-1-i of the sorted mode arrays, is folded into one
    wavevector k with cosine and sine coefficients P, Q, so that with
    theta_m = k_m . x the field is sum_m P_m cos theta_m - Q_m sin theta_m
    and J w = -sum_m (Q_m cos theta_m + P_m sin theta_m) (k_m . w).  Both
    contractions are einsums over fixed block matrices.  The returned
    function reuses its work arrays from call to call, so one instance must
    not run in two threads at once.
    """
    m = (len(v.K) + 1) // 2
    K = v.K[:m]
    fold = v.C[:m] + np.conj(v.C[::-1][:m])  # cos is even and sin odd in k
    if len(v.K) % 2:  # k = 0 pairs with itself
        fold[-1] = v.C[m - 1]
    P, Q = fold.real, fold.imag
    # phases a[:, j]: theta_m for j = 0, k_m . w for j = 1
    to_phase = np.zeros((6, 2, m))
    to_phase[:3, 0] = to_phase[3:, 1] = K.T
    # [cos, sin] x [1, k_m . w] x modes -> state derivative
    to_rate = np.zeros((2, 2, m, 6))
    to_rate[0, 0, :, :3] = P
    to_rate[1, 0, :, :3] = -Q
    to_rate[0, 1, :, 3:] = -Q
    to_rate[1, 1, :, 3:] = -P

    scratch = {}  # lane count -> work arrays and their views, so calls allocate less

    def rhs(t, y):
        L = len(y)
        if L not in scratch:
            a = np.empty((L, 2, m))
            z = np.empty((L, 2, 2, m))
            scratch[L] = (a, a[:, 0], a[:, None, 1:], z, z[:, 0, 0], z[:, 1, 0],
                          z[:, :, :1], z[:, :, 1:])
        a, theta, kw, z, cos, sin, trig, prod = scratch[L]
        _einsum("ln,njm->ljm", y, to_phase, out=a)
        np.cos(theta, out=cos)
        np.sin(theta, out=sin)
        np.multiply(trig, kw, out=prod)
        return _einsum("lsjm,sjmn->ln", z, to_rate)

    return rhs


def _interpolate(F, y0, x):
    """DOP853 dense output y0 + x (F0 + (1 - x) (F1 + x (F2 + ...))) at step fraction x."""
    y = np.zeros(np.broadcast_shapes(F.shape[1:], np.shape(x)))
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1.0 - x
    return y + y0


def _brackets(q, level):
    """Pieces whose ends q[:, a], q[:, a + 1] bracket a level copy level + 2 pi m.

    Returns flat indices into q[:, :-1] and the copies they bracket, by
    piece and then by ascending m.  A piece that starts exactly on a copy
    (so also a piece with q constant) does not bracket it: that is the
    start point, or a crossing the previous piece ended on.
    """
    qa, qb = q[:, :-1].ravel(), q[:, 1:].ravel()
    mlo = np.ceil((np.minimum(qa, qb) - level) / TWO_PI)
    mhi = np.floor((np.maximum(qa, qb) - level) / TWO_PI)
    count = np.maximum(mhi - mlo + 1, 0).astype(int)
    piece = np.repeat(np.arange(qa.size), count)
    m = mlo[piece] + np.arange(piece.size) - np.repeat(np.cumsum(count) - count, count)
    target = level + TWO_PI * m
    start, end = qa[piece] - target, qb[piece] - target
    keep = (start != 0.0) & ~(start * end > 0.0)
    return piece[keep], target[keep]


def _chunk_crossings(rhs, W, spans, axis, level, direction):
    """Times, other coordinates (wrapped) and residuals of the crossings of
    x[axis] = level + 2 pi m with velocity sign `direction`, in order, on the
    dense output of accepted steps: rows [y_old, h K_0 .. h K_15, y_new] of
    W (K_13 .. K_15, the extra stages, are filled here by one batched `rhs`
    call each) over the (t_old, t_new) `spans`.  Brackets come from
    `_brackets` on POINCARE_SUBSAMPLES pieces per step whose ends at the step
    boundaries are the exact states; roots from bisection to full resolution.
    """
    (t0, t1), y0, HK = spans.T, W[:, 0], W[:, 1:-1]
    h = (t1 - t0)[:, None]
    for s, a in enumerate(_A_DENSE, start=_STAGES + 1):
        HK[:, s] = h * rhs(None, y0 + _einsum("j,sjn->sn", a[:s], HK[:, :s]))
    F = np.empty((7,) + y0.shape)
    F[0] = W[:, -1] - y0
    F[1] = HK[:, 0] - F[0]
    F[2] = 2.0 * F[0] - (HK[:, _STAGES] + HK[:, 0])
    F[3:] = _einsum("dj,sjn->dsn", _D, HK)

    x = np.arange(POINCARE_SUBSAMPLES + 1) / POINCARE_SUBSAMPLES
    q = _interpolate(F[:, :, axis, None], y0[:, axis, None], x)
    q[:, -1] = W[:, -1, axis]
    piece, target = _brackets(q, level)
    step, a = np.divmod(piece, POINCARE_SUBSAMPLES)
    Fq, yq = F[:, step, axis], y0[step, axis]
    lo, hi, side = x[a], x[a + 1], np.sign(q[step, a] - target)  # side != 0: see _brackets
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not np.count_nonzero(live):
            break
        up = live & (np.sign(_interpolate(Fq, yq, mid) - target) == side)
        lo, hi = np.where(up, mid, lo), np.where(live & ~up, mid, hi)
    xc = _interpolate(F[:, step], y0[step], hi[:, None])
    keep = np.sign(rhs(None, xc)[:, axis]) == direction
    return ((t0[step] + h[step, 0] * hi)[keep], np.mod(np.delete(xc[keep], axis, axis=1), TWO_PI),
            np.abs(xc[keep, axis] - target[keep]))


def poincare(v: SpectralVectorField, plane, direction, x0, N: int,
             tol=1e-10, max_time=10000.0) -> PoincareSection:
    """First N crossings of the plane x[axis] = level with the given velocity sign.

    The lane stepper's accepted steps are searched in chunks
    (`_chunk_crossings`), and the run stops once N crossings are found.  A
    chunk spans half the steps that the rate of crossings so far expects
    before the last crossing but one, between _SECTION_TAIL and
    _SECTION_CHUNK steps, so the run ends a few steps past its Nth crossing.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    axis, level = int(plane[0]), float(plane[1])
    direction = int(np.sign(direction))
    if direction == 0:
        raise ValueError("direction must be +1 or -1")
    rhs = field_rhs(v)
    W = np.empty((_SECTION_CHUNK, len(_TABLEAU["A"]) + 2, 3))
    spans, found = np.empty((_SECTION_CHUNK, 2)), []
    size, chunk, scanned = 0, _SECTION_CHUNK, 0

    def scan():
        nonlocal size, chunk, scanned
        if size:
            found.append(_chunk_crossings(rhs, W[:size], spans[:size], axis, level, direction))
        scanned += size
        size = 0
        count = sum(len(times) for times, _, _ in found)
        if count:  # half the steps the rate so far expects before crossing N - 1
            expected = scanned * (N - count - 1) // (2 * count)
            chunk = min(_SECTION_CHUNK, max(_SECTION_TAIL, expected))
        return count >= N

    def on_step(t_old, t_new, Z, y_new):
        nonlocal size
        W[size, :_STAGES + 2], W[size, -1], spans[size] = Z, y_new, (t_old, t_new)
        size += 1
        return size == chunk and scan()

    _dop853(rhs, np.asarray(x0, dtype=float)[None], tol, max_time, on_step=on_step)
    scan()
    times, points, residuals = (np.concatenate(parts)[:N] for parts in zip(*found))
    if len(times) < N:
        raise NoCrossings(f"found {len(times)} of {N} requested crossings within t <= {max_time}")
    return PoincareSection(axis=axis, level=level, direction=direction, points=points,
                           times=times, residuals=residuals)


def check_horizon(T: float, renorm: float):
    """Raise ValueError unless T > renorm > 0 and T is a whole number of
    renorm intervals (to 1e-9 relative): a Lyapunov run ends on its last
    renormalization, at round(T / renorm) * renorm."""
    if not T > renorm > 0:
        raise ValueError(f"needs T > renorm > 0, got T = {T} and renorm = {renorm}")
    if not np.isfinite(T / renorm):
        raise ValueError(f"T / renorm overflows, got T = {T} and renorm = {renorm}")
    if abs(T - round(T / renorm) * renorm) > 1e-9 * T:
        raise ValueError(f"T = {T} must be a whole number of renorm = {renorm} intervals")


def lyapunov_max(v: SpectralVectorField, x0s, T: float, renorm: float,
                 tol=1e-9):
    """Largest Lyapunov exponents by tangent-flow renormalization (Benettin et al. 1980).

    Integrates (x, w) with dw = J(x) w for every start point at once, one
    lane each, rescaling w to unit length every `renorm` time units and
    averaging the accumulated log stretching.  The Jacobian comes from
    exact spectral differentiation of the field.  `x0s` of shape (L, 3)
    gives a list of L estimates; a single point of shape (3,) gives one.
    T must be a whole number of renorm intervals (`check_horizon`).
    """
    check_horizon(T, renorm)
    x0s = np.asarray(x0s, dtype=float)
    single = x0s.ndim == 1
    x0s = np.atleast_2d(x0s)
    if x0s.ndim != 2 or x0s.shape[1] != 3:
        raise ValueError("x0s must have shape (3,) or (L, 3)")
    w0 = np.array([0.6, 0.64, 0.48])
    w0 /= np.linalg.norm(w0)
    y0 = np.concatenate([x0s, np.broadcast_to(w0, x0s.shape)], axis=1)
    run = _dop853(tangent_rhs(v), y0, tol, T, renorm=renorm)
    times = renorm * np.arange(1, run.logs.shape[1] + 1)
    estimates = []
    for logs in run.logs:
        history = np.column_stack([times, np.cumsum(logs) / times])
        estimates.append(LyapunovEstimate(lambda_max=float(history[-1, 1]),
                                          history=history, renorm_interval=renorm))
    return estimates[0] if single else estimates


def first_integral_report(v: SpectralVectorField, F, grid: int) -> FirstIntegralReport:
    """Range gap of F and sup |grad F . v| over the uniform grid."""
    from .spectral import evaluate_on_grid

    n = max(grid, 2 * max(v.truncation_radius, F.truncation_radius) + 1)
    fvals = evaluate_on_grid(F, n)
    gap = float(np.max(fvals) - np.min(fvals))
    gF = F.gradient()
    gvals = evaluate_on_grid(gF, n)
    vvals = evaluate_on_grid(v, n)
    dsup = float(np.max(np.abs(np.sum(gvals * vvals, axis=-1))))
    return FirstIntegralReport(range_gap=gap, derivative_sup=dsup)


def separatrix_seeds(b: float, count: int, base_key=7):
    """Deterministic seeds near the C = 0 integrable separatrix level.

    For the C = 0 field with A = 1 the quantity cos(x3) + b sin(x1) is
    conserved; its saddle level 1 - b carries the layer that turns chaotic
    once C > 0.  Seeds are placed on that level with a jitter of at most 0.02.
    """
    seeds = []
    for j in range(count):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([base_key, j], dtype=np.uint64))
        )
        x1 = gen.uniform(0.0, TWO_PI)
        x2 = gen.uniform(0.0, TWO_PI)
        target = 1.0 - b + gen.uniform(-0.02, 0.02)
        c3 = np.clip(target - b * math.sin(x1), -1.0, 1.0)
        seeds.append(np.array([x1, x2, math.acos(c3)]))
    return seeds


def random_torus_seeds(count: int, base_key=11):
    """Deterministic uniform initial conditions on the torus."""
    seeds = []
    for j in range(count):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([base_key, j], dtype=np.uint64))
        )
        seeds.append(gen.uniform(0.0, TWO_PI, size=3))
    return seeds
