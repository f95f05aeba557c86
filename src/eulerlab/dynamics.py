"""Trajectory integration on the 3-torus and chaos diagnostics.

Integration uses the adaptive embedded Runge-Kutta pair of order 8 by
Dormand and Prince (DOP853).  `_dop853` is a numpy implementation that
advances many initial conditions at once as lanes, each with its own step
size control; Lyapunov runs batch all their seeds through it and rescale
the tangent vector in place, without restarting the integrator.  Poincare
sections run on the same stepper: they collect its accepted steps and scan
their order-7 dense interpolants for crossings, a batch of steps at a time,
and refine each crossing by k-section.

The field is a sum over folded modes k_m (one of each pair +-k) of cosines
and sines of the phases theta_m = k_m . x.  Each lane's row carries these
phases next to its state (and k_m . w next to a tangent vector w), and a
slope row carries k_m . slope, so the phases of a stage state come out of
the same weighted sum of rows as the state, and a right-hand side takes
cos and sin of them directly.  Accepted states get their phases recomputed
from the state, so they never drift.  Positive topological entropy is
proxied by the largest Lyapunov exponent (tangent flow with periodic
renormalization); reports label it as a proxy.
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

from .errors import MemoryBudgetExceeded, NoCrossings, StepBudgetExceeded, StepSizeUnderflow
from .spectral import TWO_PI, SpectralVectorField, grid_slabs

# One-time calibrated chaos threshold for the showcase amplitudes
# (1, 0.5, 0.1): half the median of the positive long-run estimates over
# 20 separatrix seeds at T = 1e5 (scripts/calibrate_chaos_threshold.py,
# frozen output in scripts/chaos_threshold.json).
CHAOS_THRESHOLD = 0.023942274037632105

# most renormalization intervals of a Lyapunov run: _dop853 keeps an
# (L, intervals) log array (criterion 4 uses 2,000, the calibration 20,000)
MAX_RENORM_INTERVALS = 100_000

# most step attempts a run may be estimated to need over all its lanes
# (`check_step_budget`): the calibration (20 lanes to T = 1e5) estimates
# 8.5e7 on the showcase field
MAX_ESTIMATED_ATTEMPTS = 1e8

# most bytes the lanes of one run may be estimated to hold
# (`check_step_budget`, `_lane_bytes`): 8.0 kB a showcase lane to T = 1e3
# at renorm 5, so some 134,000 such lanes
MAX_LANE_BYTES = 2 ** 30

# pieces of each accepted step that poincare brackets crossings on
POINCARE_SUBSAMPLES = 8
# k-section (`_refine`): a bracket wider than _KSECTION_WIDTH (in step
# fractions) is split into _KSECTION pieces at once; node i of the split
# (1 .. _KSECTION - 1) is a bisection midpoint on level lowbit(i)
_KSECTION, _KSECTION_WIDTH = 64, 2.0 ** -40
_KSECTION_NODES = np.arange(1.0, _KSECTION)
_KSECTION_LOWBIT = np.arange(1, _KSECTION) & -np.arange(1, _KSECTION)
_KSECTION_LEVELS = [_KSECTION >> i for i in range(1, _KSECTION.bit_length())]  # 32, .., 1
# accepted steps whose dense output poincare builds and searches at once:
# at most _SECTION_CHUNK, and _SECTION_TAIL once the next crossing may be the last
_SECTION_CHUNK = 64
_SECTION_TAIL = 8


@dataclass(frozen=True)
class PoincareSection:
    """Crossings of a plane x[axis] = level with a declared velocity sign."""

    points: np.ndarray  # (m, 2): the two non-section coordinates, wrapped
    times: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class LyapunovEstimate:
    """Largest-exponent estimate with its running history (t, estimate)."""

    lambda_max: float
    history: np.ndarray

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
# stage and solution weights over the slopes K_0, ..., K_{STAGES-1}: row
# s - 1 makes stage s (1 <= s < STAGES), the last row the solution; each
# attempt multiplies them by its lanes' h (the weight of y is 1)
_ZW = np.zeros((_STAGES, _STAGES))
for _s in range(1, _STAGES):
    _ZW[_s - 1, :_s] = _A[_s, :_s]
_ZW[-1] = _B
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


def _initial_step(rhs, y, f, n, tol, span):
    """Per-lane first step (column), by the rule of scipy's select_initial_step
    on the states y[:, :n] and their slopes f[:, :n]."""
    scale = tol + np.abs(y[:, :n]) * tol
    d0, d1 = _rms(y[:, :n] / scale), _rms(f[:, :n] / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, span)
    d2 = _rms((rhs(None, y + h0 * f) - f)[:, :n] / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** (1.0 / 8.0))
    return np.minimum(np.minimum(100.0 * h0, h1), span)


def _attempt_buffers(Z, n):
    """An attempt's work arrays and the views of them and of Z it uses: the
    stage buffer S (each stage state, then the solution), the weights of the
    slopes (those of y are 1), (weights, rows, slope row to fill) per stage
    1 .. STAGES-1, the solution's, and what the error norm reads and writes."""
    L = Z.shape[1]
    S = np.empty(Z.shape[1:])
    weights = np.empty((L, _STAGES, _STAGES + 1))
    weights[:, :, 0] = 1.0
    stages = [(weights[:, s - 1, :s + 1], Z[:s + 1], Z[s + 1]) for s in range(1, _STAGES)]
    return (S, S[:, :n], S[:, n:], weights[:, :, 1:], stages, weights[:, -1], Z[:_STAGES + 1],
            np.empty((2, L, n)), np.empty((L, n)), np.empty((L, n)), Z[1:, :, :n], Z[0, :, :n])


def _dop853(rhs, y0, tol, t_end, renorm=None, on_step=None, *, phases):
    """Advance the rows of y0 (lanes) from t = 0 to t_end with DOP853.

    Every lane runs its own step-size control with scipy's rules at
    rtol = atol = tol: safety 0.9, step factor in [0.2, 10], exponent -1/8,
    no growth on the step after a rejection, StepSizeUnderflow below ten
    ulps of t.  Steps are clipped to land on the lane's next boundary:
    t_end or, with `renorm`, every k * renorm for k up to
    round(t_end / renorm).  At a renorm boundary the tangent block
    y[:, 3:] is divided by its norm (and its phases recomputed), and so is
    its stored derivative with its phase rates (first same as last; J w is
    linear in w), so the integration goes on without a restart.  Lanes that are done leave the batch.  All contractions are
    einsums, never BLAS, so each lane's arithmetic is bitwise independent
    of the other lanes.  `rhs(t, Y, out=None)` must be autonomous and
    write the slope rows of Y into `out` (a fresh array when None).  Each
    attempt calls it with t = None once per stage, on one stage buffer (the
    same array until lanes leave the batch) with `out` the stage's row of
    Z, so a kernel may keep its views of that buffer.

    A lane's row is its state y followed by its phases y @ `phases` (an
    (n, p) matrix, `phase_matrix`), and `rhs` maps
    such rows to slope rows, whose last p columns are the phase rates.
    Stages combine whole rows; the solution's phases are recomputed from
    its state.  The weights of an attempt are the tableau's times each
    lane's h, so rows hold raw slopes.  The error norm is scipy's: the
    error of the states over tol (1 + max(|y|, |y_new|)), squared, and |h|
    once at the end.

    `on_step`, for a single lane, is called after every accepted step as
    on_step(t_old, t_new, Z, y_new), Z being the (STAGES + 2, n + p) rows
    [y_old, K_0, ..., K_{STAGES-1}, f(y_new)] of the step; a true return
    value ends the run there, leaving the end state NaN.  Z and y_new are
    views of the stepper's arrays, y_new of the stage buffer: they hold
    their values only during the call (`poincare` copies them).
    """
    y0 = np.asarray(y0, dtype=float)
    L, n = y0.shape
    # columns of a row that scale with the tangent block: w and its phases
    tangent = np.concatenate([np.arange(n) >= 3, ~np.any(phases[:3] != 0.0, axis=0)])
    chunks = 1 if renorm is None else int(round(t_end / renorm))
    span = t_end if renorm is None else renorm
    run = _Run(y=np.full_like(y0, np.nan), logs=np.zeros((L, chunks)),
               attempts=np.zeros(L, dtype=int))
    # Z[0] is y, Z[1 + s] is stage s (Z[1] = f(y)); the last row holds f(y_new)
    Z = np.empty((_STAGES + 2, L, n + phases.shape[1]))
    Z[0, :, :n] = y0
    _einsum("ln,np->lp", y0, phases, out=Z[0, :, n:])
    rhs(None, Z[0], out=Z[1])
    if not np.all(np.isfinite(Z[1])):
        raise StepSizeUnderflow("right-hand side not finite at the initial state")
    (S, state_new, phases_new, weights, stages, solution, rows, err, scale, scale_new, slopes,
     y) = _attempt_buffers(Z, n)
    lane = np.arange(L)
    chunk = np.zeros(L, dtype=int)
    # per-lane scalars are (L, 1) columns so that they broadcast over y
    t = np.zeros((L, 1))
    bound = np.full((L, 1), float(span))
    cap = np.full((L, 1), _MAX_FACTOR)  # 1 right after a rejection
    attempt = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = _initial_step(rhs, Z[0], Z[1], n, tol, span)
        while lane.size:
            attempt += 1
            small = ~(h >= 10.0 * np.spacing(t))  # a NaN step is small
            if np.count_nonzero(small):
                stalled = small & (cap == 1.0)
                if np.count_nonzero(stalled):
                    raise StepSizeUnderflow(f"step size underflow at t = {t[stalled][0]:.6g}")
                h = np.where(small, 10.0 * np.spacing(t), h)
            t_new = np.minimum(t + h, bound)
            h = t_new - t
            np.multiply(h[:, :, None], _ZW, out=weights)
            for w, done_stages, stage in stages:
                _einsum("lj,jlr->lr", w, done_stages, out=S)
                rhs(None, S, out=stage)
            _einsum("lj,jlr->lr", solution, rows, out=S)
            _einsum("ln,np->lp", state_new, phases, out=phases_new)
            rhs(None, S, out=Z[-1])

            # scipy's error norm |h| e5 / sqrt((e5 + e3 / 100) n), e5 and e3
            # the squared norms of K^T E over tol (1 + max(|y|, |y_new|))
            _einsum("ej,jln->eln", _E, slopes, out=err)
            np.maximum(np.abs(y, scale), np.abs(state_new, scale_new), out=scale)
            scale += 1.0
            scale *= tol
            err /= scale
            e5, e3 = _einsum("eln,eln->el", err, err).reshape(2, -1, 1)
            norm = np.where(e5 == 0.0, 0.0, h * e5 / np.sqrt((e5 + e3) * n))
            ok = norm < 1.0
            # accepted: norm < 1, so the factor is above 0.9 and only the cap
            # applies; rejected (NaN included): at most 0.9, at least 0.2
            h *= np.fmin(np.fmax(_SAFETY * norm ** _EXPONENT, _MIN_FACTOR), cap)
            cap = np.where(ok, _MAX_FACTOR, 1.0)
            if on_step is not None and ok[0, 0] and on_step(t[0, 0], t_new[0, 0], Z[:, 0], S[0]):
                break
            t = np.where(ok, t_new, t)
            np.copyto(Z[0], S, where=ok)
            np.copyto(Z[1], Z[-1], where=ok)

            landed = t == bound  # only a step just accepted lands
            if not np.count_nonzero(landed):
                continue
            landed = np.flatnonzero(landed)
            if renorm is not None:
                nrm = np.linalg.norm(Z[0, landed, 3:n], axis=1)[:, None]
                run.logs[lane[landed], chunk[landed]] = np.log(nrm[:, 0])
                Z[0, landed, 3:n] /= nrm
                Z[0, landed, n:] = _einsum("ln,np->lp", Z[0, landed, :n], phases)
                Z[1, landed[:, None], tangent] /= nrm
            chunk[landed] += 1
            bound[landed] = (chunk[landed, None] + 1) * span
            done = chunk == chunks
            if np.count_nonzero(done):
                run.y[lane[done]] = Z[0, done, :n]
                run.attempts[lane[done]] = attempt
                keep = ~done
                lane, chunk, t, bound, cap, h = (a[keep] for a in (lane, chunk, t, bound, cap, h))
                Z = np.ascontiguousarray(Z[:, keep])
                (S, state_new, phases_new, weights, stages, solution, rows, err, scale, scale_new,
                 slopes, y) = _attempt_buffers(Z, n)
    return run


def _folded_modes(v: SpectralVectorField):
    """Wave vectors k_m (float, (m, 3)) and cosine and sine coefficients P, Q
    ((m, 3) each) with v(x) = sum_m P_m cos theta_m - Q_m sin theta_m,
    theta_m = k_m . x.

    Each pair of modes +-k, rows i and M-1-i of the M sorted mode arrays, is
    folded into the one of them that comes first (cos is even and sin odd in
    k); an unpaired k = 0 keeps its coefficient.
    """
    m = (len(v.K) + 1) // 2
    fold = v.C[:m] + np.conj(v.C[::-1][:m])
    if len(v.K) % 2:  # k = 0 pairs with itself
        fold[-1] = v.C[m - 1]
    return v.K[:m].astype(float), fold.real, fold.imag


def phase_matrix(v: SpectralVectorField, tangent=False):
    """(n, p) matrix taking a lane's state to its phases, the columns that
    follow the state in the lane's row: theta_m = k_m . x over the folded
    modes of v, and for tangent lanes (x, w) then k_m . w."""
    K = _folded_modes(v)[0]
    return np.kron(np.eye(2 if tangent else 1), K.T)


def _row_kernel(v: SpectralVectorField, tangent):
    """Right-hand side on lane rows [state, phases] (`phase_matrix`) -> slope rows.

    With c_m = cos theta_m and s_m = sin theta_m the field is
    sum_m P_m c_m - Q_m s_m, and for a tangent lane (x, w) the tangent
    derivative is J w = -sum_m (Q_m c_m + P_m s_m) (k_m . w).  [c, s] (times
    [1, k_m . w] for tangent lanes) are contracted by one einsum with a
    fixed matrix whose last p columns are the phase rates of its first n.

    The returned rhs(t, y, out=None) writes into `out` (a fresh array when
    None).  It keeps a work array and its views of the last `y` (the theta_m
    and k_m . w columns), rebuilt only when another array object comes in;
    holding that array keeps its identity from being reused.  One instance
    must not run in two threads at once.
    """
    K, P, Q = _folded_modes(v)
    G = phase_matrix(v, tangent)
    m, blocks = len(K), 2 if tangent else 1
    # [cos, sin] x [1, k_m . w] x modes -> state derivative, then its phases
    to_state = np.zeros((2, blocks, m, G.shape[0]))
    to_state[0, 0, :, :3] = P
    to_state[1, 0, :, :3] = -Q
    if tangent:
        to_state[0, 1, :, 3:] = -Q
        to_state[1, 1, :, 3:] = -P
    to_rate = np.concatenate([to_state, np.einsum("sjmn,np->sjmp", to_state, G)], axis=-1)
    to_rate = to_rate.reshape(-1, to_rate.shape[-1])
    start = G.shape[0]  # theta_m in row columns start .. start + m, k_m . w after them

    last = [None, None]  # the last y and the work array and views made for it

    def rhs(t, y, out=None):
        if y is not last[0]:
            z = np.empty((len(y), 2, blocks, m))
            last[:] = y, (z.reshape(len(y), len(to_rate)), z[:, 0, 0], z[:, 1, 0], z[:, :, :1],
                          z[:, :, 1:], y[:, start:start + m], y[:, None, None, start + m:])
        z, cos, sin, trig, prod, theta, kw = last[1]
        np.cos(theta, cos)
        np.sin(theta, sin)
        if tangent:
            np.multiply(trig, kw, prod)
        if out is None:
            out = np.empty((len(y), to_rate.shape[1]))
        return _einsum("lk,kr->lr", z, to_rate, out=out)

    return rhs


def field_rhs(v: SpectralVectorField):
    """Right-hand side dx/dt = v(x) on field-lane rows [x, theta] (L, 3 + m)
    -> slope rows [v(x), k_m . v(x)]; the rows' phases are
    `phase_matrix(v)`'s.  See `_row_kernel`."""
    return _row_kernel(v, tangent=False)


def tangent_rhs(v: SpectralVectorField):
    """Right-hand side of the tangent flow dx = v(x), dw = J(x) w on lane
    rows [x, w, theta, k_m . w] (L, 6 + 2m) -> slope rows [v, J w,
    k_m . v, k_m . J w]; the rows' phases are `phase_matrix(v, tangent=True)`'s.
    See `_row_kernel`."""
    return _row_kernel(v, tangent=True)


def _interpolate(F, y0, x):
    """DOP853 dense output y0 + x (F0 + (1 - x) (F1 + x (F2 + ...))) at step fraction x."""
    x1 = 1.0 - x
    y = F[-1] * x
    for i, f in enumerate(F[-2::-1], start=1):
        y += f
        y *= x if i % 2 == 0 else x1
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


def _refine(Fq, yq, lo, width, target, side):
    """Upper ends of the brackets [lo, lo + width] of crossings of `target`
    by the interpolants (Fq, yq), bisected to full resolution; `side` is the
    sign of interpolant - target at lo.  `width` is a power of 2 and each lo
    a multiple of it in [0, 1), as the pieces of `_chunk_crossings` are.

    While the brackets are wider than _KSECTION_WIDTH, each is split into
    _KSECTION pieces, the interpolant is evaluated at their inner ends in one
    call, and the bracket descends log2(_KSECTION) bisection levels on the
    signs there.  Every end, lo + i width / _KSECTION, is a multiple of
    2^-45 in [0, 1], so it is exact and equals the midpoint 0.5 (a + b) that
    bisection computes; plain bisection finishes, so every root is bit for
    bit that of bisection alone, after about 20 evaluations instead of 50.
    """
    count = len(lo)
    # flat index of node `at` + d of each bracket's row, less `at`
    offsets = [np.arange(count) * (_KSECTION - 1) + (d - 1) for d in _KSECTION_LEVELS]
    Fq3, yq2, target2, side2 = Fq[:, :, None], yq[:, None], target[:, None], side[:, None]
    while width > _KSECTION_WIDTH:
        width /= _KSECTION
        q = _interpolate(Fq3, yq2, lo[:, None] + width * _KSECTION_NODES)
        # node i is the midpoint of a bracket 2 lowbit(i) pieces wide, and
        # moves that bracket's lower end up by lowbit(i) if it lies on lo's side
        jump = ((np.sign(q - target2) == side2) * _KSECTION_LOWBIT).ravel()
        at = np.zeros(count, dtype=int)
        for offset in offsets:
            at += jump[offset + at]
        lo = lo + width * at
    hi = lo + width
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not np.count_nonzero(live):
            return hi
        up = live & (np.sign(_interpolate(Fq, yq, mid) - target) == side)
        lo, hi = np.where(up, mid, lo), np.where(live & ~up, mid, hi)


def _chunk_crossings(rhs, W, spans, axis, level, direction):
    """Times, other coordinates (wrapped) and residuals of the crossings of
    x[axis] = level + 2 pi m with velocity sign `direction`, in order, on the
    dense output of accepted steps: rows [y_old, K_0 .. K_15, y_new] of W
    (field-lane rows, `field_rhs`; K_13 .. K_15, the extra stages, are
    filled here by one batched `rhs` call each) over the (t_old, t_new)
    `spans`.  Brackets come from `_brackets` on POINCARE_SUBSAMPLES pieces
    per step whose ends at the step boundaries are the exact states; roots
    from `_refine`.  The velocity sign is `rhs`'s at the interpolated row.
    """
    (t0, t1), y0, K = spans.T, W[:, 0], W[:, 1:-1]
    h = (t1 - t0)[:, None]
    for s, a in enumerate(_A_DENSE, start=_STAGES + 1):
        K[:, s] = rhs(None, y0 + h * _einsum("j,sjn->sn", a[:s], K[:, :s]))
    F = np.empty((7,) + y0.shape)
    F[0] = W[:, -1] - y0
    F[1] = h * K[:, 0] - F[0]
    F[2] = 2.0 * F[0] - h * (K[:, _STAGES] + K[:, 0])
    F[3:] = h * _einsum("dj,sjn->dsn", _D, K)

    x = np.arange(POINCARE_SUBSAMPLES + 1) / POINCARE_SUBSAMPLES
    q = _interpolate(F[:, :, axis, None], y0[:, axis, None], x)
    q[:, -1] = W[:, -1, axis]
    piece, target = _brackets(q, level)
    step, a = np.divmod(piece, POINCARE_SUBSAMPLES)
    side = np.sign(q[step, a] - target)  # != 0: see _brackets
    hi = _refine(F[:, step, axis], y0[step, axis], x[a], 1.0 / POINCARE_SUBSAMPLES, target, side)
    xc = _interpolate(F[:, step], y0[step], hi[:, None])
    keep = np.sign(rhs(None, xc)[:, axis]) == direction
    return ((t0[step] + h[step, 0] * hi)[keep],
            np.mod(np.delete(xc[keep, :3], axis, axis=1), TWO_PI),
            np.abs(xc[keep, axis] - target[keep]))


def poincare(v: SpectralVectorField, plane, direction, x0, N: int,
             tol=1e-10, max_time=10000.0) -> PoincareSection:
    """First N crossings of the plane x[axis] = level with the given velocity sign.

    The lane stepper's accepted steps are searched in chunks
    (`_chunk_crossings`), and the run stops once N crossings are found.  A
    chunk spans half the steps that the rate of crossings so far expects
    before the last crossing but one, between _SECTION_TAIL and
    _SECTION_CHUNK steps, so the run ends a few steps past its Nth crossing.
    The level and x0 are first reduced mod 2 pi by the exact fmod, the
    identity below 2 pi: far off the torus, level + 2 pi m and the step
    control's scale tol (1 + |y|) keep no digits.
    Raises StepBudgetExceeded before stepping when `check_step_budget` does.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    axis, level = int(plane[0]), math.fmod(float(plane[1]), TWO_PI)
    direction = int(np.sign(direction))
    if direction == 0:
        raise ValueError("direction must be +1 or -1")
    check_step_budget(v, max_time, tol)
    rhs = field_rhs(v)
    phases = phase_matrix(v)
    W = np.empty((_SECTION_CHUNK, len(_TABLEAU["A"]) + 2, 3 + phases.shape[1]))
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

    _dop853(rhs, np.fmod(np.asarray(x0, dtype=float), TWO_PI)[None], tol, max_time, on_step=on_step,
            phases=phases)
    scan()
    times, points, residuals = (np.concatenate(parts)[:N] for parts in zip(*found))
    if len(times) < N:
        raise NoCrossings(f"found {len(times)} of {N} requested crossings within t <= {max_time}")
    return PoincareSection(points=points, times=times, residuals=residuals)


def _lane_bytes(v: SpectralVectorField, tangent: bool, chunks: int) -> int:
    """Bytes one lane of `_dop853` holds, with its seed: its rows of Z and
    of the stage buffer (n + p floats each: state and phases), its stage
    weights, its error work arrays, the right-hand side's work row (2p
    floats), its start and end states, its log row and history (3 floats
    per renormalization interval), and its (3,) seed array (136 bytes and a
    list slot).  For 2,000 showcase lanes to T = 0.002 at renorm 0.001 this
    reads 3.26 kB a lane, where tracemalloc saw a peak of 4.05 kB a lane
    over drawing the seeds and lyapunov_max: the rest is the estimates'
    Python objects and an attempt's temporaries."""
    n = 6 if tangent else 3
    p = phase_matrix(v, tangent).shape[1]
    floats = (_STAGES + 3) * (n + p) + _STAGES * (_STAGES + 1) + 6 * n + 2 * p + 3 * chunks
    return 8 * floats + 144


def check_step_budget(v: SpectralVectorField, span: float, tol: float, lanes: int = 1,
                      renorm=None):
    """Raise StepBudgetExceeded when `lanes` trajectories over time `span` at
    tolerance `tol` are estimated to need more than MAX_ESTIMATED_ATTEMPTS
    step attempts in all, then MemoryBudgetExceeded when they are estimated
    to hold more than MAX_LANE_BYTES (`_lane_bytes`; with `renorm` the
    lanes are lyapunov_max's tangent lanes, renormalized every `renorm`).

    A lane is estimated at span * omega * tol^(-1/8), at least 1: omega =
    max_m |k_m| * sum_m (|P_m|_1 + |Q_m|_1) over the folded modes bounds the
    rate at which the field turns along a trajectory, and an order-8 step
    resolves about tol^(1/8) of a turn.  On the showcase field (omega = 3.2)
    a 1,000-unit lane estimates 4.3e4 attempts and takes about 2,800;
    criterion 4's 20 lanes to T = 1e4 estimate 8.5e6, the calibration's 20
    to T = 1e5 8.5e7, under the ceiling.  The floor of one attempt lets
    short runs through on any number of lanes; the byte ceiling stops those.
    """
    K, P, Q = _folded_modes(v)
    omega = np.max(np.linalg.norm(K, axis=1), initial=0.0) * (np.abs(P).sum() + np.abs(Q).sum())
    estimate = lanes * max(span * omega * tol ** (-1.0 / 8.0), 1.0)
    if estimate > MAX_ESTIMATED_ATTEMPTS:
        raise StepBudgetExceeded(
            f"an estimated {estimate:.3g} step attempts ({lanes} lanes x span {span:.6g} x rate "
            f"{omega:.3g} x tol^(-1/8)) exceed the ceiling of {MAX_ESTIMATED_ATTEMPTS:.3g}")
    chunks = 1 if renorm is None else round(span / renorm)
    per_lane = _lane_bytes(v, renorm is not None, chunks)
    if lanes * per_lane > MAX_LANE_BYTES:
        raise MemoryBudgetExceeded(
            f"an estimated {lanes * per_lane:.3g} bytes of lanes ({lanes} lanes x {per_lane} "
            f"bytes) exceed the ceiling of {MAX_LANE_BYTES:.3g}")


def check_horizon(T: float, renorm: float):
    """Raise ValueError unless T > renorm > 0, T spans at most
    MAX_RENORM_INTERVALS renorm intervals and is a whole number of them (to
    1e-9 relative): a Lyapunov run ends on its last renormalization, at
    round(T / renorm) * renorm."""
    if not T > renorm > 0:
        raise ValueError(f"needs T > renorm > 0, got T = {T} and renorm = {renorm}")
    if not np.isfinite(T / renorm):
        raise ValueError(f"T / renorm overflows, got T = {T} and renorm = {renorm}")
    if round(T / renorm) > MAX_RENORM_INTERVALS:
        raise ValueError(f"T / renorm = {T / renorm:.6g} exceeds {MAX_RENORM_INTERVALS} "
                         f"renormalization intervals")
    if abs(T - round(T / renorm) * renorm) > 1e-9 * T:
        raise ValueError(f"T = {T} must be a whole number of renorm = {renorm} intervals")


def lyapunov_max(v: SpectralVectorField, x0s, T: float, renorm: float,
                 tol=1e-9):
    """Largest Lyapunov exponents by tangent-flow renormalization (Benettin et al. 1980).

    Integrates (x, w) with dw = J(x) w for every start point at once, one
    lane each, rescaling w to unit length every `renorm` time units and
    averaging the accumulated log stretching.  The Jacobian comes from
    exact spectral differentiation of the field.  `x0s` of shape (L, 3)
    gives a list of L estimates; a single point of shape (3,) gives one
    (perfbench/freeze.py, which regenerates the benchmark's references,
    passes one point at a time).
    T must be a whole number of renorm intervals (`check_horizon`), and the
    L lanes must pass `check_step_budget` over T.
    """
    check_horizon(T, renorm)
    x0s = np.asarray(x0s, dtype=float)
    single = x0s.ndim == 1
    x0s = np.atleast_2d(x0s)
    if x0s.ndim != 2 or x0s.shape[1] != 3:
        raise ValueError("x0s must have shape (3,) or (L, 3)")
    check_step_budget(v, T, tol, lanes=len(x0s), renorm=renorm)
    w0 = np.array([0.6, 0.64, 0.48])
    w0 /= np.linalg.norm(w0)
    y0 = np.concatenate([x0s, np.broadcast_to(w0, x0s.shape)], axis=1)
    run = _dop853(tangent_rhs(v), y0, tol, T, renorm=renorm,
                  phases=phase_matrix(v, tangent=True))
    times = renorm * np.arange(1, run.logs.shape[1] + 1)
    estimates = []
    for logs in run.logs:
        history = np.column_stack([times, np.cumsum(logs) / times])
        estimates.append(LyapunovEstimate(lambda_max=float(history[-1, 1]), history=history))
    return estimates[0] if single else estimates


def first_integral_report(v: SpectralVectorField, F, grid: int) -> FirstIntegralReport:
    """Range gap of F and sup |grad F . v| over the uniform grid."""
    n = max(grid, 2 * max(v.truncation_radius, F.truncation_radius) + 1)
    top, bottom, dsup = [], [], []
    for f, g, w in zip(grid_slabs(F, n), grid_slabs(F.gradient(), n), grid_slabs(v, n)):
        top.append(np.max(f))
        bottom.append(np.min(f))
        dsup.append(np.max(np.abs(np.sum(g * w, axis=-1))))
    gap = float(np.max(top) - np.min(bottom))
    dsup = float(np.max(dsup))
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
