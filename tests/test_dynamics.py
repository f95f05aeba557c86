import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from eulerlab import dynamics as dyn
from eulerlab import serialize as ser
from eulerlab import spectral as sp
from eulerlab.errors import (
    MemoryBudgetExceeded,
    NoCrossings,
    StepBudgetExceeded,
    StepSizeUnderflow,
)

TWO_PI = 2 * np.pi


def shear_like():
    # (sin x3, cos x3, 0): x3 frozen, straight-line drift in x1, x2
    return sp.make_abc(sp.ABCParams(1.0, 0.0, 0.0))


def integrable():
    return sp.make_abc(sp.ABCParams(1.0, 0.5, 0.0))


def conserved(x, b=0.5):
    return np.cos(x[..., 2]) + b * np.sin(x[..., 0])


def endpoint(v, x0, T, tol):
    """Unwrapped end state of the lane stepper on dx/dt = v(x) after time T."""
    return dyn._dop853(dyn.field_rhs(v), np.asarray(x0, dtype=float)[None], tol, T,
                       phases=dyn.phase_matrix(v)).y[0]


class TestIntegrate:
    def test_closed_form_drift(self):
        v = shear_like()
        x0 = np.array([0.3, 1.1, 2.0])
        T = 100.0
        end = endpoint(v, x0, T, 1e-11)
        expected = x0 + T * np.array([np.sin(x0[2]), np.cos(x0[2]), 0.0])
        assert np.max(np.abs(end - expected)) <= 1e-9

    def test_conserved_quantity_long_run(self):
        x0 = np.array([0.4, 0.0, 1.2])
        end = endpoint(integrable(), x0, 1000.0, 1e-12)
        assert abs(conserved(end) - conserved(x0)) <= 1e-8

    def test_forward_backward_roundtrip(self):
        v = integrable()
        x0 = np.array([0.2, 5.0, 2.6])
        mid = endpoint(v, x0, 20.0, 1e-10)
        back = endpoint(v.scaled(-1.0), mid, 20.0, 1e-10)
        assert np.max(np.abs(back - x0)) <= 1e-7

    def test_step_size_underflow_on_nonfinite_field(self):
        bad = sp.SpectralVectorField.from_pairs(
            {(1, 0, 0): np.array([0.0, np.nan, 0.0])}, truncation_radius=1)
        with pytest.raises(StepSizeUnderflow):
            endpoint(bad, [0.1, 0.1, 0.1], 1.0, 1e-9)


class TestPoincare:
    def test_section_points_on_conserved_level(self):
        x0 = np.array([0.2, 0.0, 1.3])
        section = dyn.poincare(integrable(), (2, np.pi / 2), +1, x0, 150,
                               tol=1e-11, max_time=6000.0)
        h0 = conserved(x0) - np.cos(np.pi / 2)
        dev = np.abs(0.5 * np.sin(section.points[:, 0]) - h0)
        assert len(section.times) == 150
        assert np.max(dev) <= 1e-6

    def test_no_crossings_when_section_unreachable(self):
        with pytest.raises(NoCrossings):
            dyn.poincare(shear_like(), (2, 2.7), +1, [0.3, 1.1, 2.0], 5,
                         tol=1e-9, max_time=50.0)

    def test_section_residuals(self):
        section = dyn.poincare(integrable(), (2, np.pi / 2), +1, [0.2, 0.0, 1.3],
                               40, tol=1e-10, max_time=3000.0)
        assert np.max(section.residuals) <= 1e-9

    def test_crossing_direction_sign(self):
        v = integrable()
        for direction in (+1, -1):
            section = dyn.poincare(v, (2, np.pi / 2), direction, [0.2, 0.0, 1.3],
                                   10, tol=1e-10, max_time=3000.0)
            for p in section.points:
                x = np.array([[p[0], p[1], np.pi / 2]])
                assert np.sign(v.evaluate(x)[0, 2]) == direction

    def test_start_point_on_section_is_not_a_crossing(self):
        # x2 moves at the constant rate H = 0.5 sin x1 + cos x3 when C = 0
        x0 = np.array([0.2, 0.0, np.pi / 2])
        section = dyn.poincare(integrable(), (1, 0.0), +1, x0, 3,
                               tol=1e-10, max_time=1000.0)
        period = TWO_PI / conserved(x0)
        assert np.allclose(section.times, period * np.arange(1, 4), rtol=1e-8)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_a_level_far_off_the_torus_is_its_reduced_level(self, axis):
        # level + 2 pi m keeps no digits at 1e17: the plane is fmod(level, 2 pi)
        far = dyn.poincare(integrable(), (axis, 1e17), +1, [0.2, 0.0, 1.3], 20, tol=1e-10)
        near = dyn.poincare(integrable(), (axis, math.fmod(1e17, TWO_PI)), +1,
                            [0.2, 0.0, 1.3], 20, tol=1e-10)
        for a, b in ((far.times, near.times), (far.points, near.points),
                     (far.residuals, near.residuals)):
            assert a.tobytes() == b.tobytes()

    def test_a_start_far_off_the_torus_keeps_its_level(self):
        # the step control's scale tol (1 + |y|) grows with |y|: at a start
        # shifted by 2 pi 1e9 the orbit drifted 4.6e-5 off H, 8.7e-10 unshifted
        x0 = np.array([0.2, 0.0, 1.3]) + [TWO_PI * 1e9, 0.0, 0.0]
        section = dyn.poincare(integrable(), (1, 0.0), +1, x0, 20, tol=1e-10)
        h0 = conserved(np.fmod(x0, TWO_PI))
        drift = np.abs(np.cos(section.points[:, 1]) + 0.5 * np.sin(section.points[:, 0]) - h0)
        assert np.max(drift) <= 1e-8

    # starts on the levels H = 0.8 and H = -0.8 of A cos x3 + B sin x1,
    # regular orbits for C = 0 and C = 0.1 alike
    REGULAR_STARTS = [([0.23131888606570092, 3.0053816081087996, 5.4674996473157105], +1),
                      ([0.22899788298771623, 3.7459313377836394, 3.560581355270136], -1)]

    @staticmethod
    def scipy_poincare(v, plane, direction, x0, N, tol, max_time):
        """Reference: scipy's DOP853 stepped from Python, brentq on each step's dense
        output; the right-hand side is the lab's kernel on the lifted state."""
        axis, level = plane
        kernel, phases = dyn.field_rhs(v), dyn.phase_matrix(v)

        def rhs(t, y):
            return kernel(t, np.concatenate([y, y @ phases])[None])[0, :3]

        times, points = [], []
        solver = DOP853(rhs, 0.0, np.asarray(x0, dtype=float), max_time, rtol=tol, atol=tol)
        while solver.status == "running" and len(times) < N:
            solver.step()
            seg = solver.dense_output()
            tt = np.linspace(solver.t_old, solver.t, dyn.POINCARE_SUBSAMPLES + 1)
            qq = seg(tt)[axis]
            for a in range(dyn.POINCARE_SUBSAMPLES):
                qa, qb = qq[a], qq[a + 1]
                if qa == qb:
                    continue
                for m in range(math.ceil((min(qa, qb) - level) / TWO_PI),
                               math.floor((max(qa, qb) - level) / TWO_PI) + 1):
                    target = level + TWO_PI * m
                    if qa == target or (qa - target) * (qb - target) > 0:
                        continue
                    tc = brentq(lambda s: seg(s)[axis] - target, tt[a], tt[a + 1], xtol=1e-14)
                    xc = seg(tc)
                    if np.sign(rhs(tc, xc)[axis]) == direction:
                        times.append(tc)
                        points.append(np.delete(xc, axis) % TWO_PI)
        return np.array(times[:N]), np.array(points[:N])

    @pytest.mark.parametrize("C", [0.0, 0.1])
    @pytest.mark.parametrize("start", [0, 1], ids=["H=0.8", "H=-0.8"])
    def test_matches_scipy_stepper_with_brentq(self, C, start):
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, C))
        x0, direction = self.REGULAR_STARTS[start]
        section = dyn.poincare(v, (1, 0.0), direction, x0, 100, tol=1e-10, max_time=1e4)
        times, points = self.scipy_poincare(v, (1, 0.0), direction, x0, 100, 1e-10, 1e4)
        assert section.times.shape == times.shape == (100,)
        assert np.all(np.diff(section.times) > 0)
        assert np.max(np.abs(section.times - times)) <= 1e-8
        around = np.abs((section.points - points + np.pi) % TWO_PI - np.pi)
        assert np.max(around) <= 1e-8

    @pytest.mark.parametrize("C", [0.0, 0.1])
    @pytest.mark.parametrize("start", [0, 1], ids=["H=0.8", "H=-0.8"])
    def test_stops_within_eight_steps_of_the_last_crossing(self, C, start, monkeypatch):
        # the integration ends at most 8 accepted steps after the one that
        # holds the Nth crossing (a whole 64-step chunk took 20 to 60 more)
        ends = []
        real = dyn._dop853

        def spy(rhs, y0, tol, t_end, renorm=None, on_step=None, *, phases):
            def step(t_old, t_new, Z, y_new):
                ends.append(t_new)
                return on_step(t_old, t_new, Z, y_new)
            return real(rhs, y0, tol, t_end, renorm, step, phases=phases)

        monkeypatch.setattr(dyn, "_dop853", spy)
        x0, direction = self.REGULAR_STARTS[start]
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, C))
        section = dyn.poincare(v, (1, 0.0), direction, x0, 100, tol=1e-10, max_time=1e4)
        holding = int(np.searchsorted(ends, section.times[-1]))
        assert len(ends) - 1 - holding <= 8

    def test_brackets_count_a_crossing_on_a_step_boundary_once(self):
        # two steps of 4 pieces: the first ends exactly on the level 1.0,
        # where the second starts
        q = np.array([[0.0, 0.25, 0.5, 0.75, 1.0],
                      [1.0, 1.25, 1.5, 1.75, 2.0]])
        piece, target = dyn._brackets(q, 1.0)
        assert piece.tolist() == [3]
        assert target.tolist() == [1.0]

    def test_brackets_skip_the_start_point_and_flat_pieces(self):
        # the start sits on the level copy 1 + 2 pi and leaves it, a flat piece
        # rests on it, and a piece back across it counts
        top = 1.0 + TWO_PI
        q = np.array([[top, top + 0.5, top + 0.5, top, top - 0.5]])
        piece, target = dyn._brackets(q, 1.0)
        assert piece.tolist() == [2]
        assert target.tolist() == [top]

    def test_brackets_order_levels_ascending_within_a_piece(self):
        q = np.array([[10.0, -10.0]])
        piece, target = dyn._brackets(q, 0.5)
        assert piece.tolist() == [0, 0, 0]
        assert np.array_equal(target, 0.5 + TWO_PI * np.arange(-1, 2))

    def test_chunk_counts_a_crossing_at_a_step_boundary_once(self):
        # uniform motion x1' = -1; the first step ends exactly on the section
        # x1 = end, where y_old + (y_new - y_old) rounds above `end`, so only
        # the exact step-end state puts the crossing on the boundary
        start, end = 1.8951213247291925, -2.9835689989791114
        assert start + (end - start) != end

        def rhs(t, y):
            return np.broadcast_to([-1.0, 0.0, 0.0], np.shape(y))

        spans = np.array([[0.0, start - end], [start - end, start - end + 1.0]])
        x = [start, end, end - 1.0]
        W = np.zeros((2, 18, 3))  # rows [y_old, K_0 .. K_15, y_new], no phases
        for k in range(2):
            W[k, 0, 0], W[k, 1:14, 0], W[k, -1, 0] = x[k], -1.0, x[k + 1]
        times, points, residuals = dyn._chunk_crossings(rhs, W, spans, 0, end, -1)
        assert times.tolist() == [spans[0, 1]]
        assert points.shape == (1, 2)
        assert residuals.shape == (1,) and residuals[0] <= 1e-15

    @staticmethod
    def bisection(Fq, yq, lo, width, target, side):
        """Reference root refinement: one bisection level per interpolant evaluation."""
        lo, hi = lo.copy(), lo + width
        while True:
            mid = 0.5 * (lo + hi)
            live = (lo < mid) & (mid < hi)
            if not live.any():
                return hi
            up = live & (np.sign(dyn._interpolate(Fq, yq, mid) - target) == side)
            lo, hi = np.where(up, mid, lo), np.where(live & ~up, mid, hi)

    @pytest.mark.parametrize("C, x0", [
        (0.0, [0.23131888606570092, 3.0053816081087996, 5.4674996473157105]),
        (0.1, dyn.separatrix_seeds(0.5, 1)[0]),
    ], ids=["integrable", "layer"])
    def test_k_section_roots_equal_bisection_bitwise(self, C, x0, monkeypatch):
        chunks = []
        real = dyn._chunk_crossings

        def spy(rhs, W, spans, axis, level, direction):
            chunks.append((rhs, W.copy(), spans.copy()))
            return real(rhs, W, spans, axis, level, direction)

        monkeypatch.setattr(dyn, "_chunk_crossings", spy)
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, C))
        dyn.poincare(v, (1, 0.0), +1, x0, 30, tol=1e-10, max_time=1e4)
        monkeypatch.undo()
        calls, evaluations = [0], {"k-section": [], "bisection": []}
        real_interpolate = dyn._interpolate

        def interpolate(*args):
            calls[0] += 1
            return real_interpolate(*args)

        def counted(name, refine):
            def run(*args):
                before = calls[0]
                hi = refine(*args)
                if len(hi):
                    evaluations[name].append(calls[0] - before)
                return hi
            return run

        fast = dyn._refine
        monkeypatch.setattr(dyn, "_interpolate", interpolate)
        crossings = 0
        for rhs, W, spans in chunks:
            monkeypatch.setattr(dyn, "_refine", counted("k-section", fast))
            got = dyn._chunk_crossings(rhs, W.copy(), spans, 1, 0.0, +1)
            monkeypatch.setattr(dyn, "_refine", counted("bisection", self.bisection))
            want = dyn._chunk_crossings(rhs, W.copy(), spans, 1, 0.0, +1)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            crossings += len(got[0])
        assert crossings >= 30
        assert max(evaluations["k-section"]) <= 25 and min(evaluations["bisection"]) >= 45

    def test_nearly_vanishing_field_ends_within_a_thousand_right_hand_sides(self, monkeypatch):
        # |v| ~ 1e-140: the squared error norm underflowed to 0 before the
        # division by tol, so good steps were rejected (206,650 right-hand sides)
        calls = [0]
        real = dyn.field_rhs

        def counting(v):
            rhs = real(v)

            def forward(t, y, **kwargs):
                calls[0] += 1
                return rhs(t, y, **kwargs)
            return forward

        monkeypatch.setattr(dyn, "field_rhs", counting)
        v = sp.make_abc(sp.ABCParams(0.0, 1.7e-140, 0.0))
        with pytest.raises(NoCrossings):
            dyn.poincare(v, (2, np.pi / 2), +1, [0.5, 0.0, 2248.0], 1, max_time=0.49)
        assert 0 < calls[0] < 1000

    @pytest.mark.slow
    def test_chaotic_section_fills_area(self):
        # numerical experiment oracle: box occupancy of the chaotic section
        # versus the integrable one on the same seed
        x0 = np.array([3 * np.pi / 2 + 0.02, 0.0, 0.05])
        bins = 64
        occupancy = {}
        for c in (0.0, 0.1):
            v = sp.make_abc(sp.ABCParams(1.0, 0.5, c))
            sec = dyn.poincare(v, (2, np.pi / 2), +1, x0, 1000,
                               tol=1e-8, max_time=60000.0)
            ij = np.floor(sec.points / TWO_PI * bins).astype(int) % bins
            occupancy[c] = len({(int(a), int(b)) for a, b in ij})
        assert occupancy[0.1] > 5 * occupancy[0.0]


class TestLyapunov:
    def test_shear_like_flat(self):
        est = dyn.lyapunov_max(shear_like(), [0.3, 1.1, 2.0], 1e4, 5.0, tol=1e-9)
        assert abs(est.lambda_max) <= 1e-3

    def test_integrable_baseline(self):
        x0 = dyn.random_torus_seeds(1, base_key=50)[0]
        est = dyn.lyapunov_max(integrable(), x0, 1e4, 5.0, tol=1e-9)
        assert abs(est.lambda_max) <= 5e-3

    def test_history_converges(self):
        est = dyn.lyapunov_max(integrable(), [0.4, 0.0, 1.2], 2000.0, 2.0, tol=1e-9)
        assert len(est.history) == 1000
        assert est.tail_spread() <= 5e-3

    @pytest.mark.slow
    def test_chaotic_regime_exceeds_threshold(self):
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
        seeds = dyn.separatrix_seeds(0.5, 4)
        # one 4-lane run: lanes are bitwise independent, so this is the
        # value of the 4 single-seed runs
        best = max(est.lambda_max for est in dyn.lyapunov_max(v, np.array(seeds), 1e4, 5.0,
                                                              tol=1e-9))
        assert best >= dyn.CHAOS_THRESHOLD


class TestLaneStepper:
    W0 = np.array([0.6, 0.64, 0.48])

    @staticmethod
    def showcase():
        return sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))

    def solve_ivp_log_stretch(self, v, x0, T, tol):
        """Reference: scipy's DOP853 on an unbatched complex-exponential RHS."""
        K, C = v.K.astype(float), v.C

        def rhs(t, y):
            e = np.exp(1j * (K @ y[:3]))
            J = ((C * e[:, None]).T @ (1j * K)).real
            return np.concatenate([(e @ C).real, J @ y[3:]])

        sol = solve_ivp(rhs, (0.0, T), np.concatenate([x0, self.W0]), method="DOP853",
                        rtol=tol, atol=tol)
        return np.log(np.linalg.norm(sol.y[3:, -1])), sol.nfev

    def test_packaged_tableau_is_scipys_bit_for_bit(self):
        path = os.path.join(os.path.dirname(dyn.__file__), "dop853.json")
        with open(path) as fh:
            doc = json.load(fh)
        A, stages = np.array(doc["A"]), DOP853.n_stages
        for ours, theirs in [(A[:stages, :stages], DOP853.A), (A[stages + 1:], DOP853.A_EXTRA),
                             (doc["B"], DOP853.B), (doc["C"][:stages], DOP853.C),
                             (doc["C"][stages + 1:], DOP853.C_EXTRA), (doc["E3"], DOP853.E3),
                             (doc["E5"], DOP853.E5), (doc["D"], DOP853.D)]:
            assert np.array_equal(np.asarray(ours).view(np.int64),
                                  np.asarray(theirs, dtype=float).view(np.int64))
        assert np.array_equal(dyn._A, DOP853.A) and np.array_equal(dyn._A_DENSE, DOP853.A_EXTRA)

    def test_direct_einsum_binding_changes_no_bit(self, monkeypatch):
        v = self.showcase()
        x0s = np.array(dyn.separatrix_seeds(0.5, 2) + dyn.random_torus_seeds(1))
        lean = dyn.lyapunov_max(v, x0s, 100.0, 5.0)
        monkeypatch.setattr(dyn, "_einsum", np.einsum)
        wrapped = dyn.lyapunov_max(v, x0s, 100.0, 5.0)
        for a, b in zip(lean, wrapped):
            assert np.array_equal(a.history, b.history)

    def test_tableau_consistency(self):
        assert np.all(np.abs(dyn._C - dyn._A.sum(axis=1)) <= 1e-14)
        assert abs(dyn._B.sum() - 1.0) <= 1e-14

    def test_one_chunk_steps_like_scipy(self):
        # the first renorm chunk ends at t = 40
        v, tol = self.showcase(), 1e-9
        x0s = np.array(dyn.separatrix_seeds(0.5, 4))
        y0 = np.concatenate([x0s, np.tile(self.W0, (4, 1))], axis=1)
        run = dyn._dop853(dyn.tangent_rhs(v), y0, tol, 40.0,
                          phases=dyn.phase_matrix(v, tangent=True))
        for x0, est, attempts in zip(x0s, dyn.lyapunov_max(v, x0s, 80.0, 40.0, tol),
                                     run.attempts):
            ref, nfev = self.solve_ivp_log_stretch(v, x0, 40.0, tol)
            assert attempts == (nfev - 2) // dyn._STAGES
            assert abs(40.0 * est.history[0, 1] - ref) <= 1e-10

    def test_renormalized_lanes_match_solve_ivp(self):
        v, tol, T = self.showcase(), 1e-9, 50.0
        x0s = np.array(dyn.separatrix_seeds(0.5, 4) + dyn.random_torus_seeds(2))
        for x0, est in zip(x0s, dyn.lyapunov_max(v, x0s, T, 5.0, tol)):
            ref, _ = self.solve_ivp_log_stretch(v, x0, T, tol)
            assert len(est.history) == 10
            assert abs(T * est.lambda_max - ref) <= T * tol

    def test_lane_alone_equals_lane_in_batch(self):
        v = self.showcase()
        x0s = np.array(dyn.separatrix_seeds(0.5, 3) + dyn.random_torus_seeds(2))
        batch = dyn.lyapunov_max(v, x0s, 100.0, 5.0)
        for x0, est in zip(x0s, batch):
            alone = dyn.lyapunov_max(v, x0, 100.0, 5.0)
            assert np.array_equal(alone.history, est.history)

    def test_seed_order_reverses_history_csvs(self):
        v = self.showcase()
        x0s = np.array(dyn.separatrix_seeds(0.5, 3) + dyn.random_torus_seeds(3))
        forward = [ser.lyapunov_csv(e) for e in dyn.lyapunov_max(v, x0s, 100.0, 5.0)]
        backward = [ser.lyapunov_csv(e) for e in dyn.lyapunov_max(v, x0s[::-1], 100.0, 5.0)]
        assert forward == backward[::-1]

    def test_shell_lanes_match_solve_ivp(self):
        # the wave vectors of shell 9 lie off the axes, so the combined phases
        # of a stage differ from k . (combined state) by rounding
        v, tol, T = sp.random_beltrami(9, 5), 1e-9, 50.0
        x0s = np.array(dyn.random_torus_seeds(3, base_key=21))
        batch = dyn.lyapunov_max(v, x0s, T, 5.0, tol)
        for x0, est in zip(x0s, batch):
            ref, _ = self.solve_ivp_log_stretch(v, x0, T, tol)
            assert abs(T * est.lambda_max - ref) <= T * tol
            assert np.array_equal(dyn.lyapunov_max(v, x0, T, 5.0, tol).history, est.history)

    @pytest.mark.parametrize("tangent", [False, True], ids=["field", "tangent"])
    def test_accepted_rows_carry_the_exact_phases_of_their_states(self, tangent):
        v = self.showcase()
        x0 = dyn.separatrix_seeds(0.5, 1)[0]
        y0 = np.concatenate([x0, self.W0]) if tangent else x0
        rhs = dyn.tangent_rhs(v) if tangent else dyn.field_rhs(v)
        phases = dyn.phase_matrix(v, tangent)
        n = len(y0)
        rows = []

        def on_step(t_old, t_new, Z, y_new):
            rows.extend([Z[0].copy(), y_new.copy()])

        dyn._dop853(rhs, y0[None], 1e-9, 20.0, renorm=2.0 if tangent else None,
                    on_step=on_step, phases=phases)
        assert len(rows) >= 60
        for row in rows:
            assert np.array_equal(row[n:], np.einsum("ln,np->lp", row[None, :n], phases)[0])

    def lane_rows(self, v, tangent, L, key=0):
        x0s = np.array(dyn.random_torus_seeds(L, base_key=key))
        y = np.concatenate([x0s, np.tile(self.W0, (L, 1))], axis=1) if tangent else x0s
        return np.concatenate([y, y @ dyn.phase_matrix(v, tangent)], axis=1)

    @pytest.mark.parametrize("tangent", [False, True], ids=["field", "tangent"])
    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_rhs_into_out_equals_the_allocating_call(self, tangent, L):
        v = sp.random_beltrami(9, 5)
        make = dyn.tangent_rhs if tangent else dyn.field_rhs
        rows = self.lane_rows(v, tangent, L)
        want = make(v)(None, rows.copy())
        rhs = make(v)
        big = np.full((3, L + 2, rows.shape[1]), np.nan)
        for k in range(3):  # the same input array each time, as the stepper's stage buffer
            out = big[k, 1:-1]
            assert rhs(None, rows, out=out) is out
            assert np.array_equal(out, want)
        assert np.isnan(big[:, [0, -1]]).all()

    @pytest.mark.parametrize("tangent", [False, True], ids=["field", "tangent"])
    def test_rhs_views_never_go_stale(self, tangent):
        v = self.showcase()
        make = dyn.tangent_rhs if tangent else dyn.field_rhs
        rhs, fresh = make(v), make(v)
        arrays = {L: self.lane_rows(v, tangent, L, key=L) for L in (1, 2, 5)}
        # alternate between arrays of different lane counts, with and without out
        for L in (2, 5, 2, 1, 5, 1):
            out = np.empty_like(arrays[L])
            rhs(None, arrays[L], out=out)
            assert np.array_equal(out, fresh(None, arrays[L].copy()))
            assert np.array_equal(rhs(None, arrays[L]), out)
        # refill one array in place: every call sees the new rows
        buffer = arrays[2]
        for key in (3, 4, 5):
            buffer[...] = self.lane_rows(v, tangent, 2, key=key)
            assert np.array_equal(rhs(None, buffer, out=np.empty_like(buffer)),
                                  fresh(None, buffer.copy()))

    def test_golden_bits(self):
        # frozen from the stepper before its stage buffer: lyapunov_max of
        # the showcase (4 separatrix seeds, T = 50, renorm 5) and the first
        # and last points of a 20-crossing C = 0.1 section
        v = self.showcase()
        estimates = dyn.lyapunov_max(v, dyn.separatrix_seeds(0.5, 4), 50.0, 5.0)
        assert [e.lambda_max.hex() for e in estimates] == [
            "0x1.4e54687e639d2p-4", "0x1.db496245e9c3fp-6", "0x1.2ea7f4cbe9238p-4",
            "0x1.4f763246a7dd6p-4"]
        section = dyn.poincare(v, (1, 0.0), +1, self.W0, 20)
        assert [float(x).hex() for x in section.points[[0, -1]].ravel()] == [
            "0x1.508cdcd149ab9p+1", "0x1.6f863c0b2dc13p+2",
            "0x1.f1b234f07acd1p+0", "0x1.5742e69e5524bp+2"]

    def test_step_budget_refuses_runs_it_estimates_above_the_ceiling(self):
        # omega = 3.2 on the showcase: the calibration (20 lanes to T = 1e5
        # at tol = 1e-9) estimates 8.5e7 attempts, criterion 4's 20-lane
        # batch to T = 1e4 8.5e6; 30 calibration lanes are over the ceiling
        dyn.check_step_budget(self.showcase(), 1e5, 1e-9, lanes=20)
        dyn.check_step_budget(self.showcase(), 1e4, 1e-9, lanes=20)
        with pytest.raises(StepBudgetExceeded, match="30 lanes"):
            dyn.check_step_budget(self.showcase(), 1e5, 1e-9, lanes=30)
        with pytest.raises(StepBudgetExceeded):
            dyn.lyapunov_max(self.showcase(), np.zeros((3000, 3)), 1e3, 5.0)
        huge = sp.make_abc(sp.ABCParams(1e16, 0.5, 0.1))
        with pytest.raises(StepBudgetExceeded, match="exceed the ceiling"):
            dyn.poincare(huge, (1, 0.0), +1, [0.1, 0.2, 0.3], 5)
        with pytest.raises(StepBudgetExceeded):
            dyn.lyapunov_max(huge, [0.1, 0.2, 0.3], 10.0, 5.0)

    def test_lane_memory_ceiling_refuses_what_the_attempt_floor_lets_through(self):
        v = self.showcase()
        # the calibration's and criterion 4's 20-lane batches hold about 10 and 1 MB
        for T in (1e5, 1e4):
            dyn.check_step_budget(v, T, 1e-9, lanes=20, renorm=5.0)
        # one attempt a lane: the most lanes under the byte ceiling pass, one more does not
        per_lane = dyn._lane_bytes(v, True, 2)
        most = dyn.MAX_LANE_BYTES // per_lane
        dyn.check_step_budget(v, 0.002, 1e-9, lanes=most, renorm=0.001)
        with pytest.raises(MemoryBudgetExceeded, match=f"{most + 1} lanes x {per_lane} bytes"):
            dyn.check_step_budget(v, 0.002, 1e-9, lanes=most + 1, renorm=0.001)
        with pytest.raises(MemoryBudgetExceeded, match="50000000 lanes"):
            dyn.check_step_budget(v, 0.002, 1e-9, lanes=50_000_000, renorm=0.001)
        # lyapunov_max checks before it builds a lane
        with pytest.raises(MemoryBudgetExceeded):
            dyn.lyapunov_max(v, np.zeros((most + 1, 3)), 0.002, 0.001)
        # the log rows count: 20,000 intervals make a lane 100 times larger
        assert dyn._lane_bytes(v, True, 20_000) > 100 * per_lane

    def test_step_size_underflow_mid_run(self):
        def rhs(t, y, out=None):  # finite only below y = 0.5, which the lanes reach at t = 0.5
            if out is None:
                out = np.empty_like(y)
            out[...] = np.where(y < 0.5, 1.0, np.nan)
            return out

        with pytest.raises(StepSizeUnderflow):
            dyn._dop853(rhs, np.zeros((2, 1)), 1e-9, 1.0, phases=np.zeros((1, 0)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dyn.lyapunov_max(self.showcase(), [0.1, 0.2, 0.3], 5.0, 5.0)
        with pytest.raises(ValueError):
            dyn.lyapunov_max(self.showcase(), np.zeros((2, 4)), 50.0, 5.0)

    @pytest.mark.parametrize("T", [13.0, 12.4])
    def test_rejects_T_not_a_whole_number_of_renorm_intervals(self, T):
        # the run would end on the last renormalization, at t = 15 or 10
        with pytest.raises(ValueError, match="whole number of renorm"):
            dyn.lyapunov_max(self.showcase(), [0.1, 0.2, 0.3], T, 5.0)

    def test_horizon_caps_the_renormalization_intervals(self):
        dyn.check_horizon(dyn.MAX_RENORM_INTERVALS * 0.1, 0.1)
        with pytest.raises(ValueError, match="exceeds 100000 renormalization intervals"):
            dyn.lyapunov_max(self.showcase(), [0.1, 0.2, 0.3], 2.0, 6e-8)


class TestFirstIntegralReport:
    def test_beltrami_bernoulli_flat(self):
        v = sp.make_abc(sp.ABCParams(1.0, 0.5, 0.1))
        rep = dyn.first_integral_report(v, sp.bernoulli(v), 16)
        assert rep.range_gap <= 1e-11
        assert rep.derivative_sup <= 1e-11

    def test_conserved_trig_function(self):
        # H = cos x3 + 0.5 sin x1 is a first integral of the C = 0 field
        v = integrable()
        H = sp.ScalarSpectralField.from_pairs(
            {(0, 0, 1): 0.5, (1, 0, 0): -0.25j}, truncation_radius=1)
        rep = dyn.first_integral_report(v, H, 32)
        assert rep.derivative_sup <= 1e-12
        assert rep.range_gap == pytest.approx(3.0, abs=1e-12)

    def test_constant_candidate(self):
        v = integrable()
        F = sp.ScalarSpectralField.from_pairs({(0, 0, 0): 2.5}, truncation_radius=0)
        rep = dyn.first_integral_report(v, F, 16)
        assert rep.range_gap == 0.0
        assert rep.derivative_sup == 0.0


class TestSeeds:
    def test_separatrix_seeds_sit_on_level(self):
        for x0 in dyn.separatrix_seeds(0.5, 10):
            assert abs(conserved(x0) - 0.5) <= 0.021

    def test_seeds_deterministic(self):
        a = dyn.separatrix_seeds(0.5, 5)
        b = dyn.separatrix_seeds(0.5, 5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = dyn.random_torus_seeds(5)
        d = dyn.random_torus_seeds(5)
        assert all(np.array_equal(x, y) for x, y in zip(c, d))
