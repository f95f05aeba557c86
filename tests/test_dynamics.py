import numpy as np
import pytest
from scipy.integrate import solve_ivp

from eulerlab import dynamics as dyn
from eulerlab import serialize as ser
from eulerlab import spectral as sp
from eulerlab.errors import NoCrossings, StepSizeUnderflow

TWO_PI = 2 * np.pi


def shear_like():
    # (sin x3, cos x3, 0): x3 frozen, straight-line drift in x1, x2
    return sp.make_abc(sp.ABCParams(1.0, 0.0, 0.0))


def integrable():
    return sp.make_abc(sp.ABCParams(1.0, 0.5, 0.0))


def conserved(x, b=0.5):
    return np.cos(x[..., 2]) + b * np.sin(x[..., 0])


class TestIntegrate:
    def test_closed_form_drift(self):
        v = shear_like()
        x0 = np.array([0.3, 1.1, 2.0])
        T = 100.0
        end = dyn.endpoint(v, x0, T, 1e-11)
        expected = x0 + T * np.array([np.sin(x0[2]), np.cos(x0[2]), 0.0])
        assert np.max(np.abs(end - expected)) <= 1e-9

    def test_conserved_quantity_long_run(self):
        x0 = np.array([0.4, 0.0, 1.2])
        end = dyn.endpoint(integrable(), x0, 1000.0, 1e-12)
        assert abs(conserved(end) - conserved(x0)) <= 1e-8

    def test_forward_backward_roundtrip(self):
        v = integrable()
        x0 = np.array([0.2, 5.0, 2.6])
        mid = dyn.endpoint(v, x0, 20.0, 1e-10)
        back = dyn.endpoint(v.scaled(-1.0), mid, 20.0, 1e-10)
        assert np.max(np.abs(back - x0)) <= 1e-7

    def test_trajectory_invariants(self):
        traj = dyn.integrate(integrable(), [0.1, 0.2, 0.3], 25.0, 1e-9)
        assert np.all(np.diff(traj.ts) > 0)
        assert np.all((traj.xs >= 0) & (traj.xs < TWO_PI))
        assert traj.steps == len(traj.ts) - 1
        assert traj.rejected >= 0
        assert traj.tol == 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dyn.integrate(integrable(), [0, 0, 0], -1.0, 1e-9)
        with pytest.raises(ValueError):
            dyn.integrate(integrable(), [0, 0, 0], 1.0, 0.0)

    def test_step_size_underflow_on_nonfinite_field(self):
        bad = sp.SpectralVectorField.from_pairs(
            {(1, 0, 0): np.array([0.0, np.nan, 0.0])}, truncation_radius=1)
        with pytest.raises(StepSizeUnderflow):
            dyn.integrate(bad, [0.1, 0.1, 0.1], 1.0, 1e-9)


class TestVolumePreservation:
    def test_tangent_map_determinant(self):
        _, M = dyn.tangent_map(integrable(), [0.7, 0.1, 2.2], 1000.0, 1e-10)
        assert abs(np.linalg.det(M) - 1.0) <= 1e-6


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
            rhs = dyn.field_rhs(v)
            for t, p in zip(section.times, section.points):
                x = np.array([p[0], p[1], np.pi / 2])
                assert np.sign(rhs(t, x)[2]) == direction

    def test_start_point_on_section_is_not_a_crossing(self):
        # x2 moves at the constant rate H = 0.5 sin x1 + cos x3 when C = 0
        x0 = np.array([0.2, 0.0, np.pi / 2])
        section = dyn.poincare(integrable(), (1, 0.0), +1, x0, 3,
                               tol=1e-10, max_time=1000.0)
        period = TWO_PI / conserved(x0)
        assert np.allclose(section.times, period * np.arange(1, 4), rtol=1e-8)

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
        best = max(
            dyn.lyapunov_max(v, x0, 1e4, 5.0, tol=1e-9).lambda_max for x0 in seeds
        )
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

    def test_tableau_consistency(self):
        assert np.all(np.abs(dyn._C - dyn._A.sum(axis=1)) <= 1e-14)
        assert abs(dyn._B.sum() - 1.0) <= 1e-14

    def test_one_chunk_steps_like_scipy(self):
        # renorm 40 at T = 50 is a single chunk ending at t = 40
        v, tol = self.showcase(), 1e-9
        x0s = np.array(dyn.separatrix_seeds(0.5, 4))
        y0 = np.concatenate([x0s, np.tile(self.W0, (4, 1))], axis=1)
        run = dyn._dop853(dyn.tangent_rhs(v), y0, tol, 40.0)
        for x0, est, attempts in zip(x0s, dyn.lyapunov_max(v, x0s, 50.0, 40.0, tol),
                                     run.attempts):
            ref, nfev = self.solve_ivp_log_stretch(v, x0, 40.0, tol)
            assert attempts == (nfev - 2) // dyn._STAGES
            assert abs(40.0 * est.lambda_max - ref) <= 1e-10

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

    def test_step_size_underflow_mid_run(self):
        def rhs(t, y):  # finite only below y = 0.5, which the lanes reach at t = 0.5
            return np.where(y < 0.5, 1.0, np.nan)

        with pytest.raises(StepSizeUnderflow):
            dyn._dop853(rhs, np.zeros((2, 1)), 1e-9, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dyn.lyapunov_max(self.showcase(), [0.1, 0.2, 0.3], 5.0, 5.0)
        with pytest.raises(ValueError):
            dyn.lyapunov_max(self.showcase(), np.zeros((2, 4)), 50.0, 5.0)


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
