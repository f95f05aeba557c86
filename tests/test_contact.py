import math

import numpy as np
import pytest
import sympy

from eulerlab import contact as ct
from eulerlab import spectral as sp
from eulerlab.errors import NotPositiveDefinite

TWO_PI = 2 * np.pi
X = sympy.symbols("x1 x2 x3")


@pytest.fixture(scope="module")
def model():
    return ct.std_contact_t3()


@pytest.fixture(scope="module")
def beta():
    return ct.default_perturbation_form()


EPSILONS = [-0.2, -0.1, -0.05, 0.05, 0.1, 0.2]  # where the family below is sampled


@pytest.fixture(scope="module")
def family(model, beta):
    contact, g = model
    return ct.MetricFamily(g, contact, beta)


def form(pairs, trunc=1):
    """1-form as its flat dual, from {k: coefficients of e^{i k.x}}."""
    return sp.SpectralVectorField.from_pairs(
        {k: np.array(c, dtype=complex) for k, c in pairs.items()}, truncation_radius=trunc)


def max_abs(f):
    return float(np.max(np.abs(f.C), initial=0.0))


def rand_pts(n=40, key=9):
    gen = np.random.Generator(np.random.Philox(key=np.array([key, 0], dtype=np.uint64)))
    return gen.uniform(0, TWO_PI, size=(n, 3))


class TestStandardModel:
    def test_alpha_at_zero_is_dx1(self, model):
        contact, _ = model
        assert np.allclose(contact.alpha.evaluate([0.0, 0.0, 0.0])[0], [1, 0, 0], atol=1e-15)

    def test_wedge_gives_standard_volume(self, model):
        # symbolic oracle: alpha ^ d(alpha) = (cos^2 + sin^2) dx1^dx2^dx3
        contact, _ = model
        a = [sympy.cos(X[2]), -sympy.sin(X[2]), sympy.Integer(0)]
        w_sym = [
            sympy.diff(a[2], X[1]) - sympy.diff(a[1], X[2]),
            sympy.diff(a[0], X[2]) - sympy.diff(a[2], X[0]),
            sympy.diff(a[1], X[0]) - sympy.diff(a[0], X[1]),
        ]
        wedge = sympy.simplify(sum(ai * wi for ai, wi in zip(a, w_sym)))
        assert wedge == 1
        pts = rand_pts()
        w = sp.curl_spectral(contact.alpha).evaluate(pts)
        vals = np.einsum("pi,pi->p", contact.alpha.evaluate(pts), w)
        assert np.max(np.abs(vals - 1.0)) < 1e-14

    def test_reeb_is_unit_eigenfield(self, model):
        contact, _ = model
        R = contact.reeb
        cR = sp.curl_spectral(R)
        for k in R.K:
            assert np.array_equal(cR.mode(k), R.mode(k))

    def test_reeb_pairing_and_interior_product(self, model):
        contact, _ = model
        pairing = ct.dot(contact.alpha, contact.reeb)
        assert pairing.K.tolist() == [[0, 0, 0]] and pairing.C.tolist() == [1.0]
        # i_R d(alpha) = 0: the vector proxy w is parallel to R, so w x R = 0
        pts = rand_pts(key=10)
        w = sp.curl_spectral(contact.alpha).evaluate(pts)
        Rv = contact.reeb.evaluate(pts)
        assert np.max(np.abs(np.cross(w, Rv))) < 1e-14

    def test_flat_compatibility(self, model):
        contact, g = model
        rep = ct.check_compatibility(g, contact)
        assert rep.max_defect() <= 1e-12


class TestCheckCompatibility:
    def test_family_members(self, model, family):
        contact, _ = model
        for eps in (-0.2, -0.05, 0.1, 0.2):
            rep = ct.check_compatibility(family.member(eps), contact)
            assert rep.max_defect() <= 1e-10

    def test_scaled_metric_unit_norm_defect(self, model):
        # doubling the metric shrinks the 1-form norm to 1/sqrt(2)
        contact, g = model
        doubled = ct.MetricField(
            g_xi=g.g_xi.scaled(2.0),
            alpha_sq=g.alpha_sq.scaled(2.0),
            inv_entries=None,
            degree_hint=2,
        )
        rep = ct.check_compatibility(doubled, contact)
        assert rep.unit_norm_defect == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)

    def test_family_evaluates_alpha_once_per_grid(self, beta, monkeypatch):
        # alpha and curl alpha come from the contact form's grid cache; each
        # report is bitwise the member's own check
        contact, g = ct.std_contact_t3()
        fam = ct.MetricFamily(g, contact, beta)
        calls = []
        evaluate = sp.SpectralVectorField.evaluate
        monkeypatch.setattr(sp.SpectralVectorField, "evaluate",
                            lambda self, pts: calls.append(len(pts)) or evaluate(self, pts))
        reports, worst_det = ct.family_compatibility(fam, EPSILONS)
        assert calls == [27 ** 3] * 2 and list(contact.grid_fields) == [27]
        assert list(reports) == EPSILONS
        for eps, rep in reports.items():
            assert rep == ct.check_compatibility(fam.member(eps), contact)
        assert 0.0 <= worst_det <= 1e-12


class TestGridCaches:
    @pytest.mark.parametrize("nodes", range(15, 30))
    def test_member_at_zero_is_bitwise_the_base_metric(self, model, family, nodes):
        # sign of zero included: g_xi * 1.0 + alpha_sq + 0.0 * extra
        _, g = model
        assert family.member(0.0).grid_matrix(nodes).tobytes() == g.grid_matrix(nodes).tobytes()


def grid_caches(family):
    """The grid caches the family and its contact form, base metric and
    variation tensor keep."""
    return [family.contact.grid_fields, family.base.grid_fields, family._grid_fields,
            family.variation.grid_fields]


def cached_arrays(family):
    return [a for cache in grid_caches(family) for value in cache.values()
            for a in (value if isinstance(value, tuple) else (value,)) if a is not None]


class TestSharedStandardModel:
    """standard_family is one model per process; a sweep passes its epsilons."""

    def test_one_model_per_process(self, model):
        shared = ct.standard_family()
        assert ct.standard_family() is shared
        # a family built directly keeps its own caches
        contact, g = model
        direct = ct.MetricFamily(g, contact, ct.default_perturbation_form())
        assert direct._grid_fields is not shared._grid_fields
        assert direct.variation.grid_fields is not shared.variation.grid_fields
        assert direct.base.grid_fields is not shared.base.grid_fields

    def test_standard_family_equals_a_directly_built_family(self, beta):
        contact, g = ct.std_contact_t3()
        direct = ct.MetricFamily(g, contact, beta)
        shared = ct.standard_family()
        for nodes in (12, 19):
            for eps in (-0.1, 0.0, 0.1):
                assert (shared.member(eps).grid_matrix(nodes).tobytes()
                        == direct.member(eps).grid_matrix(nodes).tobytes())
            assert (shared.base.grid_matrix(nodes).tobytes()
                    == direct.base.grid_matrix(nodes).tobytes())
            assert (shared.variation.entries_on_grid(nodes).tobytes()
                    == direct.variation.entries.evaluate(ct.uniform_grid(nodes)[0]).tobytes())

    def test_cached_grid_arrays_reject_writes(self):
        family = ct.standard_family()
        family.check_positive([-0.1, 0.1])
        ct.family_compatibility(family, [-0.1, 0.1])
        family.variation.entries_on_grid(12)
        arrays = cached_arrays(family)
        assert all(grid_caches(family)) and len(arrays) >= 4 + 2 + 2 + 1
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    def test_a_non_positive_member_leaves_the_warm_caches_unchanged(self):
        warm = ct.standard_family()
        warm.check_positive([-0.1, 0.1])
        ct.family_compatibility(warm, [-0.1, 0.1])
        assert 12 in warm._grid_fields
        keys = [list(cache) for cache in grid_caches(warm)]
        data = [a.tobytes() for a in cached_arrays(warm)]
        # at eps = 1e12 the square-root factor rounds to 0 and g_eps has rank 2
        with pytest.raises(NotPositiveDefinite):
            warm.check_positive([0.1, 1e12])
        assert ct.standard_family() is warm
        assert [list(cache) for cache in grid_caches(warm)] == keys
        assert [a.tobytes() for a in cached_arrays(warm)] == data


class TestXiProjection:
    def test_alpha_projects_to_zero(self, model):
        contact, _ = model
        out = ct.xi_projection(contact.alpha, contact)
        assert max_abs(out) <= 1e-15

    def test_form_annihilating_reeb_unchanged(self, model):
        contact, _ = model
        f = form({(0, 1, 0): [0, 0, 0.5]})  # cos(x2) dx3
        out = ct.xi_projection(f, contact)
        assert max_abs(out - f) <= 1e-15

    def test_symbolic_oracle(self, model):
        # beta dual of (0, sin x1, cos x1): beta(R) = -sin x1 sin x3, so
        # beta_xi = beta + sin x1 sin x3 alpha
        contact, _ = model
        out = ct.xi_projection(form({(1, 0, 0): [0, -0.5j, 0.5]}), contact)
        pts = rand_pts(key=11)
        s1, s3, c3 = np.sin(pts[:, 0]), np.sin(pts[:, 2]), np.cos(pts[:, 2])
        # beta + (sin x1 sin x3) * alpha with alpha = (cos x3, -sin x3, 0)
        expected = np.stack(
            [s1 * s3 * c3, s1 - s1 * s3 * s3, np.cos(pts[:, 0])], axis=-1)
        assert np.max(np.abs(out.evaluate(pts) - expected)) < 1e-13

    def test_annihilates_reeb(self, model, beta):
        contact, _ = model
        out = ct.xi_projection(beta, contact)
        assert max_abs(ct.dot(out, contact.reeb)) <= 1e-16


class TestVariationTensor:
    def test_traceless(self, model, beta):
        contact, g = model
        var = ct.variation_tensor(beta, contact, g)
        tr = ct.trace_pairing(g.inv_entries, var.entries)
        pts, _ = ct.uniform_grid(32)
        assert float(np.max(np.abs(tr.evaluate(pts)))) <= 1e-12

    def test_annihilates_reeb(self, model, beta):
        contact, g = model
        var = ct.variation_tensor(beta, contact, g)
        pts = rand_pts(key=12)
        H = var.entries.evaluate(pts)
        Rv = contact.reeb.evaluate(pts)
        assert np.max(np.abs(np.einsum("pij,pj->pi", H, Rv))) <= 1e-14

    def test_entry_value_symbolic_oracle(self, model):
        # unnormalized beta = (0, sin x1, cos x1) dual; sympy evaluates
        # h11 = (beta_xi)_1^2 - |beta_xi|^2 (g_xi)_11 / 2 at (pi/2, 0, 0)
        contact, g = model
        var = ct.variation_tensor(form({(1, 0, 0): [0, -0.5j, 0.5]}), contact, g)
        s1, s3, c3 = sympy.sin(X[0]), sympy.sin(X[2]), sympy.cos(X[2])
        bxi = [s1 * s3 * c3, sympy.sin(X[0]) * c3 ** 2, sympy.cos(X[0])]
        norm2 = sum(b ** 2 for b in bxi)
        gxi11 = 1 - c3 ** 2
        h11 = bxi[0] ** 2 - norm2 * gxi11 / 2
        point = {X[0]: sympy.pi / 2, X[1]: 0, X[2]: 0}
        expected = float(h11.subs(point))
        got = var.entries.evaluate(np.array([[np.pi / 2, 0.0, 0.0]]))[0, 0, 0]
        assert got == pytest.approx(expected, abs=1e-14)

    def test_norm2_closed_form(self, model, beta):
        contact, g = model
        var = ct.variation_tensor(beta, contact, g)
        pts = rand_pts(key=13)
        expected = TWO_PI ** -3 * (1 - np.sin(pts[:, 0]) ** 2 * np.sin(pts[:, 2]) ** 2)
        assert np.max(np.abs(var.norm2.evaluate(pts) - expected)) < 1e-16


class TestMetricFamily:
    def test_member_zero_is_base(self, model, family):
        _, g = model
        pts = rand_pts(key=14)
        assert np.array_equal(family.member(0.0).matrix(pts), g.matrix(pts))

    def test_det_rigidity(self, family, model):
        _, g = model
        pts, _ = ct.uniform_grid(16)
        det0 = np.linalg.det(g.matrix(pts))
        for eps in (-0.2, 0.07, 0.2):
            det = np.linalg.det(family.member(eps).matrix(pts))
            assert np.max(np.abs(det - det0) / np.abs(det0)) <= 1e-12

    def test_first_order_is_variation_tensor(self, family):
        # finite-difference oracle with Richardson slope
        pts = rand_pts(key=15)
        H = family.variation.entries.evaluate(pts)
        base = family.member(0.0).matrix(pts)
        defects = []
        eps_levels = (1e-2, 1e-3)
        for eps in eps_levels:
            fd = (family.member(eps).matrix(pts) - base) / eps
            defects.append(float(np.max(np.abs(fd - H))))
        order = math.log(defects[0] / defects[1]) / math.log(eps_levels[0] / eps_levels[1])
        assert order >= 0.9

    def test_first_order_consistency_across_decade(self, family):
        pts = rand_pts(key=16)
        H = family.variation.entries.evaluate(pts)
        base = family.member(0.0).matrix(pts)
        epsilons = np.array([0.2, 0.1, 0.05, 0.02])
        defects = np.array([
            float(np.max(np.abs((family.member(e).matrix(pts) - base) / e - H)))
            for e in epsilons
        ])
        slope = np.polyfit(np.log(epsilons), np.log(defects), 1)[0]
        assert slope >= 0.9

    def test_not_positive_definite_rejected(self, model, beta):
        contact, g = model
        bad = ct.MetricField(
            g_xi=g.g_xi.scaled(-2.0),
            alpha_sq=g.alpha_sq,
            inv_entries=ct.identity_tensor(),
            degree_hint=2,
        )
        with pytest.raises(NotPositiveDefinite):
            ct.MetricFamily(bad, contact, beta).check_positive([0.0])  # the member bad itself
        with pytest.raises(NotPositiveDefinite):
            ct.MetricFamily(bad, contact, beta).check_positive([0.1])
        # eps = 1e300 overflows the member to inf and nan, with no warning on the way
        with np.errstate(all="raise"), pytest.raises(NotPositiveDefinite, match="non-finite"):
            ct.MetricFamily(g, contact, beta).check_positive([-0.1, 1e300])


def spd(gen, count, smallest, scale):
    """Symmetric positive definite 3x3 matrices with eigenvalues
    (smallest, scale, 2 scale) in random orthonormal frames."""
    Q = np.linalg.qr(gen.standard_normal((count, 3, 3)))[0]
    return (Q * np.array([smallest, scale, 2.0 * scale])[None, None, :]) @ np.swapaxes(Q, 1, 2)


class TestClosedFormAlgebra:
    def check_against_linalg(self, G):
        inv, det = ct.inverse_and_det(G)
        ref_inv, ref_det = np.linalg.inv(G), np.linalg.det(G)
        scale = np.max(np.abs(ref_inv), axis=(1, 2))
        assert np.all(np.max(np.abs(inv - ref_inv), axis=(1, 2)) <= 1e-14 * scale)
        assert np.all(np.abs(det - ref_det) <= 1e-14 * np.abs(ref_det))

    def test_cofactors_match_linalg_on_family_grids(self, model, family):
        _, g = model
        for nodes in (19, 20, 27):
            self.check_against_linalg(g.grid_matrix(nodes))
            for eps in EPSILONS:
                self.check_against_linalg(family.member(eps).grid_matrix(nodes))

    def test_cofactors_match_linalg_on_random_spd(self):
        gen = np.random.Generator(np.random.Philox(key=np.array([61, 0], dtype=np.uint64)))
        for scale in (1e-3, 1.0, 1e3):
            G = spd(gen, 500, scale * gen.uniform(0.2, 1.0), scale)
            G = 0.5 * (G + np.swapaxes(G, 1, 2))
            self.check_against_linalg(G)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("smallest", [1e-13, 1e-12 * (1 - 1e-3), 1e-12 * (1 + 1e-3), 1e-11])
    def test_positivity_guard_fires_where_eigvalsh_says(self, smallest, scale):
        gen = np.random.Generator(np.random.Philox(key=np.array([67, 0], dtype=np.uint64)))
        for G in spd(gen, 50, smallest, scale):
            G = 0.5 * (G + G.T)
            fires = float(np.min(np.linalg.eigvalsh(G))) <= 1e-12
            # one bad point among well-conditioned ones
            batch = np.concatenate([spd(gen, 20, 1.0, 1.0), G[None]])
            det = ct.inverse_and_det(batch)[1]
            if fires:
                with pytest.raises(NotPositiveDefinite):
                    ct.require_positive(batch, det, "test points")
            else:
                ct.require_positive(batch, det, "test points")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_positivity_guard_refuses_non_finite_entries_before_eigvalsh(self, bad,
                                                                         monkeypatch):
        batch = np.repeat(np.eye(3)[None], 4, axis=0)
        batch[2, 0, 1] = batch[2, 1, 0] = bad
        with np.errstate(all="ignore"):
            det = ct.inverse_and_det(batch)[1]

        def eigvalsh(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            ct.require_positive(batch, det, "test points")

    def test_grid_fields_are_evaluated_once_per_grid(self, model, beta, monkeypatch):
        contact, g = model
        family = ct.MetricFamily(g, contact, beta)
        calls = []
        real = sp._SpectralField.evaluate

        def counted(self, points):
            calls.append(len(points))
            return real(self, points)

        monkeypatch.setattr(sp._SpectralField, "evaluate", counted)
        pts, _ = ct.uniform_grid(9)
        for eps in (-0.1, 0.0, 0.05, 0.1):
            member = family.member(eps)
            assert np.array_equal(member.grid_matrix(9), member.matrix(pts))
        # g_xi, alpha_sq, b_xi (x) b_xi and |b_xi|^2 once for the cache, and
        # four fresh evaluations by each matrix call
        assert calls == [len(pts)] * (4 + 4 * 4)


class TestNoncollinearity:
    def test_alpha_with_itself(self, model):
        contact, _ = model
        assert ct.noncollinearity_measure(contact.alpha, contact.alpha, 16, 1e-3) == 1.0

    def test_default_beta_vanishing_fraction(self, model, beta):
        contact, _ = model
        fractions = [
            ct.noncollinearity_measure(contact.alpha, beta, 32, tol)
            for tol in (1e-1, 1e-2, 1e-3)
        ]
        assert fractions[0] >= fractions[1] >= fractions[2]
        assert fractions[2] < 0.05

    def test_random_unit_eigenform_fraction(self, model):
        contact, g = model
        # random element of the unit-eigenvalue space, L2-orthogonal to alpha
        v = sp.random_beltrami(1, 17)  # a 1-form as its flat dual

        def integral(f):
            return sp.VOLUME * float(f.mode((0, 0, 0)).real)

        overlap = integral(ct.dot(contact.alpha, v))
        norm_a = integral(ct.dot(contact.alpha, contact.alpha))
        f = v - contact.alpha.scaled(overlap / norm_a)
        frac = ct.noncollinearity_measure(contact.alpha, f, 64, 1e-3)
        assert frac < 0.05


    def test_the_standard_model_computes_the_fraction_once_per_process(self, monkeypatch):
        contact, g = ct.std_contact_t3()
        beta = ct.default_perturbation_form()
        expected = ct.noncollinearity_measure(contact.alpha, beta, 32, 1e-3)
        assert ct.standard_family().collinear_fraction(32, 1e-3) == expected
        calls, measure = [], ct.noncollinearity_measure
        monkeypatch.setattr(ct, "noncollinearity_measure",
                            lambda *args: calls.append(args) or measure(*args))
        assert ct.standard_family().collinear_fraction(32, 1e-3) == expected
        assert calls == []
        # a family built directly computes its own, once
        fam = ct.MetricFamily(g, contact, beta)
        assert fam.collinear_fraction(32, 1e-3) == expected
        assert fam.collinear_fraction(32, 1e-3) == expected
        assert len(calls) == 1


class TestVariationPairing:
    def test_alpha_diagonal_vanishes(self, model, family):
        contact, g = model
        val = ct.variation_pairing([contact.alpha], family.variation, g, contact.lambda0)[0, 0]
        assert abs(val) <= 1e-15

    def test_beta_diagonal_quarter_power(self, model, beta, family):
        # independent Gauss-Legendre quadrature oracle for the quartic integral
        contact, g = model
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(32)
        x = (x + 1.0) * np.pi
        w = w * np.pi
        X1, X2, X3 = np.meshgrid(x, x, x, indexing="ij")
        pts = np.stack([X1.ravel(), X2.ravel(), X3.ravel()], axis=-1)
        W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
        q = family.variation.norm2.evaluate(pts)
        ref = contact.lambda0 * 0.5 * float(np.sum(q ** 2 * W))
        val = ct.variation_pairing([beta], family.variation, g, contact.lambda0)[0, 0]
        assert val == pytest.approx(ref, rel=1e-12)
        # closed form for the default direction
        assert val == pytest.approx(41.0 / (128.0 * TWO_PI ** 3), rel=1e-13)

    def test_symmetry(self, model, beta, family):
        contact, g = model
        ab = ct.variation_pairing([contact.alpha, beta], family.variation, g, 1.0)[0, 1]
        ba = ct.variation_pairing([beta, contact.alpha], family.variation, g, 1.0)[0, 1]
        assert abs(ab - ba) <= 1e-13

    def test_lambda_scaling(self, model, beta, family):
        contact, g = model
        v1 = ct.variation_pairing([beta], family.variation, g, 1.0)[0, 0]
        v2 = ct.variation_pairing([beta], family.variation, g, 2.0)[0, 0]
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_matrix_matches_per_pair_quadrature(self, model, beta, family):
        # slow reference: one quadrature per pair, each on the node count of
        # its own pair's trig degree
        contact, g = model
        h = family.variation
        # (0.3 cos(2x1 + x2), -0.7 sin(x2 + 2x3), 0.2 cos x1 + 0.5 sin(2x1 + x3))
        wide = form({(2, 1, 0): [0.15, 0, 0], (0, 1, 2): [0, 0.35j, 0],
                     (1, 0, 0): [0, 0, 0.1], (2, 0, 1): [0, 0, -0.25j]}, trunc=2)
        forms = [contact.alpha, beta, wide, beta.scaled(-2.0) + wide]

        def pair(a1, a2, lam):
            nodes = max(16, h.entries.degree() + a1.degree() + a2.degree() + g.degree_hint + 1)
            pts, w = ct.uniform_grid(nodes)
            G = g.matrix(pts)
            Ginv = np.linalg.inv(G)
            A1 = np.einsum("pij,pj->pi", Ginv, a1.evaluate(pts))
            A2 = np.einsum("pij,pj->pi", Ginv, a2.evaluate(pts))
            H = h.entries.evaluate(pts)
            tr = np.einsum("pij,pij->p", Ginv, H)
            term = lam * np.einsum("pi,pij,pj->p", A2, H, A1)
            term -= 0.5 * lam * tr * np.einsum("pi,pij,pj->p", A2, G, A1)
            return float(np.sum(term * np.sqrt(np.linalg.det(G))) * w)

        Pi = ct.variation_pairing(forms, h, g, 1.5)
        assert Pi.shape == (4, 4)
        assert np.array_equal(Pi, Pi.T)
        ref = np.array([[pair(a, b, 1.5) for b in forms] for a in forms])
        assert np.max(np.abs(ref)) > 1e-3
        assert np.max(np.abs(Pi - ref)) <= 1e-15
