import math

import pytest
from mpmath import mp

from mertens_sums import hankel as hk
from mertens_sums.asymptotics import im_closed_form
from mertens_sums.errors import DomainError, ParameterError

Z_GRID = (0.0, 0.5, 1.0, 2.5, -3.5, 4.0)
X_GRID = (10.0, 1e3, 1e6)


def gamma_half_integer(n_halves: int) -> float:
    """Gamma(n/2) for odd n, via Gamma(n+1/2) = (2n)! sqrt(pi) / (4^n n!)."""
    assert n_halves % 2 == 1
    n = (n_halves - 1) // 2
    return math.factorial(2 * n) * math.sqrt(math.pi) / (4**n * math.factorial(n))


class TestPowerIdentity:
    @pytest.mark.parametrize("z", Z_GRID)
    @pytest.mark.parametrize("x", X_GRID)
    def test_matches_closed_form(self, z, x):
        res = hk.hankel_power_quad(z, x)
        closed = hk.power_law_closed_form(z, x)
        assert abs(res.value - closed) <= 1e-8 * abs(closed)
        assert res.imag_part <= 1e-8

    def test_identity_cases(self):
        assert abs(hk.hankel_power_quad(0.0, 10.0).value - 1.0) < 1e-8
        assert abs(hk.hankel_power_quad(1.0, math.e).value - 1.0) < 1e-8

    def test_half_integer_closed_forms_are_independent(self):
        # the closed-form helper (mpmath's rgamma) must agree with the
        # explicit half-integer formulas
        for z in (0.5, 2.5):
            series = hk.power_law_closed_form(z, 100.0)
            explicit = math.log(100.0) ** z / gamma_half_integer(int(2 * z) + 2)
            assert abs(series - explicit) < 1e-12 * abs(explicit)

    def test_z_half_at_100(self):
        # (log 100)^0.5 / Gamma(1.5) = 2.4214633573596404...
        res = hk.hankel_power_quad(0.5, 100.0)
        assert abs(res.value - 2.4214633573596404) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            hk.hankel_power_quad(0.5, 1.0)
        with pytest.raises(DomainError):
            hk.hankel_power_quad(9.0, 10.0)
        # beyond MAX_ABS_Z, the tested envelope: rejected before any quadrature
        with pytest.raises(DomainError):
            hk.hankel_power_quad(4.5, 100.0)

    def test_truncation_parameter_error(self):
        short = hk.HankelContour(radius=0.4, offset=0.05, truncation=0.6)
        with pytest.raises(ParameterError) as err:
            hk.hankel_power_quad(0.5, 10.0, contour=short)
        assert err.value.suggestion is not None
        # retrying with the suggested truncation succeeds
        fixed = hk.HankelContour(radius=0.4, offset=0.05,
                                 truncation=float(err.value.suggestion))
        res = hk.hankel_power_quad(0.5, 10.0, contour=fixed)
        closed = hk.power_law_closed_form(0.5, 10.0)
        assert abs(res.value - closed) <= 1e-8 * abs(closed)

    @pytest.mark.parametrize("x,z,truncation", [
        (1.001, -3.5, 40 / math.log(1.001)), (1.0000001, -3.5, 40 / math.log(1.0000001)),
        (1e6, -3.5, 1.2)])
    def test_suggestion_covers_the_failing_truncation(self, x, z, truncation):
        # the suggestion comes from the tail rule that failed, with its (1 + T)^(-1-z)
        # growth: at least the truncation that failed, and enough when retried
        radius = 1 / math.log(x)
        short = hk.HankelContour(radius=radius, offset=radius / 8, truncation=truncation)
        with pytest.raises(ParameterError) as err:
            hk.hankel_power_quad(z, x, contour=short)
        assert err.value.suggestion >= truncation
        retry = hk.HankelContour(radius=radius, offset=radius / 8,
                                 truncation=err.value.suggestion)
        closed = hk.power_law_closed_form(z, x)
        value = hk.hankel_power_quad(z, x, contour=retry).value
        assert abs(value - closed) <= 1e-8 * max(1, abs(closed))


class TestImQuad:
    def test_m0_is_one(self):
        assert abs(hk.im_quad(0, 50.0).value - 1.0) < 1e-8

    def test_m1_at_e_to_the_e(self, bundle224):
        xee = math.exp(math.e)
        res = hk.im_quad(1, xee)
        with mp.workprec(128):
            closed = float(im_closed_form(1, xee, bundle224))
        assert abs(res.value - closed) < 1e-8

    def test_m3_at_1000(self, bundle224):
        res = hk.im_quad(3, 1e3)
        closed = float(im_closed_form(3, 1e3, bundle224))
        assert abs(res.value - closed) < 1e-6

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("x", (20.0, math.exp(math.e), 1e3, 1e6))
    def test_closed_form_grid(self, m, x, bundle224):
        res = hk.im_quad(m, x)
        closed = float(im_closed_form(m, x, bundle224))
        assert abs(res.value - closed) <= 1e-6
        assert res.imag_part <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            hk.im_quad(7, 100.0)
        with pytest.raises(DomainError):
            hk.im_quad(1, 2.5)
        with pytest.raises(DomainError):
            hk.im_quad(-1, 100.0)


class TestContour:
    def test_geometry_validation(self):
        with pytest.raises(ParameterError):
            hk.HankelContour(radius=0.1, offset=0.2, truncation=1.0)
        with pytest.raises(ParameterError):
            hk.HankelContour(radius=0.1, offset=0.05, truncation=0.05)

    def test_defaults_scale_with_x(self):
        c = hk.HankelContour.for_x(1e6)
        assert c.radius == pytest.approx(1 / math.log(1e6))
        assert c.offset == pytest.approx(c.radius / 8)
        assert c.truncation >= 2 * c.radius

    @pytest.mark.parametrize("m,x", [(2, 1e3), (3, 50.0)])
    def test_contour_independence(self, m, x, bundle224):
        # halve the ray offset and double the nodes: the value may move
        # only within the reported error estimate
        base = hk.HankelContour.for_x(x)
        moved = hk.HankelContour(
            radius=base.radius,
            offset=base.offset / 2,
            truncation=base.truncation,
            nodes_per_panel=base.nodes_per_panel * 2,
        )
        r0 = hk.im_quad(m, x, base)
        r1 = hk.im_quad(m, x, moved)
        allowance = max(r0.error_estimate, r1.error_estimate)
        assert abs(r0.value - r1.value) < allowance

    def test_power_quad_contour_independence(self):
        x, z = 1e3, 2.5
        base = hk.HankelContour.for_x(x)
        moved = hk.HankelContour(
            radius=base.radius * 1.5,
            offset=base.offset / 2,
            truncation=base.truncation,
            nodes_per_panel=128,
        )
        r0 = hk.hankel_power_quad(z, x, base)
        r1 = hk.hankel_power_quad(z, x, moved)
        assert abs(r0.value - r1.value) < max(r0.error_estimate, r1.error_estimate)

    def test_float_conversion(self):
        res = hk.im_quad(0, 50.0)
        assert float(res) == res.value
