"""Tests for graded series, power sums, the q-transform, determinants."""

from fractions import Fraction

import pytest

from nsympeak.elements import NsymElement, R, S, multiply, one, zero
from nsympeak.peak import PeakContext, tangent_element_series
from nsympeak.scalars import zeta
from nsympeak.series import (
    GradedSeries,
    Theta,
    det_formula,
    det_theta,
    matrix_determinant,
    psi,
    psi_series,
    sigma_series,
    theta_matrix,
    theta_q,
    theta_q_generator,
    unit_series,
)


def _psi_direct(n):
    out = zero("R")
    for i in range(n):
        word = (1,) * i + (n - i,)
        out = out + NsymElement("R", {word: (-1) ** i})
    return out


def test_power_sums_small():
    assert psi(1) == S(1)
    assert str(psi(2)) == "-S[1,1] + 2*S[2]"
    assert str(psi(3)) == "S[1,1,1] - S[2,1] - 2*S[1,2] + 3*S[3]"


def test_power_sums_are_alternating_hooks():
    for n in range(1, 7):
        assert psi(n) == _psi_direct(n)


def test_sigma_series_inverse():
    sig = sigma_series(6)
    assert sig.inverse() * sig == unit_series(6)
    assert sig * sig.inverse() == unit_series(6)


def test_series_plumbing():
    sig = sigma_series(4)
    assert sig.coefficient(3) == S(3)
    assert sig.coefficient(0) == one()
    with pytest.raises(ValueError):
        sig.coefficient(5)
    with pytest.raises(AttributeError):
        sig.order = 10
    # Derivative shifts degrees down and multiplies by the old degree.
    assert sig.derivative().coefficient(2) == 3 * S(3)
    with pytest.raises(ValueError):
        GradedSeries(3, {0: zero()}).inverse()
    with pytest.raises(TypeError):
        GradedSeries(2, {1: "S1"})
    scaled = sigma_series(3, q=2)
    assert scaled.coefficient(2) == 4 * S(2)


def test_add_keeps_the_basis_of_each_coefficient():
    t = tangent_element_series(PeakContext(3), 4)
    diff = unit_series(4) - t
    assert diff.coefficient(0) == one()
    assert sorted(t.coeffs) == [1, 2, 4]
    for deg, elt in t.coeffs.items():
        assert diff.coefficient(deg).basis == "R"
        assert diff.coefficient(deg).terms == (-elt).terms
    # Products and inverses still read ribbon coefficients correctly.
    mixed = GradedSeries(3, {0: one("R"), 2: R(1, 1)})
    assert mixed * mixed.inverse() == unit_series(3)


def test_psi_series_alignment():
    ser = psi_series(5)
    for n in range(1, 6):
        assert ser.coefficient(n - 1).to_basis("S") == psi(n)


def test_generator_images():
    assert theta_q_generator(2, 2) == 2 * S(1, 1) - 3 * S(2)
    assert theta_q_generator(1, Fraction(1, 2)) == S(1).scale(Fraction(1, 2))
    # At q = 1 the transform kills every positive weight.
    for n in (1, 2, 3):
        assert theta_q_generator(n, 1) == zero()
    with pytest.raises(ValueError):
        theta_q_generator(4, 2, order=3)


def test_theta_q_values():
    assert theta_q(S(1), 3) == S(1).scale(-2)
    assert theta_q(R(1, 1), 2).to_basis("R") == -R(1, 1) + 2 * R(2)
    # Multiplicative over S words, linear over sums.
    q = Fraction(2, 3)
    assert theta_q(S(2, 1), q) == multiply(
        theta_q(S(2), q), theta_q(S(1), q)
    )
    f, g = S(2) - S(1, 1), 3 * S(1)
    assert theta_q(f + g, q) == theta_q(f, q) + theta_q(g, q)
    assert theta_q(one(), q) == one()


def test_normalized_transform():
    # N = 1 degenerates to the power-sum extension.
    assert Theta(S(3), 1) == psi(3)
    assert Theta(S(2, 1), 1) == multiply(psi(2), psi(1))
    z = zeta(3)
    got = Theta(S(3), 3).to_basis("R")
    want = R(1, 1, 1).scale(-1 - z) + R(1, 2).scale(-z) + R(3)
    assert got == want
    # Alternating-hook shape in every weight and root order.
    for N in (2, 3, 4):
        zN = zeta(N)
        for n in range(1, 6):
            expect = zero("R")
            for i in range(n):
                word = (1,) * i + (n - i,)
                coeff = (-zN) ** i if N > 1 else Fraction(-1) ** i
                expect = expect + NsymElement("R", {word: coeff})
            assert Theta(S(n), N).to_basis("R") == expect


def test_matrix_determinant_basics():
    assert matrix_determinant([[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]]) == 1
    assert matrix_determinant([[Fraction(0), Fraction(1)],
                               [Fraction(1), Fraction(0)]]) == -1
    assert matrix_determinant([[Fraction(2), Fraction(1)],
                               [Fraction(4), Fraction(2)]]) == 0


def test_theta_matrix_shape():
    mat = theta_matrix(3, 2)
    assert len(mat.comps) == 4
    assert all(len(row) == 4 for row in mat.rows)
    assert set(mat.comps) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def test_det_theta_values():
    assert det_theta(1, 2) == -1
    assert det_theta(2, 2) == -3
    assert det_theta(3, 2) == 63


def test_det_formula_matches_matrix():
    for n in (1, 2, 3, 4):
        for q in (2, Fraction(1, 2), -3, Fraction(5, 7)):
            assert det_formula(n, q) == det_theta(n, q)
    assert det_formula(1, Fraction(3)) == Fraction(-2)


def test_det_vanishes_at_low_order_roots():
    # q a root of unity of order N <= n kills the determinant; N > n
    # leaves it nonzero.
    assert det_theta(2, zeta(2)) == 0
    assert det_theta(3, zeta(3)) == 0
    assert det_theta(3, zeta(2)) == 0
    nonzero = det_theta(2, zeta(3))
    assert nonzero == 3 * (1 - zeta(3))
    assert nonzero != 0
