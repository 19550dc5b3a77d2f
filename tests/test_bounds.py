import math

import pytest

from grasspack.bounds import (
    cell_bound,
    mu_from_rho,
    rankin_chordal,
    rankin_projective,
    rankin_spectral,
    rho_from_mu,
)
from grasspack.errors import InvalidInput
from grasspack.geometry import Field, Metric


def test_chordal_examples():
    assert rankin_chordal(4, 2, 3, Field.COMPLEX).bound_value == pytest.approx(1.5)
    assert rankin_chordal(6, 3, 36, Field.COMPLEX).bound_value == pytest.approx(54 / 35)


def test_chordal_limit_monotone_in_n():
    prev = math.inf
    limit = 2 * (4 - 2) / 4
    for n in range(2, 200):
        b = rankin_chordal(4, 2, n, Field.REAL).bound_value
        assert b < prev
        assert b > limit
        prev = b


def test_chordal_attainability():
    assert rankin_chordal(4, 2, 10, Field.REAL).attainable
    assert not rankin_chordal(4, 2, 11, Field.REAL).attainable
    assert rankin_chordal(4, 2, 16, Field.COMPLEX).attainable
    assert not rankin_chordal(4, 2, 17, Field.COMPLEX).attainable


def test_spectral_examples():
    assert rankin_spectral(4, 2, 10, Field.COMPLEX).bound_value == pytest.approx(5 / 9)
    assert rankin_spectral(6, 2, 12, Field.COMPLEX).bound_value == pytest.approx(8 / 11)
    assert rankin_spectral(3, 2, 2, Field.REAL).bound_value == pytest.approx(2 / 3)


def test_spectral_attainability_limits():
    assert rankin_spectral(4, 2, 5, Field.REAL).attainability_limit == 4 * 5 // 2 - 3 + 1
    assert rankin_spectral(4, 2, 5, Field.COMPLEX).attainability_limit == 16 - 4 + 1


def test_projective_examples():
    assert rankin_projective(3, 4, Field.REAL).degrees == pytest.approx(70.53, abs=5e-3)
    assert rankin_projective(2, 3, Field.REAL).degrees == pytest.approx(60.00, abs=5e-3)
    assert rankin_projective(5, 25, Field.COMPLEX).degrees == pytest.approx(65.91, abs=5e-3)


def test_projective_matches_chordal_k1():
    for d in (2, 3, 4, 5):
        for n in (2, 5, 9):
            assert rankin_projective(d, n, Field.REAL).bound_value == pytest.approx(
                rankin_chordal(d, 1, n, Field.REAL).bound_value
            )


def test_cell_bound_dispatch():
    proj = rankin_projective(3, 4, Field.REAL)
    # K = 1 cells are line packings under every metric and in either space.
    for space in ("projective", "grassmann"):
        for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY):
            assert cell_bound(space, metric, Field.REAL, 3, 1, 4) == proj
    assert cell_bound("grassmann", Metric.CHORDAL, Field.COMPLEX, 4, 2, 6) == rankin_chordal(
        4, 2, 6, Field.COMPLEX
    )
    assert cell_bound("grassmann", Metric.SPECTRAL, Field.COMPLEX, 4, 2, 6) == rankin_spectral(
        4, 2, 6, Field.COMPLEX
    )
    with pytest.raises(InvalidInput):
        cell_bound("grassmann", Metric.FUBINI_STUDY, Field.COMPLEX, 4, 2, 6)
    with pytest.raises(InvalidInput):
        cell_bound("sphere", Metric.SPHERE, Field.REAL, 3, 1, 4)


def test_spectral_chordal_identity():
    for d, k, n in [(4, 2, 3), (5, 2, 7), (6, 3, 9), (7, 4, 12)]:
        chord = rankin_chordal(d, k, n, Field.COMPLEX).bound_value
        spec = rankin_spectral(d, k, n, Field.COMPLEX).bound_value
        assert spec * k == pytest.approx(chord)


def test_bounds_monotone_in_d():
    for n in (3, 8):
        assert rankin_chordal(5, 2, n, Field.REAL).bound_value > rankin_chordal(
            4, 2, n, Field.REAL
        ).bound_value
        assert rankin_spectral(5, 2, n, Field.REAL).bound_value > rankin_spectral(
            4, 2, n, Field.REAL
        ).bound_value
        assert rankin_projective(5, n, Field.REAL).bound_value > rankin_projective(
            4, n, Field.REAL
        ).bound_value


def test_bound_positive():
    assert rankin_chordal(3, 2, 2, Field.REAL).bound_value > 0
    assert rankin_spectral(9, 8, 50, Field.COMPLEX).bound_value > 0


def test_invalid_args():
    with pytest.raises(InvalidInput):
        rankin_chordal(3, 3, 4, Field.REAL)
    with pytest.raises(InvalidInput):
        rankin_spectral(3, 4, 4, Field.REAL)
    with pytest.raises(InvalidInput):
        rankin_projective(1, 4, Field.REAL)


def test_mu_from_rho_examples():
    assert mu_from_rho(math.sqrt(1.5), Metric.CHORDAL, 2) == pytest.approx(math.sqrt(0.5))
    assert mu_from_rho(1.0, Metric.SPECTRAL) == pytest.approx(0.0)
    assert mu_from_rho(math.pi / 2, Metric.FUBINI_STUDY) == pytest.approx(0.0, abs=1e-15)
    assert mu_from_rho(0.6, Metric.SPHERE) == pytest.approx(0.8)


def test_mu_rho_roundtrip():
    cases = [
        (Metric.CHORDAL, 2, 0.9),
        (Metric.CHORDAL, 1, 0.4),
        (Metric.SPECTRAL, 1, 0.7),
        (Metric.FUBINI_STUDY, 1, 1.1),
        (Metric.SPHERE, 1, 0.3),
    ]
    for metric, k, rho in cases:
        assert rho_from_mu(mu_from_rho(rho, metric, k), metric, k) == pytest.approx(
            rho, abs=1e-12
        )


def test_mu_from_rho_range_errors():
    with pytest.raises(InvalidInput):
        mu_from_rho(1.5, Metric.SPECTRAL)
    with pytest.raises(InvalidInput):
        mu_from_rho(2.0, Metric.FUBINI_STUDY)
    with pytest.raises(InvalidInput):
        mu_from_rho(-0.1, Metric.CHORDAL, 2)
    with pytest.raises(InvalidInput):
        mu_from_rho(0.5, Metric.GEODESIC)
