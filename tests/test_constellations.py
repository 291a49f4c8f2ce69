"""Constellation tables: geometry, power normalization, point counts."""

import numpy as np
import pytest

from sigforge.constellations import build_constellation
from sigforge.registry import CLASS_LIST, class_by_name, linear_classes


@pytest.mark.parametrize("cls", linear_classes(), ids=lambda c: c.name)
def test_unit_mean_power_and_count(cls):
    table = build_constellation(cls.index)
    assert len(table.points) == cls.order
    assert abs(np.mean(np.abs(table.points) ** 2) - 1.0) < 1e-12
    # all points distinct
    assert len(set(table.points.tolist())) == cls.order


def test_each_table_is_built_once_with_read_only_points():
    for cls in linear_classes():
        table = build_constellation(cls.index)
        assert build_constellation(cls.index) is table
        with pytest.raises(ValueError, match="read-only"):
            table.points[0] = 0.0


def test_ook_is_on_off():
    table = build_constellation(class_by_name("ook").index)
    pts = np.sort_complex(table.points)
    assert pts[0] == 0.0
    assert pts[1].imag == 0.0 and pts[1].real > 0.0


def test_pam_levels_nonnegative_equispaced():
    table = build_constellation(class_by_name("16pam").index)
    levels = np.sort(table.points.real)
    assert np.all(table.points.imag == 0.0)
    assert levels[0] == 0.0
    steps = np.diff(levels)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


def test_ask_levels_straddle_zero():
    table = build_constellation(class_by_name("8ask").index)
    levels = np.sort(table.points.real)
    np.testing.assert_allclose(levels, -levels[::-1], atol=1e-15)
    steps = np.diff(levels)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


@pytest.mark.parametrize("name,order", [("bpsk", 2), ("qpsk", 4), ("8psk", 8),
                                        ("16psk", 16), ("32psk", 32), ("64psk", 64)])
def test_psk_on_unit_circle_from_angle_zero(name, order):
    table = build_constellation(class_by_name(name).index)
    np.testing.assert_allclose(np.abs(table.points), 1.0, atol=1e-12)
    angles = np.angle(table.points)
    expected = 2.0 * np.pi * np.arange(order) / order
    expected = np.angle(np.exp(1j * expected))  # wrap like np.angle
    np.testing.assert_allclose(angles, expected, atol=1e-12)


def test_qpsk_points_are_axis_aligned():
    table = build_constellation(class_by_name("qpsk").index)
    expected = np.array([1, 1j, -1, -1j])
    np.testing.assert_allclose(table.points, expected, atol=1e-12)


@pytest.mark.parametrize("name,side", [("16qam", 4), ("64qam", 8),
                                       ("256qam", 16), ("1024qam", 32)])
def test_square_qam_grid(name, side):
    table = build_constellation(class_by_name(name).index)
    reals = np.unique(np.round(table.points.real, 12))
    imags = np.unique(np.round(table.points.imag, 12))
    assert len(reals) == side and len(imags) == side
    np.testing.assert_allclose(np.diff(reals), np.diff(reals)[0], rtol=1e-9)


def test_32qam_is_4x8_rectangle():
    table = build_constellation(class_by_name("32qam").index)
    reals = np.unique(np.round(table.points.real, 12))
    imags = np.unique(np.round(table.points.imag, 12))
    assert len(reals) == 4 and len(imags) == 8


class TestCrossQam:
    """Cross constellations: square grid minus the four corner blocks."""

    CASES = [("32qam_cross", 6, 32), ("128qam_cross", 12, 128),
             ("512qam_cross", 24, 512)]

    @pytest.mark.parametrize("name,side,count", CASES)
    def test_counts(self, name, side, count):
        table = build_constellation(class_by_name(name).index)
        assert len(table.points) == count
        # corner block area removed: side^2 - count points
        assert side * side - count == (side // 6) ** 2 * 4

    @pytest.mark.parametrize("name,side,count", CASES)
    def test_kept_points_match_corner_rule(self, name, side, count):
        """Independent reconstruction: keep grid points whose real or
        imaginary part lies strictly inside the keep threshold."""
        spacing = 2.0 / (side - 1)
        levels = np.linspace(-1.0, 1.0, side)
        grid = (levels[None, :] + 1j * levels[:, None]).ravel()
        keep = 1.0 - spacing * (side / 6 - 0.5)
        expected = grid[(np.abs(grid.real) < keep) | (np.abs(grid.imag) < keep)]
        expected /= np.sqrt(np.mean(np.abs(expected) ** 2))
        table = build_constellation(class_by_name(name).index)
        got = sorted(table.points.tolist(), key=lambda p: (p.real, p.imag))
        want = sorted(expected.tolist(), key=lambda p: (p.real, p.imag))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_nonlinear_classes_rejected():
    with pytest.raises(ValueError):
        build_constellation(class_by_name("2fsk").index)
    with pytest.raises(ValueError):
        build_constellation(class_by_name("ofdm-64").index)
