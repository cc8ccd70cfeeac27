import math

import numpy as np
import pytest

from shiftrules.spectra import FrequencySet, integer_frequencies
from shiftrules.trigpoly import TrigPoly, random_trigpoly

import oracles
from oracles import central_difference, fit_least_squares


def test_evaluate_cosine_at_zero():
    p = TrigPoly(0.0, (1.0,), (0.0,), integer_frequencies(1))
    assert p(0.0) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_offset_sine():
    p = TrigPoly(2.0, (0.0,), (1.0,), FrequencySet((2.0,)))
    assert p(math.pi / 4) == pytest.approx(3.0, abs=1e-15)


def test_evaluate_matches_extended_precision_sum():
    fs = FrequencySet((1.0, 2.0, 4.0))
    p = random_trigpoly(fs, 123)
    x = 0.7
    acc = np.longdouble(p.a0)
    for w, a, b in zip(fs.frequencies, p.cos_coeffs, p.sin_coeffs):
        acc += np.longdouble(a) * np.cos(np.longdouble(w) * np.longdouble(x))
        acc += np.longdouble(b) * np.sin(np.longdouble(w) * np.longdouble(x))
    assert abs(p(x) - float(acc)) < 1e-14


def test_derivative_of_cosine_at_zero():
    p = TrigPoly(0.0, (1.0,), (0.0,), integer_frequencies(1))
    assert p.derivative(1, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_third_derivative_of_sin_2x():
    p = TrigPoly(0.0, (0.0,), (1.0,), FrequencySet((2.0,)))
    got = p.derivative(3, 0.0)
    assert got == pytest.approx(-8.0, abs=1e-12)
    ref = central_difference(p, 0.0, 3, 1e-2)
    assert got == pytest.approx(ref, abs=1e-8)


def test_central_difference_evaluates_the_stencil_in_one_call():
    p = TrigPoly(0.0, (0.0,), (1.0,), FrequencySet((2.0,)))
    calls = []

    def counting(x):
        calls.append(np.array(x, dtype=float))
        return p(x)

    got = central_difference(counting, 0.3, 3, 1e-2)
    assert len(calls) == 1
    assert calls[0].shape == (11,)
    assert got == pytest.approx(p.derivative(3, 0.3), abs=1e-8)


def test_zeroth_derivative_is_evaluate():
    p = random_trigpoly(integer_frequencies(3), 5)
    for x in (0.0, 1.1, -2.2):
        assert p.derivative(0, x) == p(x)


def test_odd_part_of_pure_cosine_vanishes():
    p = TrigPoly(0.3, (0.5, -0.2), (0.0, 0.0), integer_frequencies(2))
    for x in (0.0, 0.9, 2.4):
        assert p.odd_part(x) == pytest.approx(0.0, abs=1e-15)


def test_even_part_at_zero_is_value():
    p = random_trigpoly(integer_frequencies(2), 8)
    assert p.even_part(0.0) == pytest.approx(p(0.0), abs=1e-14)


def test_parts_sum_to_value():
    p = random_trigpoly(FrequencySet((0.7, 1.9, 3.2)), 21)
    x = 1.3
    assert p.odd_part(x) + p.even_part(x) == pytest.approx(p(x), abs=1e-14)


def test_parity_identity():
    rng = np.random.default_rng(17)
    p = random_trigpoly(integer_frequencies(4), 99)
    for x in rng.uniform(-3, 3, 25):
        assert p(x) - p(-x) == pytest.approx(2 * p.odd_part(x), abs=1e-13)
        assert p(x) + p(-x) == pytest.approx(2 * p.even_part(x), abs=1e-13)


def test_periodicity_integer_frequencies():
    p = random_trigpoly(integer_frequencies(5), 31)
    for x in (0.0, 0.4, 2.9, -1.7):
        assert p(x + 2 * math.pi) == pytest.approx(p(x), abs=1e-13)


def test_random_trigpoly_reproducible():
    fs = integer_frequencies(2)
    p1 = random_trigpoly(fs, 42)
    p2 = random_trigpoly(fs, 42)
    assert p1 == p2
    assert random_trigpoly(fs, 43) != p1
    coeffs = (p1.a0, *p1.cos_coeffs, *p1.sin_coeffs)
    assert len(coeffs) == 5
    assert all(-1.0 <= c <= 1.0 for c in coeffs)


def test_fit_roundtrip():
    rng = np.random.default_rng(2)
    for fsv in ((1.0, 2.0), (1.0, 2.0, 4.0), (0.7, 1.9, 3.2)):
        fs = FrequencySet(fsv)
        p = random_trigpoly(fs, rng.integers(1 << 30))
        xs = np.linspace(0.1, 2.9, 2 * fs.r + 1)
        fit, _ = fit_least_squares(fs, xs, p(xs))
        assert fit.a0 == pytest.approx(p.a0, abs=1e-10)
        assert np.allclose(fit.cos_coeffs, p.cos_coeffs, atol=1e-10)
        assert np.allclose(fit.sin_coeffs, p.sin_coeffs, atol=1e-10)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(88)
    for _ in range(10):
        r = int(rng.integers(1, 9))
        p = random_trigpoly(integer_frequencies(r), rng.integers(1 << 30))
        x = float(rng.uniform(-2, 2))
        for d in (1, 2, 3):
            ref = central_difference(p, x, d, 1e-2)
            got = p.derivative(d, x)
            assert abs(got - ref) <= 1e-8 * (1 + abs(ref))


def test_fornberg_weights_match_published_tables():
    k = np.arange(-4, 5).astype(float)
    w1 = oracles._fornberg_weights(0.0, k, 1)
    assert np.allclose(w1, [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5, 4 / 105, -1 / 280], atol=1e-14)
    w2 = oracles._fornberg_weights(0.0, k, 2)
    assert np.allclose(
        w2, [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560], atol=1e-13
    )


def test_coefficient_length_validation():
    with pytest.raises(ValueError):
        TrigPoly(0.0, (1.0,), (0.0, 0.0), integer_frequencies(1))
