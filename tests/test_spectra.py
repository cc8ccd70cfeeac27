import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shiftrules import spectra
from shiftrules.trigpoly import random_trigpoly


def test_single_pauli_word_spectrum():
    fs = spectra.positive_difference_frequencies([-1.0, 1.0])
    assert fs.frequencies == (2.0,)
    assert fs.r == 1


def test_three_level_spectrum():
    fs = spectra.positive_difference_frequencies([-1.0, 0.0, 1.0])
    assert fs.frequencies == (1.0, 2.0)
    assert fs.r == 2


def test_constant_spectrum_rejected():
    with pytest.raises(ValueError, match="constant generator"):
        spectra.positive_difference_frequencies([3.0, 3.0, 3.0])


def test_empty_spectrum_rejected():
    with pytest.raises(ValueError, match="empty spectrum"):
        spectra.positive_difference_frequencies([])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_named(tol):
    # unchecked, NaN and inf cuts dropped every gap: "constant generator"
    with pytest.raises(ValueError, match=r"dedup_tol must be finite and >= 0, not " + repr(tol)):
        spectra.positive_difference_frequencies([0.0, 1.0, 3.0], tol)


@pytest.mark.parametrize("tol, merged", [(0.5, 2.5), (0.4, 2.5), (0.2, 1.0)])
def test_a_tolerance_that_cuts_at_half_the_smallest_frequency_is_refused(tol, merged):
    # the gaps of 0, 1, 3 are 1, 2 and 3; unchecked, tolerances 0.4 and 0.5
    # dropped the gap 1 and merged 2 and 3 into {2.5}
    with pytest.raises(ValueError, match=rf"dedup_tol {tol!r} cuts at .*, at least half the gap .* that starts "
                                         rf"the smallest frequency {merged!r}: it cannot tell that frequency"):
        spectra.positive_difference_frequencies([0.0, 1.0, 3.0], tol)


def test_a_tolerance_that_cuts_every_gap_is_refused():
    # unchecked, it read "constant generator, no frequencies"
    with pytest.raises(ValueError, match=r"dedup_tol 1.0 cuts at 3.0, at or above every eigenvalue gap"):
        spectra.positive_difference_frequencies([0.0, 1.0, 3.0], 1.0)
    with pytest.raises(ValueError, match="constant generator"):
        spectra.positive_difference_frequencies([2.0, 2.0], 1.0)


def test_a_tolerance_below_half_the_smallest_gap_merges():
    assert spectra.positive_difference_frequencies([0.0, 1.0, 2.01], 0.01).frequencies == pytest.approx(
        (1.005, 2.01), abs=1e-12)
    assert spectra.positive_difference_frequencies([0.0, 1.0, 3.0], 0.1).frequencies == (1.0, 2.0, 3.0)


def test_a_spread_beyond_the_double_range_is_named():
    # unchecked, the gap overflowed with numpy's RuntimeWarning and read as
    # "frequencies must be finite"; a spread just within the range is kept
    with pytest.raises(ValueError, match=r"eigenvalue spread 1e\+308 - \(-1e\+308\) overflows the double range"):
        spectra.positive_difference_frequencies([1e308, 0.0, -1e308])
    assert spectra.positive_difference_frequencies([-8e307, 8e307]).frequencies == (1.6e308,)


def test_near_degenerate_gaps_deduplicated():
    eps = 1e-13
    fs = spectra.positive_difference_frequencies([0.0, 1.0, 2.0 + eps])
    assert fs.r == 2  # gaps 1, 1+eps collapse; gap 2 stays


def test_gap_clusters_chain_beyond_the_cut():
    # gaps 1 - 5e-10, 1, 1 + 5e-10 and 1 + 1e-9 are each within cut = 1e-9 of
    # the previous one, so they chain into one frequency although they span 1.5e-9
    fs = spectra.positive_difference_frequencies([-1, -0.25, 0, 5e-10, 0.75 + 1e-9, 1])
    assert fs.r == 6
    assert fs.frequencies[2] == pytest.approx(1.0000000002, rel=0, abs=1e-15)
    assert [w for w in fs.frequencies if abs(w - 1.0) < 1e-6] == [fs.frequencies[2]]


def test_every_frequency_is_a_gap():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = np.sort(rng.normal(size=rng.integers(2, 8)))
        try:
            fs = spectra.positive_difference_frequencies(lam)
        except ValueError:
            continue
        gaps = np.abs(lam[None, :] - lam[:, None]).ravel()
        scale = max(np.max(np.abs(lam)), 1.0)
        for w in fs.frequencies:
            assert np.min(np.abs(gaps - w)) <= 1e-9 * scale
        n = len(np.unique(lam))
        assert fs.r <= n * (n - 1) // 2


def test_detect_equidistant_integers():
    assert spectra.detect_equidistant(spectra.FrequencySet((1.0, 2.0, 3.0, 4.0))) == 1.0


def test_detect_equidistant_half_steps():
    assert spectra.detect_equidistant(spectra.FrequencySet((0.5, 1.0, 1.5))) == 0.5


def test_detect_equidistant_gap():
    assert spectra.detect_equidistant(spectra.FrequencySet((1.0, 2.0, 4.0))) is None


def test_integer_and_equidistant_checks_use_fixed_tolerances():
    # integer tests are absolute to 1e-12; the step test is relative to DEFAULT_TOL
    assert spectra.FrequencySet((1.0, 2.0 + 1e-13)).is_consecutive_integers()
    assert not spectra.FrequencySet((1.0, 2.0 + 1e-11)).is_consecutive_integers()
    assert spectra.FrequencySet((1.0, 4.0 + 1e-13)).is_all_integer()
    assert not spectra.FrequencySet((1.0, 4.0 + 1e-11)).is_all_integer()
    assert spectra.detect_equidistant(spectra.FrequencySet((3.0, 6.0 * (1 + 1e-10)))) == 3.0
    assert spectra.detect_equidistant(spectra.FrequencySet((3.0, 6.0 * (1 + 1e-8)))) is None


def test_rescale_roundtrip():
    # an equidistant set is {1..r} scaled by the step that detect_equidistant finds
    rng = np.random.default_rng(4)
    for _ in range(20):
        step = rng.uniform(0.1, 3.0)
        r = int(rng.integers(1, 6))
        fs = spectra.FrequencySet(tuple(step * k for k in range(1, r + 1)))
        found = spectra.detect_equidistant(fs)
        back = tuple(found * w for w in spectra.integer_frequencies(r).frequencies)
        assert np.allclose(back, fs.frequencies, rtol=1e-9)
    assert spectra.detect_equidistant(spectra.FrequencySet((0.5, 1.0))) == 0.5
    assert spectra.detect_equidistant(spectra.FrequencySet((1.0, 2.0, 3.0))) == 1.0
    assert spectra.detect_equidistant(spectra.FrequencySet((1.0, 2.0, 4.0))) is None


def test_derivative_transport_chain_rule():
    # f with frequencies k*step equals g(step*x) for integer-frequency g;
    # derivatives transport as f^(d)(x) = step**d * g^(d)(step*x)
    rng = np.random.default_rng(9)
    for _ in range(10):
        r = int(rng.integers(1, 5))
        step = rng.uniform(0.2, 2.5)
        g = random_trigpoly(spectra.integer_frequencies(r), rng.integers(1 << 30))
        f_fs = spectra.FrequencySet(tuple(step * k for k in range(1, r + 1)))
        from shiftrules.trigpoly import TrigPoly

        f = TrigPoly(g.a0, g.cos_coeffs, g.sin_coeffs, f_fs)
        for d in range(5):
            for x in (0.0, 0.4, -1.2):
                lhs = f.derivative(d, x)
                rhs = step**d * g.derivative(d, step * x)
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_rescale_single_frequency_derivative_factor():
    # frequency {2}: f'(x) = 2 g'(2x)
    g = random_trigpoly(spectra.integer_frequencies(1), 3)
    from shiftrules.trigpoly import TrigPoly

    f = TrigPoly(g.a0, g.cos_coeffs, g.sin_coeffs, spectra.FrequencySet((2.0,)))
    for x in (0.0, 0.7):
        assert abs(f.derivative(1, x) - 2 * g.derivative(1, 2 * x)) < 1e-12


def test_frequency_array_is_read_only_and_held_once():
    fs = spectra.FrequencySet((0.7, 1.9, 3.2))
    arr = fs.as_array()
    assert arr is fs.as_array() and not arr.flags.writeable
    assert arr.dtype == float and arr.tolist() == [0.7, 1.9, 3.2]
    with pytest.raises(ValueError):
        arr[0] = 1.0
    # equality, hash and repr are those of the tuple alone
    twin = spectra.FrequencySet((0.7, 1.9, 3.2))
    assert twin == fs and hash(twin) == hash(fs) and twin.as_array() is not arr
    assert repr(fs) == "FrequencySet(frequencies=(0.7, 1.9, 3.2))"
    assert [f.name for f in dataclasses.fields(fs) if f.compare or f.hash] == ["frequencies"]


def test_frequency_set_validation():
    with pytest.raises(ValueError):
        spectra.FrequencySet(())
    with pytest.raises(ValueError):
        spectra.FrequencySet((2.0, 1.0))
    with pytest.raises(ValueError):
        spectra.FrequencySet((-1.0, 2.0))


def test_integer_frequencies_builder():
    fs = spectra.integer_frequencies(3)
    assert fs.frequencies == (1.0, 2.0, 3.0)
    assert fs.is_consecutive_integers() and fs.is_all_integer()
    assert not spectra.FrequencySet((1.0, 2.0, 4.0)).is_consecutive_integers()
    assert spectra.FrequencySet((1.0, 2.0, 4.0)).is_all_integer()


# --- frequency deduplication -------------------------------------------------

#: Integer spectra with repeated levels, at least two of them distinct.
_INTEGER_SPECTRA = st.lists(st.integers(-20, 20), min_size=2, max_size=12).filter(lambda v: len(set(v)) > 1)


@given(eigs=_INTEGER_SPECTRA)
def test_integer_spectrum_gives_its_distinct_positive_differences(eigs):
    want = sorted({abs(a - b) for a in eigs for b in eigs} - {0})
    assert spectra.positive_difference_frequencies(eigs).frequencies == tuple(map(float, want))


@given(data=st.data(), eigs=st.lists(st.floats(-10, 10), min_size=2, max_size=10))
def test_frequencies_do_not_depend_on_eigenvalue_order(data, eigs):
    shuffled = data.draw(st.permutations(eigs))
    assume(max(eigs) - min(eigs) > 1e-6)  # some gap exceeds the deduplication cut
    assert (spectra.positive_difference_frequencies(shuffled).frequencies
            == spectra.positive_difference_frequencies(eigs).frequencies)


@given(eigs=_INTEGER_SPECTRA, c=st.floats(1e-3, 1e3))
def test_scaled_spectrum_gives_scaled_frequencies(eigs, c):
    base = spectra.positive_difference_frequencies(eigs).as_array()
    scaled = spectra.positive_difference_frequencies([c * v for v in eigs]).as_array()
    assert scaled.shape == base.shape
    assert np.allclose(scaled, c * base, rtol=1e-12, atol=0)
