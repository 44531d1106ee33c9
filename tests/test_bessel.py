"""Zeroth-order Bessel evaluation against an exact-series second route."""

import math

import numpy as np
import pytest

import oracles
from uavbsc.model import bessel_j0

# First positive zero of J0, a classical constant.
FIRST_ZERO = 2.404825557695773


def test_value_at_zero_is_exactly_one():
    assert bessel_j0(0.0) == 1.0


def test_matches_series_oracle_across_both_branches():
    # 401 points spanning the small-argument rational fit and the
    # large-argument asymptotic branch (switch at 5.0).
    xs = [i * 0.05 for i in range(401)]
    worst = max(abs(bessel_j0(x) - oracles.j0_reference(x)) for x in xs)
    assert worst <= 1e-12


def test_first_zero_location():
    assert abs(bessel_j0(FIRST_ZERO)) <= 1e-12


def test_known_reference_values():
    # Classical table values, correctly rounded doubles.
    for x, expected in [
        (1.0, 0.7651976865579666),
        (5.0, -0.1775967713143383),
        (20.0, 0.16702466434058315),
    ]:
        assert math.isclose(bessel_j0(x), expected, rel_tol=0, abs_tol=1e-13)


def test_even_symmetry():
    for x in (0.3, 1.7, 4.9, 5.1, 13.2):
        assert bessel_j0(-x) == bessel_j0(x)


def test_vectorized_matches_scalar_and_preserves_shape():
    xs = np.linspace(0.0, 18.0, 37)
    vec = bessel_j0(xs)
    assert isinstance(vec, np.ndarray) and vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == bessel_j0(float(x))
    assert isinstance(bessel_j0(1.0), float)


def test_amplitude_envelope_decays_at_large_argument():
    # |J0(x)| <= sqrt(2 / (pi x)) for x above the first zero region.
    for x in (5.0, 8.0, 12.0, 16.0, 20.0):
        assert abs(bessel_j0(x)) <= math.sqrt(2.0 / (math.pi * x)) + 1e-12


def test_tiny_argument_series_consistency():
    # Below the 1e-5 threshold a two-term series is used; it must agree
    # with the exact series to full precision there.
    for x in (0.0, 1e-9, 5e-6, 9.9e-6):
        assert abs(bessel_j0(x) - oracles.j0_reference(x)) <= 1e-15


# Arguments either side of the two branch switches (1e-5 and 5.0).
BRANCH_EDGES = [1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
                5.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 10.0)]


def test_array_call_matches_scalar_calls_bitwise():
    # An array wholly inside [1e-5, 5] skips the branch masks; any other
    # array is split by branch.  Either way each element gets the bits a
    # scalar call gives it, and NaN maps to NaN.
    small = np.concatenate([np.linspace(1e-5, 5.0, 257), BRANCH_EDGES[:2],
                            BRANCH_EDGES[3:5], [-2.5, -1e-5]])
    mixed = np.concatenate([small, [0.0, 9.9e-6, -3e-7, 5.5, 17.0, -40.0],
                            BRANCH_EDGES])
    with_nan = np.concatenate([mixed, [np.nan, -np.nan]])
    for arr in (small, mixed, with_nan, np.array([np.nan]),
                small[:261].reshape(-1, 3)):
        vec = bessel_j0(arr)
        assert vec.shape == arr.shape
        scalars = np.array([bessel_j0(float(x)) for x in arr.ravel()])
        assert vec.ravel().tobytes() == scalars.tobytes()
    # The same small arguments through the masked route.
    masked = bessel_j0(np.append(small, 7.0))[:-1]
    assert masked.tobytes() == bessel_j0(small).tobytes()
    assert np.isnan(bessel_j0(with_nan)[-2:]).all()
    assert math.isnan(bessel_j0(float("nan")))


def test_matches_scipy_j0_on_zero_to_fifty():
    special = pytest.importorskip("scipy.special")
    xs = np.concatenate([np.linspace(0.0, 50.0, 20001), BRANCH_EDGES])
    err = np.abs(bessel_j0(xs) - special.j0(xs))
    assert err.max() <= 1e-10
