"""Tests for the sample covariance summary and the 2 x 2 eigenvalue formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auesim.covariance import CovarianceBlock, check_entries

from oracles import eigenvalues, sample_covariance


def random_pilot(rng, m=8):
    return rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))


def checked(r1, r2, r12):
    """Hand-written entries as a ``CovarianceBlock``, after ``check_entries`` passes them."""
    check_entries(r1, r2, r12)
    return CovarianceBlock(r1, r2, r12)


def determinant(cov):
    return cov.r1 * cov.r2 - (cov.r12.real**2 + cov.r12.imag**2)


def as_matrix(cov):
    return np.array([[cov.r1, cov.r12], [np.conj(cov.r12), cov.r2]])


class TestSampleCovariance:
    def test_hand_computed_entries(self):
        cov = sample_covariance(np.array([[1.0, 1j], [1.0, -1.0]]))
        assert isinstance(cov, CovarianceBlock)
        assert cov.r1 == pytest.approx(1.0, rel=1e-15)
        assert cov.r2 == pytest.approx(1.0, rel=1e-15)
        # r12 = (y1 . conj(y2)) / M = (1*1 + 1j*(-1)) / 2
        assert cov.r12 == pytest.approx((1.0 - 1.0j) / 2.0, rel=1e-15)

    def test_matches_outer_product_average(self):
        """Entries must equal Y Y^H / M computed the long way."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            pilot = random_pilot(rng)
            cov = sample_covariance(pilot)
            full = pilot @ pilot.conj().T / pilot.shape[1]
            assert cov.r1 == pytest.approx(full[0, 0].real, rel=1e-12)
            assert cov.r2 == pytest.approx(full[1, 1].real, rel=1e-12)
            assert cov.r12 == pytest.approx(full[0, 1], rel=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            cov = sample_covariance(random_pilot(rng, m=3))
            assert cov.r1 >= 0.0
            assert cov.r2 >= 0.0
            assert determinant(cov) >= -1e-12 * max(1.0, cov.r1 * cov.r2)

    def test_rank_one_pilot_has_zero_determinant(self):
        y1 = np.array([1.0 + 0.5j, -0.25j, 0.75])
        cov = sample_covariance(np.vstack([y1, (0.3 - 0.9j) * y1]))
        assert determinant(cov) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_cross_term_violating_cauchy_schwarz(self):
        with pytest.raises(ValueError):
            checked(r1=1.0, r2=1.0, r12=1.5 + 0.0j)

    @pytest.mark.parametrize("kwargs", [dict(r1=-0.5), dict(r2=math.nan), dict(r12=complex(math.inf, 0))])
    def test_rejects_bad_entries(self, kwargs):
        entries = dict(r1=2.0, r2=2.0, r12=0.5 + 0.5j)
        entries.update(kwargs)
        with pytest.raises(ValueError):
            checked(**entries)


class TestEigenvalues:
    def test_diagonal_matrix(self):
        lambda_max, lambda_min = eigenvalues(checked(r1=3.0, r2=1.0, r12=0.0 + 0.0j))
        assert lambda_max == pytest.approx(3.0, rel=1e-15)
        assert lambda_min == pytest.approx(1.0, rel=1e-15)

    def test_matches_hermitian_eigensolver(self):
        """Closed form against numpy's Hermitian eigensolver on random inputs."""
        rng = np.random.default_rng(33)
        for _ in range(1000):
            cov = sample_covariance(random_pilot(rng))
            lambda_max, lambda_min = eigenvalues(cov)
            lo, hi = np.linalg.eigvalsh(as_matrix(cov))
            np.testing.assert_allclose([lambda_min, lambda_max], [lo, hi], rtol=1e-9, atol=1e-12)

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            cov = sample_covariance(random_pilot(rng))
            lambda_max, lambda_min = eigenvalues(cov)
            trace = cov.r1 + cov.r2
            assert lambda_max + lambda_min == pytest.approx(trace, rel=1e-12)
            assert lambda_max * lambda_min == pytest.approx(determinant(cov), rel=1e-9, abs=1e-12 * trace**2)

    def test_ordering_and_spread(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            cov = sample_covariance(random_pilot(rng))
            lambda_max, lambda_min = eigenvalues(cov)
            assert lambda_max >= lambda_min
            spread = math.sqrt((cov.r1 - cov.r2) ** 2 + 4.0 * abs(cov.r12) ** 2)
            assert lambda_max - lambda_min == pytest.approx(spread, rel=1e-12)

    def test_repeated_eigenvalue(self):
        lambda_max, lambda_min = eigenvalues(checked(r1=2.0, r2=2.0, r12=0.0 + 0.0j))
        assert lambda_max == lambda_min == pytest.approx(2.0, rel=1e-15)

    def test_rejects_non_finite(self):
        """Valid covariances whose trace or discriminant overflows have no finite
        eigenvalues; the second raised OverflowError from squaring a Python float."""
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            eigenvalues(CovarianceBlock(1.5e308, 1.5e308, 0j))
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            eigenvalues(sample_covariance(np.array([[1e80, 0.0], [0.0, 0.0]])))


def check_entries_oracle(r1, r2, r12):
    """The check ``covariance.check_entries`` made entry by entry, one pass of
    numpy calls per entry, kept as the reference the one-pass check must match."""
    r1, r2, r12 = np.asarray(r1), np.asarray(r2), np.asarray(r12)
    for name, values, rule, ok in (
        ("r1", r1, "finite and >= 0", r1 >= 0.0),
        ("r2", r2, "finite and >= 0", r2 >= 0.0),
        ("r12", r12, "finite", True),
    ):
        bad = ~(np.isfinite(values) & ok)
        if bad.any():
            raise ValueError(f"{name} must be {rule}, got {values[bad][0]}")
    cross = r12.real**2 + r12.imag**2
    bad = r1 * r2 - cross < -1e-12 * np.maximum(1.0, r1 * r2)
    if bad.any():
        raise ValueError(
            f"|r12|^2 = {cross[bad][0]} exceeds r1*r2 = {(r1 * r2)[bad][0]}; "
            "not a valid sample covariance"
        )


def _outcome(check, entries):
    """None if ``check`` accepts ``entries``, else the message it raises."""
    try:
        # overflow and inf - inf are part of the inputs, on both sides alike
        with np.errstate(all="ignore"):
            check(*entries)
    except ValueError as exc:
        return str(exc)
    return None


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-12, 5e-324, -5e-324, 1e300, -1e300, 1.7e308, math.inf, -math.inf, math.nan]
_ENTRY = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _near_boundary(draw):
    """A covariance whose |r12|^2 lies within a few 1e-12 of r1*r2, so that
    rounding decides the determinant check; at 1e300 both products overflow."""
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    if draw(st.booleans()):
        # r1*r2 <= 1, where the slack is 1e-12 absolute
        r1, r2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        size = math.sqrt(r1 * r2 + draw(st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 3e-12])))
    else:
        scale = draw(st.sampled_from([1e-6, 1.0, 25.0, 1e6, 1e150, 1e300]))
        r1 = scale * draw(st.floats(0.0, 4.0))
        r2 = scale * draw(st.floats(0.0, 4.0))
        stretch = 1.0 + draw(st.sampled_from([-1e-11, -1e-13, 0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11]))
        size = math.sqrt(r1) * math.sqrt(r2) * stretch
    return r1, r2, complex(size * math.cos(angle), size * math.sin(angle))


@st.composite
def _entry_arrays(draw):
    """(r1, r2, r12) as scalars or as arrays of up to six entries, each entry
    valid, near the determinant boundary, or built from special values."""
    valid = st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)).map(
        lambda r: (r[0], r[1], 0.5 * complex(r[0], -r[1]))
    )
    special = st.tuples(_ENTRY, _ENTRY, st.builds(complex, _ENTRY, _ENTRY))
    one = st.one_of(valid, _near_boundary(), special)
    if draw(st.booleans()):
        return draw(one)
    entries = draw(st.lists(one, min_size=1, max_size=6))
    return tuple(np.array(column) for column in zip(*entries))


class TestCheckEntriesAgainstOracle:
    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(_entry_arrays())
    def test_same_verdict_and_message(self, entries):
        assert _outcome(check_entries, entries) == _outcome(check_entries_oracle, entries)

    @pytest.mark.parametrize(
        "entries",
        [
            (1e300, 1e300, complex(1e300, 0.0)),  # both products overflow: inf - inf passes
            (1.0, 1e300, complex(1e300, 0.0)),  # only |r12|^2 overflows
            (1e300, 1e300, 0j),  # only r1*r2 overflows
            (np.array([1.0, -0.0]), np.array([1.0, 1.0]), np.zeros(2, complex)),
            (np.array([1.0, 2.0]), np.array([math.nan, 1.0]), np.zeros(2, complex)),
            (1.0, 1.0, complex(1.0, math.inf)),
            (1.0, 1.0, complex(1.0 + 1e-12, 0.0)),  # within the slack
            (1.0, 1.0, complex(1.0 + 1e-11, 0.0)),  # past it
            (1.0, 0.5, complex(math.sqrt(0.5 + 1.5e-12), 0.0)),  # 1.5e-12 short, below r1*r2 = 1
            (np.zeros(0), np.zeros(0), np.zeros(0, complex)),
        ],
    )
    def test_edges(self, entries):
        assert _outcome(check_entries, entries) == _outcome(check_entries_oracle, entries)
