"""Property suites for the toolkit's structural invariants.

Each suite runs 1000 derandomized cases; the acceptance module re-invokes
them, so keep these as plain module-level functions.
"""

import datetime as dt

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intraday.conditioning import BucketSpec, conditional_statistic
from intraday.panel import load_panel
from intraday.robust_moments import grid_moments, moment_set
from intraday.spectral import CorrelationMatrix, eigen_decompose

from return_rows import read_rows

SUITE = settings(max_examples=1000, derandomize=True, deadline=None)

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False,
    allow_subnormal=False,
)


@SUITE
@given(
    data=st.lists(finite, min_size=4, max_size=40),
    scale=st.floats(0.01, 50.0, allow_subnormal=False),
    negate=st.booleans(),
    shift=finite,
)
def test_affine_equivariance_of_moment_set(data, scale, negate, shift):
    """mean/median map affinely, vol picks up |a|, skew flips with the sign
    of a, kurtosis is invariant."""
    x = np.asarray(data)
    assume(x.std() > 1e-3)
    a = -scale if negate else scale
    base = moment_set(x)
    mapped = moment_set(a * x + shift)
    sign = -1.0 if negate else 1.0
    atol = 1e-7 * (1.0 + abs(a) * np.abs(x).max() + abs(shift))
    assert np.isclose(mapped.mean, a * base.mean + shift, rtol=1e-9, atol=atol)
    assert np.isclose(mapped.median, a * base.median + shift, rtol=1e-9, atol=atol)
    assert np.isclose(mapped.volatility, abs(a) * base.volatility, rtol=1e-7, atol=1e-12)
    assert np.isclose(mapped.skewness, sign * base.skewness, rtol=1e-6, atol=1e-6)
    assert np.isclose(mapped.kurtosis, base.kurtosis, rtol=1e-6, atol=1e-6)


@SUITE
@given(perm=st.permutations(list(range(12))), seed=st.integers(0, 10_000))
def test_load_panel_is_order_independent(perm, seed):
    rng = np.random.default_rng(seed)
    dates = [dt.date(2020, 1, 6) + dt.timedelta(days=i) for i in range(3)]
    records = []
    for symbol in ("AAA", "BBB"):
        for date in dates:
            for b in (1, 2):
                records.append((date, b, symbol, float(rng.standard_normal())))
    panel_a, _ = load_panel(read_rows(records))
    panel_b, _ = load_panel(read_rows([records[i] for i in perm]))
    np.testing.assert_array_equal(panel_a.returns, panel_b.returns)
    assert panel_a.stock_ids == panel_b.stock_ids
    assert panel_a.dates == panel_b.dates


@SUITE
@given(perm=st.permutations(list(range(30))), seed=st.integers(0, 10_000))
def test_conditioning_is_order_independent(perm, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    buckets = BucketSpec.fixed_width(0.5, -3.0, 3.0)
    curve_a = conditional_statistic(x, y, buckets, min_count=1)
    curve_b = conditional_statistic(x[perm], y[perm], buckets, min_count=1)
    np.testing.assert_array_equal(curve_a.counts, curve_b.counts)
    np.testing.assert_array_equal(curve_a.bucket_centers, curve_b.bucket_centers)
    np.testing.assert_allclose(curve_a.means, curve_b.means, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve_a.stderr, curve_b.stderr, rtol=0, atol=1e-12)
    assert curve_a.omitted_buckets == curve_b.omitted_buckets


@SUITE
@given(
    n=st.integers(2, 20),
    t=st.integers(2, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_spectrum_conserves_trace_and_reconstructs(n, t, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, t))
    # guard against a zero-variance row making corrcoef undefined
    assume(bool(np.all(data.std(axis=1) > 1e-8)))
    c = np.corrcoef(data)
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    spectrum = eigen_decompose(CorrelationMatrix(entries=c, bin=1, sample_count=t))
    lam = spectrum.eigenvalues
    vec = spectrum.eigenvectors
    assert np.isclose(lam.sum(), float(n), rtol=1e-8, atol=1e-8)
    assert np.all(np.diff(lam) <= 1e-10)
    assert lam.min() > -1e-8
    np.testing.assert_allclose(vec @ np.diag(lam) @ vec.T, c, atol=1e-8)
    np.testing.assert_allclose(vec.T @ vec, np.eye(n), atol=1e-8)


@SUITE
@given(data=st.lists(finite, min_size=2, max_size=60))
def test_mad_never_exceeds_dispersion(data):
    """Cross-sectional mean absolute deviation is bounded by the standard
    deviation (Cauchy-Schwarz), degenerate sections giving equality at 0."""
    section = np.asarray(data)
    spread = section.max() - section.min()
    # below ~1e-154 the squared deviations underflow and the bound is moot
    assume(spread == 0.0 or spread > 1e-12)
    _, vol, _, _, _, mad, _ = grid_moments(section.reshape(-1, 1), axis=0)
    assert mad[0] <= vol[0] * (1.0 + 1e-12) + 1e-300
