"""Bucketed conditioning, odd/even splitting and the sub-linearity check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intraday.conditioning import (
    BucketSpec,
    ConditionalCurve,
    conditional_statistic,
    dispersion_vs_index,
    kurtosis_vs_dispersion,
    kurtosis_vs_index,
    odd_even_decompose,
    skew_vs_index,
    sublinearity_diagnostic,
)
from intraday.cross_section import dispersion_grid
from intraday.errors import InsufficientDataError
from intraday.synth import gaussian_iid_panel


def make_curve(centers, means, stderr=None, counts=None, statistic_name="y"):
    centers = np.asarray(centers, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if stderr is None:
        stderr = np.full_like(means, 0.1)
    if counts is None:
        counts = np.full(means.shape, 10, dtype=int)
    return ConditionalCurve(
        bucket_centers=centers,
        means=means,
        stderr=np.asarray(stderr, dtype=np.float64),
        counts=np.asarray(counts, dtype=int),
        conditioning_name="x",
        statistic_name=statistic_name,
        omitted_buckets=0,
    )


class TestBucketSpec:
    def test_fixed_width_default_grid(self):
        spec = BucketSpec.fixed_width()
        assert spec.n_buckets == 60
        assert spec.edges[0] == pytest.approx(-0.03)
        assert spec.edges[-1] == pytest.approx(0.03)
        np.testing.assert_allclose(np.diff(spec.edges), 0.001)

    def test_centers_are_midpoints(self):
        spec = BucketSpec.fixed_width(width=0.5, lo=0.0, hi=2.0)
        np.testing.assert_allclose(spec.centers, [0.25, 0.75, 1.25, 1.75])

    def test_from_edges_accepts_uneven_grid(self):
        spec = BucketSpec([0.0, 1.0, 3.0, 10.0])
        assert spec.n_buckets == 3
        np.testing.assert_allclose(spec.centers, [0.5, 2.0, 6.5])

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="width must be positive"):
            BucketSpec.fixed_width(width=0.0)
        with pytest.raises(ValueError, match="hi > lo"):
            BucketSpec.fixed_width(width=0.1, lo=1.0, hi=1.0)
        with pytest.raises(ValueError, match="whole number of widths"):
            BucketSpec.fixed_width(width=0.3, lo=0.0, hi=1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            BucketSpec([0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="at least 2"):
            BucketSpec([0.0])


class TestConditionalStatistic:
    def test_exact_bucketing(self):
        x = [0.05, 0.15, 0.15, 0.25, 0.95, 1.0, -0.5, 2.5]
        y = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 100.0, 200.0]
        spec = BucketSpec.fixed_width(width=0.1, lo=0.0, hi=1.0)
        curve = conditional_statistic(x, y, spec, min_count=1)
        np.testing.assert_allclose(curve.bucket_centers, [0.05, 0.15, 0.25, 0.95])
        np.testing.assert_allclose(curve.means, [1.0, 3.0, 8.0, 24.0])
        # population std over the bucket divided by sqrt(count)
        np.testing.assert_allclose(
            curve.stderr, [0.0, 1.0 / np.sqrt(2), 0.0, 8.0 / np.sqrt(2)]
        )
        np.testing.assert_array_equal(curve.counts, [1, 2, 1, 2])
        # buckets 3..8 stayed empty; the out-of-span pairs do not count
        assert curve.omitted_buckets == 6

    def test_closing_edge_folds_into_last_bucket(self):
        spec = BucketSpec.fixed_width(width=0.5, lo=0.0, hi=1.0)
        curve = conditional_statistic([1.0], [7.0], spec, min_count=1)
        np.testing.assert_allclose(curve.bucket_centers, [0.75])
        assert curve.means[0] == 7.0

    def test_interior_edge_belongs_to_upper_bucket(self):
        spec = BucketSpec.fixed_width(width=0.5, lo=0.0, hi=1.0)
        curve = conditional_statistic([0.5], [3.0], spec, min_count=1)
        np.testing.assert_allclose(curve.bucket_centers, [0.75])

    def test_min_count_omission(self):
        x = [0.05, 0.15, 0.15, 0.25, 0.95, 1.0]
        y = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        spec = BucketSpec.fixed_width(width=0.1, lo=0.0, hi=1.0)
        curve = conditional_statistic(x, y, spec, min_count=2)
        np.testing.assert_allclose(curve.bucket_centers, [0.15, 0.95])
        assert curve.omitted_buckets == 8

    def test_names_carried_through(self):
        curve = conditional_statistic(
            [0.5],
            [1.0],
            BucketSpec([0.0, 1.0]),
            min_count=1,
            conditioning_name="abs_move",
            statistic_name="spread",
        )
        assert curve.conditioning_name == "abs_move"
        assert curve.statistic_name == "spread"

    def test_rejects_bad_inputs(self):
        spec = BucketSpec([0.0, 1.0])
        with pytest.raises(ValueError, match="sizes differ"):
            conditional_statistic([0.1, 0.2], [1.0], spec, min_count=1)
        with pytest.raises(InsufficientDataError, match="no pairs"):
            conditional_statistic([], [], spec, min_count=1)
        with pytest.raises(ValueError, match="min_count"):
            conditional_statistic([0.1], [1.0], spec, min_count=0)


@pytest.fixture(scope="module")
def grid():
    panel = gaussian_iid_panel(12, 80, 4, 0.01, seed=21)
    return dispersion_grid(panel)


@pytest.fixture(scope="module")
def wide():
    return BucketSpec.fixed_width(width=0.02, lo=-0.1, hi=0.1)


class TestGridConditioners:
    """The grid wrappers must pick the right pooled columns and names."""

    def test_dispersion_vs_index_matches_manual(self, grid, wide):
        pool = grid.pooled()
        want = conditional_statistic(
            pool["index_return"], pool["dispersion"], wide, min_count=1
        )
        got = dispersion_vs_index(grid, wide, min_count=1)
        np.testing.assert_allclose(got.means, want.means)
        np.testing.assert_allclose(got.bucket_centers, want.bucket_centers)
        assert got.conditioning_name == "index_return"
        assert got.statistic_name == "dispersion"

    def test_skew_and_kurtosis_pick_their_columns(self, grid, wide):
        pool = grid.pooled()
        skew = skew_vs_index(grid, wide, min_count=1)
        kurt = kurtosis_vs_index(grid, wide, min_count=1)
        want_skew = conditional_statistic(
            pool["index_return"], pool["skewness"], wide, min_count=1
        )
        want_kurt = conditional_statistic(
            pool["index_return"], pool["kurtosis"], wide, min_count=1
        )
        np.testing.assert_allclose(skew.means, want_skew.means)
        np.testing.assert_allclose(kurt.means, want_kurt.means)
        assert skew.statistic_name == "skewness"
        assert kurt.statistic_name == "kurtosis"

    def test_absolute_index_conditioning(self, grid):
        spec = BucketSpec.fixed_width(width=0.02, lo=0.0, hi=0.1)
        pool = grid.pooled()
        want = conditional_statistic(
            np.abs(pool["index_return"]), pool["kurtosis"], spec, min_count=1
        )
        got = kurtosis_vs_index(grid, spec, min_count=1, absolute_index=True)
        np.testing.assert_allclose(got.means, want.means)
        assert got.conditioning_name == "abs_index_return"

    def test_kurtosis_vs_dispersion_kinds(self, grid):
        spec = BucketSpec.fixed_width(width=0.005, lo=0.0, hi=0.05)
        pool = grid.pooled()
        by_std = kurtosis_vs_dispersion(grid, spec, min_count=1)
        by_mad = kurtosis_vs_dispersion(grid, spec, min_count=1, dispersion_kind="mad")
        want_std = conditional_statistic(
            pool["dispersion"], pool["kurtosis"], spec, min_count=1
        )
        want_mad = conditional_statistic(
            pool["mad"], pool["kurtosis"], spec, min_count=1
        )
        np.testing.assert_allclose(by_std.means, want_std.means)
        np.testing.assert_allclose(by_mad.means, want_mad.means)
        assert by_std.conditioning_name == "dispersion_std"
        assert by_mad.conditioning_name == "dispersion_mad"

    def test_unknown_dispersion_kind(self, grid):
        with pytest.raises(ValueError, match="unknown dispersion kind"):
            kurtosis_vs_dispersion(grid, dispersion_kind="iqr")


class TestOddEvenDecompose:
    def test_exact_split_of_quadratic_plus_linear(self):
        centers = np.array([-0.25, -0.15, -0.05, 0.05, 0.15, 0.25])
        means = 2.0 + 3.0 * centers + 5.0 * centers**2
        curve = make_curve(centers, means)
        odd, even = odd_even_decompose(curve)
        pos = np.array([0.05, 0.15, 0.25])
        np.testing.assert_allclose(odd.bucket_centers, pos)
        np.testing.assert_allclose(even.bucket_centers, pos)
        np.testing.assert_allclose(odd.means, 3.0 * pos, atol=1e-14)
        np.testing.assert_allclose(even.means, 2.0 + 5.0 * pos**2, atol=1e-14)
        assert odd.statistic_name == "odd[y]"
        assert even.statistic_name == "even[y]"

    def test_errors_combine_in_quadrature(self):
        curve = make_curve([-0.1, 0.1], [1.0, 3.0], stderr=[0.3, 0.4])
        odd, even = odd_even_decompose(curve)
        expected = np.hypot(0.3, 0.4) / 2.0
        np.testing.assert_allclose(odd.stderr, [expected])
        np.testing.assert_allclose(even.stderr, [expected])
        np.testing.assert_array_equal(odd.counts, [20])

    def test_zero_center_bucket_is_its_own_pair(self):
        curve = make_curve([-0.1, 0.0, 0.1], [1.0, 5.0, 3.0], stderr=[0.1, 0.2, 0.1])
        odd, even = odd_even_decompose(curve)
        np.testing.assert_allclose(odd.bucket_centers, [0.0, 0.1])
        assert odd.means[0] == 0.0
        assert odd.stderr[0] == 0.0
        assert even.means[0] == 5.0
        assert even.stderr[0] == 0.2

    def test_unpaired_bucket_is_an_error(self):
        curve = make_curve([-0.2, -0.1, 0.1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="mirror partner") as exc:
            odd_even_decompose(curve)
        assert "-0.2" in str(exc.value)

    def test_nan_center_is_an_unpaired_bucket(self):
        # a NaN center is on neither side of 0 and within no tolerance of it
        curve = make_curve([np.nan, -0.1, 0.1], [1.0, 2.0, 3.0], counts=[50, 60, 70])
        with pytest.raises(ValueError, match=r"mirror partner at \+nan$"):
            odd_even_decompose(curve)
        curve = make_curve([-0.3, np.nan, 0.1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"mirror partner at -0\.3, \+0\.1, \+nan$"):
            odd_even_decompose(curve)


class TestSublinearityDiagnostic:
    @staticmethod
    def symmetric_centers(step=0.05, n=10):
        pos = step * np.arange(1, n + 1)
        return np.concatenate([-pos[::-1], pos])

    def test_exactly_linear_curve_has_zero_deviations(self):
        centers = self.symmetric_centers()
        means = 1.0 + 4.0 * np.abs(centers)
        curve = make_curve(centers, means, stderr=np.full(centers.size, 0.01))
        report = sublinearity_diagnostic(curve, origin_window=3)
        assert not report.sub_linear
        assert report.origin_window == 3
        assert len(report.branches) == 2
        for branch in report.branches:
            np.testing.assert_allclose(branch.deviations, 0.0, atol=1e-12)
            assert not branch.sub_linear
        by_sign = {b.sign: b for b in report.branches}
        assert by_sign[+1].slope == pytest.approx(4.0)
        assert by_sign[-1].slope == pytest.approx(-4.0)
        assert by_sign[+1].intercept == pytest.approx(1.0)

    def test_square_root_curve_is_sub_linear(self):
        centers = self.symmetric_centers()
        means = np.sqrt(np.abs(centers))
        curve = make_curve(centers, means, stderr=np.full(centers.size, 1e-6))
        report = sublinearity_diagnostic(curve, origin_window=3)
        assert report.sub_linear
        for branch in report.branches:
            assert branch.sub_linear
            assert np.all(branch.deviations < 0)

    def test_convex_curve_is_not_sub_linear(self):
        centers = self.symmetric_centers()
        means = np.abs(centers) ** 2
        curve = make_curve(centers, means, stderr=np.full(centers.size, 1e-6))
        report = sublinearity_diagnostic(curve, origin_window=3)
        assert not report.sub_linear

    def test_one_concave_branch_is_not_enough(self):
        centers = self.symmetric_centers()
        means = np.where(centers > 0, np.sqrt(centers.clip(min=0)), centers**2)
        curve = make_curve(centers, means, stderr=np.full(centers.size, 1e-6))
        report = sublinearity_diagnostic(curve, origin_window=3)
        by_sign = {b.sign: b for b in report.branches}
        assert by_sign[+1].sub_linear
        assert not by_sign[-1].sub_linear
        assert not report.sub_linear

    def test_outer_centers_exclude_the_window(self):
        centers = self.symmetric_centers()
        means = np.sqrt(np.abs(centers))
        curve = make_curve(centers, means, stderr=np.full(centers.size, 1e-6))
        report = sublinearity_diagnostic(curve, origin_window=4)
        by_sign = {b.sign: b for b in report.branches}
        np.testing.assert_allclose(
            by_sign[+1].centers, 0.05 * np.arange(5, 11), atol=1e-12
        )

    def test_window_and_branch_size_validation(self):
        centers = self.symmetric_centers()
        means = np.abs(centers)
        curve = make_curve(centers, means)
        with pytest.raises(ValueError, match="origin_window"):
            sublinearity_diagnostic(curve, origin_window=1)
        short = make_curve([-0.1, -0.05, 0.05, 0.1], [0.1, 0.05, 0.05, 0.1])
        with pytest.raises(InsufficientDataError, match="branch"):
            sublinearity_diagnostic(short, origin_window=3)


def loop_odd_even(curve, center_tol=1e-9):
    """The pairing loop that ``odd_even_decompose`` replaced, as its reference."""
    c = curve.bucket_centers
    pos = np.nonzero(c > center_tol)[0]
    neg = np.nonzero(c < -center_tol)[0]
    zero = np.nonzero(np.abs(c) <= center_tol)[0]
    neg_by_center = {float(-c[i]): i for i in neg}
    unpaired, pairs = [], []
    for i in pos:
        target = float(c[i])
        match = None
        for cx, j in neg_by_center.items():
            if abs(cx - target) <= center_tol:
                match = j
                break
        if match is None:
            unpaired.append(target)
        else:
            pairs.append((i, match))
    matched_neg = {j for _, j in pairs}
    unpaired.extend(float(c[j]) for j in neg if j not in matched_neg)
    if unpaired:
        shown = ", ".join(f"{u:+.6g}" for u in sorted(unpaired)[:8])
        raise ValueError(f"buckets without a mirror partner at {shown}")
    centers, odd_m, odd_s, even_m, even_s, counts = [], [], [], [], [], []
    for j in zero:
        centers.append(0.0)
        odd_m.append(0.0)
        odd_s.append(0.0)
        even_m.append(curve.means[j])
        even_s.append(curve.stderr[j])
        counts.append(curve.counts[j])
    for i, j in sorted(pairs, key=lambda p: c[p[0]]):
        centers.append(float(c[i]))
        combined = float(np.hypot(curve.stderr[i], curve.stderr[j]) / 2.0)
        odd_m.append((curve.means[i] - curve.means[j]) / 2.0)
        odd_s.append(combined)
        even_m.append((curve.means[i] + curve.means[j]) / 2.0)
        even_s.append(combined)
        counts.append(int(curve.counts[i] + curve.counts[j]))
    return tuple(
        (np.asarray(centers), np.asarray(m), np.asarray(e), np.asarray(counts, dtype=int))
        for m, e in ((odd_m, odd_s), (even_m, even_s))
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    width=st.floats(1e-4, 0.05),
    half=st.integers(0, 30),
    with_zero=st.booleans(),
    kept=st.floats(0.0, 1.0),
    lone=st.sampled_from([None, +1, -1]),
    shuffled=st.booleans(),
    crowding=st.sampled_from([0.0, 0.7, 1.6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_odd_even_is_the_pairing_loop_bit_for_bit(
    width, half, with_zero, kept, lone, shuffled, crowding, seed
):
    """Symmetric bucket grids as ``BucketSpec`` lays them out, with or
    without a bucket at zero, some mirror pairs left out (as ``min_count``
    omits them), optionally one bucket left without its mirror, in any order;
    and a tolerance wide enough for a bucket to meet several mirrors."""
    rng = np.random.default_rng(seed)
    tol = 1e-9 + crowding * width
    lo = -(half + 0.5 * with_zero) * width
    if lo == 0.0:
        lo, with_zero = -0.5 * width, True
    centers = BucketSpec.fixed_width(width, lo, -lo).centers
    n = centers.size
    pair_of = n - 1 - np.arange(n)
    keep = rng.random(n) < kept
    keep |= keep[pair_of]
    if lone is not None and (np.abs(centers) > tol).any():
        side = np.nonzero((np.sign(centers) == lone) & (np.abs(centers) > tol))[0]
        i = rng.choice(side)
        keep[i], keep[pair_of[i]] = True, False
    index = np.nonzero(keep)[0]
    if shuffled:
        index = rng.permutation(index)
    curve = make_curve(
        centers[index],
        rng.standard_normal(index.size),
        stderr=rng.uniform(0.0, 1.0, index.size),
        counts=rng.integers(1, 1000, index.size),
        statistic_name="skewness",
    )
    try:
        want = loop_odd_even(curve, tol)
    except ValueError as error:
        with pytest.raises(ValueError) as exc:
            odd_even_decompose(curve, tol)
        assert str(exc.value) == str(error)
        return
    for got, (at, means, stderr, counts) in zip(odd_even_decompose(curve, tol), want):
        assert got.bucket_centers.tobytes() == at.tobytes()
        assert got.means.tobytes() == means.tobytes()
        assert got.stderr.tobytes() == stderr.tobytes()
        assert got.counts.dtype == counts.dtype
        assert got.counts.tobytes() == counts.tobytes()
        assert (got.conditioning_name, got.omitted_buckets) == ("x", 0)


def loop_conditional_statistic(x, y, buckets, min_count):
    """The per-bucket loop that ``conditional_statistic`` replaced, as its
    reference: (centers, means, stderr, counts, omitted buckets)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    edges = buckets.edges
    centers_all = buckets.centers
    idx = np.searchsorted(edges, x, side="right") - 1
    idx[x == edges[-1]] = buckets.n_buckets - 1
    in_span = (idx >= 0) & (idx < buckets.n_buckets)
    centers, means, stderrs, counts = [], [], [], []
    omitted = 0
    for b in range(buckets.n_buckets):
        sel = in_span & (idx == b)
        n = int(sel.sum())
        if n < min_count:
            omitted += 1
            continue
        vals = y[sel]
        centers.append(centers_all[b])
        means.append(vals.mean())
        stderrs.append(vals.std() / np.sqrt(n))
        counts.append(n)
    arrays = (np.asarray(centers), np.asarray(means), np.asarray(stderrs))
    return (*arrays, np.asarray(counts, dtype=int), omitted)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n_buckets=st.integers(1, 40),
    width=st.floats(1e-4, 0.05),
    lo=st.floats(-0.1, 0.1),
    n=st.integers(1, 400),
    on_edges=st.floats(0.0, 1.0),
    nan_share=st.floats(0.0, 0.3),
    outside=st.booleans(),
    min_count=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_conditional_statistic_is_the_bucket_loop_bit_for_bit(
    n_buckets, width, lo, n, on_edges, nan_share, outside, min_count, seed
):
    """Samples spread a little past the span, or wholly outside it, with a
    share of x on the edges (interior and closing), a share of NaN x, and
    ``min_count`` from 1 to above every count."""
    rng = np.random.default_rng(seed)
    spec = BucketSpec(lo + width * np.arange(n_buckets + 1))
    span = spec.edges[-1] - spec.edges[0]
    if outside:
        x = spec.edges[-1] + span * rng.uniform(0.01, 2.0, n) * rng.choice([-1.0, 1.0], n)
        x[x < spec.edges[-1]] -= span * 1.01  # below the opening edge
    else:
        x = rng.uniform(spec.edges[0] - 0.1 * span, spec.edges[-1] + 0.1 * span, n)
    edge = (rng.random(n) < on_edges) & (not outside)
    x[edge] = rng.choice(spec.edges, edge.sum())
    x[rng.random(n) < nan_share] = np.nan
    y = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    got = conditional_statistic(x, y, spec, min_count, "abs_move", "spread")
    centers, means, stderr, counts, omitted = loop_conditional_statistic(
        x, y, spec, min_count
    )
    fields = "bucket_centers", "means", "stderr", "counts"
    for field, want in zip(fields, (centers, means, stderr, counts)):
        assert getattr(got, field).dtype == want.dtype, field
        assert getattr(got, field).tobytes() == want.tobytes(), field
    assert got.omitted_buckets == omitted
    assert type(got.omitted_buckets) is int
    assert (got.conditioning_name, got.statistic_name) == ("abs_move", "spread")
