"""Correlation spectra, market mode, and subspace overlap machinery.

The exchangeable matrix with off-diagonal rho has the closed-form spectrum
lambda_1 = 1 + (N-1) rho with eigenvector e, and N-1 degenerate
eigenvalues 1 - rho; at N = 126, rho = 0.3 the top eigenvalue is exactly
38.5.

With fewer days T than stocks N, ``bin_spectra`` takes the T x T dual Gram
matrix; its spectra are checked against the primal
``eigen_decompose(correlation_matrix(...))``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intraday.config import RunConfig, single_threaded_blas
from intraday.cross_section import normalize_panel
from intraday.errors import DegenerateSampleError, InsufficientDataError
from intraday.spectral import (
    BinSpectrum,
    CorrelationMatrix,
    _fix_signs,
    bin_spectra,
    correlation_matrix,
    eigen_decompose,
    market_mode_stats,
    overlap_singular_values,
    random_overlap_baseline,
)
from intraday.synth import gaussian_iid_panel


def exchangeable(n, rho):
    c = np.full((n, n), rho)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(entries=c, bin=1, sample_count=0)


class TestEigenDecompose:
    def test_exchangeable_closed_form(self):
        spec = eigen_decompose(exchangeable(126, 0.3))
        assert spec.eigenvalues[0] == pytest.approx(38.5, rel=1e-8)
        np.testing.assert_allclose(spec.eigenvalues[1:], 0.7, rtol=1e-8)
        assert abs(spec.eigenvalues.sum() - 126) / 126 < 1e-8
        mm = market_mode_stats(spec)
        assert mm.v1_dot_e == pytest.approx(1.0, abs=1e-10)
        assert mm.lambda1_over_n == pytest.approx(0.3 + 0.7 / 126, rel=1e-8)

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((9, 40))
        c = np.corrcoef(a)
        spec = eigen_decompose(CorrelationMatrix(entries=c, bin=3, sample_count=40))
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        np.testing.assert_allclose(rebuilt, c, atol=1e-10)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 50))
        c = np.corrcoef(a)
        s1 = eigen_decompose(CorrelationMatrix(entries=c, bin=1, sample_count=50))
        s2 = eigen_decompose(CorrelationMatrix(entries=c, bin=1, sample_count=50))
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)
        sums = s1.eigenvectors.sum(axis=0)
        for j, s in enumerate(sums):
            if abs(s) > 1e-12:
                assert s > 0
            else:
                nz = np.nonzero(s1.eigenvectors[:, j])[0]
                assert s1.eigenvectors[nz[0], j] > 0

    def test_asymmetric_rejected(self):
        c = np.eye(3)
        c[0, 1] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            eigen_decompose(CorrelationMatrix(entries=c, bin=1, sample_count=0))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            CorrelationMatrix(entries=np.zeros((2, 3)), bin=1, sample_count=0)


class TestCorrelationMatrix:
    def make_npanel(self, n=10, t=200, k=2, seed=0):
        panel = gaussian_iid_panel(
            n_stocks=n, n_days=t, bins_per_day=k, vol_profile=0.01, seed=seed
        )
        return normalize_panel(panel)

    def test_unit_diagonal_and_symmetry(self):
        npanel = self.make_npanel()
        c = correlation_matrix(npanel, 1)
        np.testing.assert_allclose(np.diag(c.entries), 1.0, atol=1e-14)
        np.testing.assert_allclose(c.entries, c.entries.T, atol=1e-14)
        assert np.all(np.abs(c.entries) <= 1.0)
        assert c.sample_count == 200

    def test_matches_numpy_corrcoef(self):
        npanel = self.make_npanel(n=6, t=90)
        c = correlation_matrix(npanel, 2)
        data = npanel.returns[:, :, npanel.column_of(2)]
        np.testing.assert_allclose(c.entries, np.corrcoef(data), atol=1e-12)

    def test_mirrored_series_fully_anticorrelated(self):
        row = np.random.default_rng(3).standard_normal(60)
        arr = np.stack([row, -row])[:, :, None]

        class View:
            returns = arr
            stock_ids = ("A", "B")
            bin_numbers = np.array([1])

            def column_of(self, k):
                return 0

        c = correlation_matrix(View(), 1)
        # negation is exact in floating point, so the clip must land on -1
        assert c.entries[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert c.entries[1, 0] == c.entries[0, 1]

    def test_identical_series_fully_correlated(self):
        row = np.random.default_rng(2).standard_normal(60)
        arr = np.stack([row, row])[:, :, None]

        class View:
            returns = arr
            stock_ids = ("A", "B")
            bin_numbers = np.array([1])

            def column_of(self, k):
                return 0

        c = correlation_matrix(View(), 1)
        np.testing.assert_allclose(c.entries, np.ones((2, 2)), atol=1e-12)

    def test_few_days_warns(self):
        npanel = self.make_npanel(n=10, t=5)
        with pytest.warns(UserWarning, match="rank-deficient"):
            correlation_matrix(npanel, 1)

    def test_one_day_rejected(self):
        npanel = self.make_npanel(n=4, t=2)
        data = npanel.returns[:, :1, :]

        class View:
            returns = data
            stock_ids = npanel.stock_ids
            bin_numbers = npanel.bin_numbers

            def column_of(self, k):
                return npanel.column_of(k)

        with pytest.raises(InsufficientDataError):
            correlation_matrix(View(), 1)

    def test_flat_stock_named(self):
        arr = np.random.default_rng(1).standard_normal((3, 30, 1)) * 0.01
        arr[1, :, 0] = 0.005

        class View:
            returns = arr
            stock_ids = ("AAA", "BBB", "CCC")
            bin_numbers = np.array([1])

            def column_of(self, k):
                return 0

        with pytest.raises(DegenerateSampleError, match="BBB"):
            correlation_matrix(View(), 1)


class TestOverlaps:
    def spectra_pair(self, **kwargs):
        npanel = TestCorrelationMatrix().make_npanel(n=12, t=400, k=3, seed=5)
        return bin_spectra(npanel, **kwargs)

    def test_reference_overlap_is_identity(self):
        spectra = self.spectra_pair()
        results = overlap_singular_values(spectra, reference_bin=1, index_range=(2, 5))
        ref = [r for r in results if r.bin == 1][0]
        np.testing.assert_allclose(ref.singular_values, 1.0, atol=1e-10)
        np.testing.assert_allclose(np.abs(ref.w), np.eye(4), atol=1e-10)

    def test_permuted_columns_keep_unit_singulars(self):
        spectra = self.spectra_pair()
        s = spectra[0]
        perm = s.eigenvectors.copy()
        perm[:, 1:5] = perm[:, [4, 1, 3, 2]]
        from intraday.spectral import BinSpectrum

        permuted = BinSpectrum(eigenvalues=s.eigenvalues, eigenvectors=perm, bin=99)
        results = overlap_singular_values(
            [s, permuted], reference_bin=s.bin, index_range=(2, 5)
        )
        got = [r for r in results if r.bin == 99][0]
        np.testing.assert_allclose(got.singular_values, 1.0, atol=1e-10)

    def test_orthogonal_complement_gives_zero(self):
        spectra = self.spectra_pair(eigen_hi=12)
        s = spectra[0]
        from intraday.spectral import BinSpectrum

        rotated = BinSpectrum(
            eigenvalues=s.eigenvalues,
            eigenvectors=np.roll(s.eigenvectors, 4, axis=1),
            bin=98,
        )
        results = overlap_singular_values(
            [s, rotated], reference_bin=s.bin, index_range=(2, 5)
        )
        got = [r for r in results if r.bin == 98][0]
        np.testing.assert_allclose(got.singular_values, 0.0, atol=1e-10)

    def test_index_range_validation(self):
        spectra = self.spectra_pair()
        with pytest.raises(ValueError, match="bad index range"):
            overlap_singular_values(spectra, index_range=(0, 5))
        with pytest.raises(ValueError, match="exceeds dimension"):
            overlap_singular_values(spectra, index_range=(2, 99))
        with pytest.raises(ValueError, match="reference bin"):
            overlap_singular_values(spectra, reference_bin=42)
        smaller = BinSpectrum(np.ones(11), np.eye(11), bin=9)
        with pytest.raises(ValueError, match="^spectra have mismatched dimensions$"):
            overlap_singular_values([*spectra, smaller], index_range=(2, 5))

    def test_singular_values_descending_in_unit_interval(self):
        spectra = self.spectra_pair()
        for r in overlap_singular_values(spectra):
            assert np.all(np.diff(r.singular_values) <= 1e-12)
            assert np.all(r.singular_values <= 1.0 + 1e-10)
            assert np.all(r.singular_values >= 0.0)


class TestRandomBaseline:
    def test_reproducible_and_order_independent(self):
        a = random_overlap_baseline(30, 4, trials=1000, seed=5)
        b = random_overlap_baseline(30, 4, trials=1000, seed=5)
        assert a == b
        c = random_overlap_baseline(30, 4, trials=1000, seed=6)
        assert a != c

    def test_quantile_monotone(self):
        lo = random_overlap_baseline(40, 4, trials=1000, quantile=0.5, seed=1)
        hi = random_overlap_baseline(40, 4, trials=1000, quantile=0.99, seed=1)
        assert lo < hi < 1.0

    def test_small_subspace_smaller_overlap(self):
        big = random_overlap_baseline(60, 10, trials=1000, seed=2)
        small = random_overlap_baseline(60, 2, trials=1000, seed=2)
        assert small < big

    @pytest.mark.parametrize(
        "dim, p, trials",
        [(5, 4, 1000), (60, 10, 1001), (97, 1, 1017), (126, 6, 10000), (500, 6, 2000),
         (20, 3, 20_003)],
    )
    def test_blocks_give_the_bytes_of_one_trial_at_a_time(self, monkeypatch, dim, p, trials):
        largest = np.empty(trials)
        for i, ss in enumerate(np.random.SeedSequence(9).spawn(trials)):
            rng = np.random.default_rng(ss)
            q1, _ = np.linalg.qr(rng.standard_normal((dim, p)))
            q2, _ = np.linalg.qr(rng.standard_normal((dim, p)))
            largest[i] = np.linalg.svd(q1.T @ q2, compute_uv=False)[0]
        # every trial's value, not only the quantile, must match
        seen, quantile = [], np.quantile
        monkeypatch.setattr(np, "quantile", lambda a, q: seen.append(a.copy()) or quantile(a, q))
        threshold = random_overlap_baseline(dim, p, trials=trials, seed=9)
        assert seen[0].tobytes() == largest.tobytes()
        assert threshold == float(quantile(largest, 0.99))

    def test_validation(self):
        with pytest.raises(ValueError, match="must be <"):
            random_overlap_baseline(5, 5, trials=1000)
        with pytest.raises(ValueError, match="^subspace dimension must be >= 1$"):
            random_overlap_baseline(5, 0, trials=1000)
        with pytest.raises(ValueError, match="at least 1000"):
            random_overlap_baseline(10, 2, trials=10)
        with pytest.raises(ValueError, match="quantile"):
            random_overlap_baseline(10, 2, trials=1000, quantile=1.5)


class View:
    """A bare panel view over a stocks x days x bins array; bins 1..K."""

    def __init__(self, arr):
        self.returns = arr
        self.stock_ids = tuple(f"S{i:02d}" for i in range(arr.shape[0]))
        self.bin_numbers = np.arange(1, arr.shape[2] + 1)

    def column_of(self, k):
        return int(k) - 1


def factor_view(n, t, bins=2, seed=0):
    """Returns with one common factor and a spread of stock loadings, so the
    leading eigenvalues are well separated."""
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.2, 2.0, size=(n, 1, 1))
    return View(beta * rng.standard_normal((1, t, bins)) + rng.standard_normal((n, t, bins)))


def primal_spectra(view):
    return [eigen_decompose(correlation_matrix(view, int(k))) for k in view.bin_numbers]


def quietly(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


class TestDualPath:
    def test_nonzero_eigenvalues_match_primal(self):
        view = factor_view(60, 20)
        for dual, primal in zip(quietly(bin_spectra, view), quietly(primal_spectra, view)):
            np.testing.assert_allclose(dual.eigenvalues[:19], primal.eigenvalues[:19], rtol=1e-10)

    def test_eigenvalues_past_rank_are_zero_and_sum_to_n(self):
        for spectrum in quietly(bin_spectra, factor_view(60, 20), eigen_hi=60):
            assert spectrum.eigenvalues.shape == (60,)
            assert spectrum.eigenvectors.shape == (60, 19)
            assert np.all(spectrum.eigenvalues[19:] == 0.0)
            assert np.all(np.diff(spectrum.eigenvalues[:19]) <= 0.0)
            assert spectrum.eigenvalues.sum() == pytest.approx(60.0, rel=1e-12)

    def test_leading_eigenvectors_match_primal_with_signs(self):
        view = factor_view(60, 20)
        for dual, primal in zip(quietly(bin_spectra, view), quietly(primal_spectra, view)):
            np.testing.assert_allclose(
                dual.eigenvectors[:, :7], primal.eigenvectors[:, :7], atol=1e-10
            )
            assert market_mode_stats(dual).v1_dot_e == pytest.approx(
                market_mode_stats(primal).v1_dot_e, abs=1e-12
            )

    def test_overlaps_match_primal(self):
        view = factor_view(60, 20, bins=4)
        dual = overlap_singular_values(quietly(bin_spectra, view))
        primal = overlap_singular_values(quietly(primal_spectra, view))
        for d, p in zip(dual, primal):
            np.testing.assert_allclose(d.w, p.w, atol=1e-10)
            np.testing.assert_allclose(d.singular_values, p.singular_values, atol=1e-10)

    def test_repeated_day_takes_the_primal_path(self):
        view = factor_view(60, 20)
        view.returns[:, 5, 0] = view.returns[:, 4, 0]  # rank T - 2 at bin 1
        dual, primal = quietly(bin_spectra, view, eigen_hi=60), quietly(primal_spectra, view)
        assert dual[0].eigenvectors.shape == (60, 60)
        np.testing.assert_array_equal(dual[0].eigenvalues, primal[0].eigenvalues)
        np.testing.assert_array_equal(dual[0].eigenvectors, primal[0].eigenvectors)
        assert dual[1].eigenvectors.shape == (60, 19)

    @pytest.mark.parametrize("n, t", [(10, 30), (12, 12)])
    def test_enough_days_is_the_primal_bit_for_bit(self, n, t):
        view = factor_view(n, t, bins=3)
        pairs = zip(quietly(bin_spectra, view, eigen_hi=n), quietly(primal_spectra, view))
        for dual, primal in pairs:
            np.testing.assert_array_equal(dual.eigenvalues, primal.eigenvalues)
            np.testing.assert_array_equal(dual.eigenvectors, primal.eigenvectors)

    def test_primal_held_to_one_blas_thread_is_bin_spectra_bit_for_bit(self):
        # Big enough that a multi-threaded BLAS splits the correlation product
        # and eigh, so that a call on its own can differ in the last bits;
        # bin_spectra holds the BLAS to one thread.
        view = factor_view(100, 150, bins=2)
        with single_threaded_blas():
            primal = primal_spectra(view)
        for spectrum, alone in zip(bin_spectra(view, eigen_hi=100), primal):
            np.testing.assert_array_equal(spectrum.eigenvalues, alone.eigenvalues)
            np.testing.assert_array_equal(spectrum.eigenvectors, alone.eigenvectors)

    def test_flat_stock_named(self):
        view = factor_view(30, 10)
        view.returns[7, :, 1] = 0.25
        with pytest.raises(DegenerateSampleError, match="S07"):
            quietly(bin_spectra, view)

    def test_rank_warning_once_per_bin(self):
        view = factor_view(40, 12, bins=3)
        view.returns[:, 3, 1] = view.returns[:, 2, 1]  # bin 2 takes the primal
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bin_spectra(view)
        messages = [str(w.message) for w in caught if "rank-deficient" in str(w.message)]
        assert [m.split(":")[0] for m in messages] == ["bin 1", "bin 2", "bin 3"]

    def test_index_range_past_the_held_eigenvectors(self):
        spectra = quietly(bin_spectra, factor_view(60, 20), eigen_hi=60)
        assert len(overlap_singular_values(spectra, index_range=(2, 19))) == 2
        for hi in (20, 60):
            with pytest.raises(ValueError, match="19 eigenvectors held"):
                overlap_singular_values(spectra, index_range=(2, hi))

    def test_held_columns_checked_for_every_bin(self):
        ref, other = quietly(bin_spectra, factor_view(10, 30))
        short = BinSpectrum(other.eigenvalues, other.eigenvectors[:, :4], bin=other.bin)
        with pytest.raises(ValueError, match="4 eigenvectors held"):
            overlap_singular_values([ref, short], index_range=(2, 5))


SHAPES = {"dual": (300, 40), "primal": (100, 120), "repeated-day": (60, 20)}


def shaped_view(path):
    view = factor_view(*SHAPES[path])
    if path == "repeated-day":
        view.returns[:, 5, 0] = view.returns[:, 4, 0]  # bin 1 takes the N x N path
    return view


class TestTrimmedSpectra:
    """``bin_spectra`` keeps the eigenvectors of ranks 1..``eigen_hi``."""

    @pytest.mark.parametrize("path", SHAPES)
    def test_default_holds_eigen_hi_columns(self, path):
        view = shaped_view(path)
        n = view.returns.shape[0]
        for spectrum in quietly(bin_spectra, view):
            assert spectrum.eigenvalues.shape == (n,)
            assert spectrum.eigenvectors.shape == (n, RunConfig.eigen_hi)

    @pytest.mark.parametrize("eigen_hi", [1, 2, 7, 19, 45])
    @pytest.mark.parametrize("path", SHAPES)
    def test_kept_columns_are_the_full_set_bit_for_bit(self, path, eigen_hi):
        # past T - 1 = 19 or 39 a dual-path bin keeps T - 1
        view = shaped_view(path)
        n = view.returns.shape[0]
        full = quietly(bin_spectra, view, eigen_hi=n)
        for kept, whole in zip(quietly(bin_spectra, view, eigen_hi=eigen_hi), full):
            keep = min(eigen_hi, whole.eigenvectors.shape[1])
            assert kept.eigenvectors.shape == (n, keep)
            np.testing.assert_array_equal(kept.eigenvalues, whole.eigenvalues)
            np.testing.assert_array_equal(kept.eigenvectors, whole.eigenvectors[:, :keep])
            assert market_mode_stats(kept) == market_mode_stats(whole)

    @pytest.mark.parametrize("path", SHAPES)
    def test_market_mode_bits_do_not_depend_on_the_layout(self, path):
        # rank 1 is a strided column of the C-ordered full set, and a
        # contiguous one of an N x 1 or Fortran-ordered array
        for whole in quietly(bin_spectra, shaped_view(path), eigen_hi=SHAPES[path][0]):
            vectors = whole.eigenvectors
            for layout in (vectors[:, :1].copy(), np.asfortranarray(vectors)):
                spectrum = BinSpectrum(whole.eigenvalues, layout, whole.bin)
                assert market_mode_stats(spectrum) == market_mode_stats(whole)

    def test_eigen_hi_below_one_rejected(self):
        with pytest.raises(ValueError, match="^eigen_hi must be >= 1, got 0$"):
            bin_spectra(factor_view(10, 30), eigen_hi=0)

    def test_index_range_past_eigen_hi_names_both_limits(self):
        spectra = quietly(bin_spectra, factor_view(60, 20))
        with pytest.raises(ValueError) as caught:
            overlap_singular_values(spectra, index_range=(2, 8))
        assert str(caught.value) == (
            "index range (2, 8) exceeds the 7 eigenvectors held (bin_spectra keeps "
            "ranks 1..eigen_hi, and rank is at most days - 1)"
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 50),
    t_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_spectrum_is_the_primal_spectrum(n, t_share, seed):
    """For any T < N, the dual spectrum keeps the primal's nonzero
    eigenvalues, zeros past rank T - 1, and unit eigenvectors of C."""
    t = 2 + int(t_share * (n - 3))
    view = factor_view(n, t, bins=1, seed=seed)
    (dual,) = quietly(bin_spectra, view, eigen_hi=n)
    (primal,) = quietly(primal_spectra, view)
    c = quietly(correlation_matrix, view, 1).entries
    rank = t - 1
    top = primal.eigenvalues[0]
    assert dual.eigenvectors.shape == (n, rank)
    np.testing.assert_allclose(
        dual.eigenvalues[:rank], primal.eigenvalues[:rank], rtol=1e-10, atol=1e-10 * top
    )
    assert np.all(dual.eigenvalues[rank:] == 0.0)
    assert dual.eigenvalues.sum() == pytest.approx(n, rel=1e-10)
    v, g = dual.eigenvectors, dual.eigenvalues[:rank]
    np.testing.assert_allclose(c @ v, v * g, atol=1e-9 * top)
    np.testing.assert_allclose(v.T @ v, np.eye(rank), atol=1e-8)


def loop_fix_signs(vectors):
    """The per-column sign fix that ``_fix_signs`` replaced, as its reference."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        s = out[:, j].sum()
        if s < 0.0:
            out[:, j] = -out[:, j]
        elif s == 0.0:
            nz = np.nonzero(out[:, j])[0]
            if nz.size and out[nz[0], j] < 0.0:
                out[:, j] = -out[:, j]
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shape=st.one_of(st.integers(1, 60).map(lambda n: (n, n)), st.just((500, 119))),
    layout=st.sampled_from(["C", "F", "reversed"]),
    special=st.lists(st.sampled_from(["zero-sum", "mirrored", "all-zero", "minus-zero"])),
    seed=st.integers(0, 2**32 - 1),
)
def test_fix_signs_is_the_column_loop_bit_for_bit(shape, layout, special, seed):
    """Any layout (``eigh`` returns Fortran order, the dual path C order),
    with columns whose sum is exactly zero, a float sum near zero of either
    sign, or no nonzero entry at all."""
    rng = np.random.default_rng(seed)
    n, m = shape
    v = rng.standard_normal(shape)
    for kind, j in zip(special, rng.permutation(m)):
        if kind == "zero-sum":  # small integers sum exactly; leading zeros
            col = rng.integers(-4, 5, n).astype(float)
            col[: rng.integers(0, n)] = 0.0
            col[-1] -= col.sum()
        elif kind == "mirrored":  # x and -x in any order: sums within ulps of 0
            col = rng.permutation(np.resize(np.concatenate([v[: n // 2, j], -v[: n // 2, j]]), n))
        else:
            col = np.full(n, 0.0 if kind == "all-zero" else -0.0)
        v[:, j] = col
    if layout == "F":
        v = np.asfortranarray(v)
    elif layout == "reversed":
        v = v[:, ::-1]
    got, want = _fix_signs(v), loop_fix_signs(v)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides
