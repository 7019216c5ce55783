"""Synthetic market generator: determinism, calibration and manifest IO."""

import io
import math

import numpy as np
import pytest

from intraday.errors import FeasibilityError, PanelFormatError
from intraday.synth import (
    GeneratorManifest,
    gaussian_iid_panel,
    generate_market,
    linear_ramp,
    read_manifest,
    u_shaped_profile,
    write_manifest,
)


def plain_manifest(**overrides):
    base = dict(
        n_stocks=20,
        n_days=60,
        bins_per_day=3,
        factor_vol=0.002,
        target_correlation=0.3,
        seed=11,
    )
    base.update(overrides)
    return GeneratorManifest(**base)


def mean_offdiagonal_correlation(panel, column):
    x = panel.returns[:, :, column]
    c = np.corrcoef(x)
    n = c.shape[0]
    return (c.sum() - n) / (n * (n - 1))


def covariance_ratio(panel, column):
    # mean off-diagonal covariance over mean variance; this is the
    # convention implied_correlation encodes, exact under beta dispersion
    x = panel.returns[:, :, column]
    s = np.cov(x, bias=True)
    n = s.shape[0]
    off = (s.sum() - np.trace(s)) / (n * (n - 1))
    return off / (np.trace(s) / n)


class TestProfiles:
    def test_u_shape_endpoints_and_midpoint(self):
        prof = u_shaped_profile(13, 0.003, 0.001)
        assert prof[0] == pytest.approx(0.003)
        assert prof[-1] == pytest.approx(0.003)
        assert prof[6] == pytest.approx(0.001)
        np.testing.assert_allclose(prof, prof[::-1])
        assert np.all(prof >= 0.001 - 1e-15)

    def test_u_shape_single_bin(self):
        np.testing.assert_allclose(u_shaped_profile(1, 0.003, 0.001), [0.003])

    def test_ramp_endpoints(self):
        prof = linear_ramp(5, 0.1, 0.5)
        np.testing.assert_allclose(prof, [0.1, 0.2, 0.3, 0.4, 0.5])


class TestManifestValidation:
    def test_profiles_broadcast_from_scalars(self):
        m = plain_manifest()
        assert m.factor_vol.shape == (3,)
        assert m.target_correlation.shape == (3,)

    def test_profile_length_mismatch(self):
        with pytest.raises(ValueError, match="factor_vol"):
            plain_manifest(factor_vol=[0.001, 0.002])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n_stocks=1), "n_stocks"),
            (dict(n_days=1), "n_days"),
            (dict(factor_vol=0.0), "factor_vol"),
            (dict(target_correlation=1.0), "target_correlation"),
            (dict(target_correlation=-0.1), "target_correlation"),
            (dict(beta_std=-0.1), "beta_std"),
            (dict(residual_tail="cauchy"), "residual_tail"),
            (dict(residual_tail="student", student_nu=2.0), "student_nu"),
            (dict(residual_vol_coupling=1.5), "residual_vol_coupling"),
            (dict(jump_day_rate=1.5), "jump_day_rate"),
            (dict(jump_scale=0.0), "jump_scale"),
            (dict(overnight_vol_multiplier=-1.0), "overnight"),
        ],
    )
    def test_rejects_bad_parameters(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            plain_manifest(**overrides).validate()

    def test_zero_loading_cannot_hit_positive_correlation(self):
        with pytest.raises(FeasibilityError, match="beta_mean = 0"):
            plain_manifest(beta_mean=0.0).validate()

    def test_nonzero_loading_cannot_hit_zero_correlation(self):
        with pytest.raises(FeasibilityError, match="unreachable"):
            plain_manifest(target_correlation=0.0).validate()

    def test_zero_loading_with_zero_correlation_is_fine(self):
        plain_manifest(beta_mean=0.0, target_correlation=0.0).validate()


class TestGenerationDeterminism:
    def test_same_seed_same_panel(self):
        a, echo_a = generate_market(plain_manifest())
        b, echo_b = generate_market(plain_manifest())
        np.testing.assert_array_equal(a.returns, b.returns)
        np.testing.assert_array_equal(
            echo_a.implied_correlation, echo_b.implied_correlation
        )

    def test_different_seed_different_panel(self):
        a, _ = generate_market(plain_manifest())
        b, _ = generate_market(plain_manifest(seed=12))
        assert not np.array_equal(a.returns, b.returns)

    def test_extending_days_preserves_the_prefix(self):
        short, _ = generate_market(plain_manifest(n_days=40))
        long, _ = generate_market(plain_manifest(n_days=90))
        np.testing.assert_array_equal(long.returns[:, :40, :], short.returns)

    def test_panel_metadata(self):
        panel, _ = generate_market(plain_manifest())
        assert panel.n_stocks == 20
        assert panel.n_days == 60
        assert panel.bins_per_day == 3
        assert not panel.overnight_present
        assert panel.stock_ids[0] == "S0000"
        assert len(set(panel.stock_ids)) == 20
        assert panel.dates[0] < panel.dates[-1]


class TestCalibration:
    def test_implied_equals_target_for_uniform_loadings(self):
        _, echo = generate_market(plain_manifest(beta_std=0.0))
        np.testing.assert_allclose(
            echo.implied_correlation, echo.target_correlation, atol=1e-12
        )

    def test_loading_spread_lowers_the_implied_value(self):
        _, echo = generate_market(plain_manifest(beta_std=0.4))
        assert np.all(echo.implied_correlation < echo.target_correlation)

    def test_measured_correlation_matches_implied(self):
        # implied_correlation is a population figure under the beta draw, so
        # one 40-stock panel sits O(1/sqrt(N)) away from it; average the
        # measured ratio over replicate panels before comparing
        ratios = []
        implied = None
        for seed in range(500, 510):
            manifest = plain_manifest(
                n_stocks=40, n_days=4000, bins_per_day=2, beta_std=0.3, seed=seed
            )
            panel, echo = generate_market(manifest)
            implied = echo.implied_correlation[0]
            ratios.append(np.mean([covariance_ratio(panel, c) for c in range(2)]))
            # heterogeneous loadings push the plain mean of pairwise
            # correlations strictly below the covariance-ratio figure
            assert mean_offdiagonal_correlation(panel, 0) < covariance_ratio(panel, 0)
        assert np.mean(ratios) == pytest.approx(implied, abs=0.02)

    def test_per_bin_variance_recovers_the_profile(self):
        # with uniform loadings total variance per bin is b^2 f^2 / rho
        f = np.array([0.001, 0.002, 0.004])
        manifest = plain_manifest(
            n_stocks=30, n_days=3000, factor_vol=f, target_correlation=0.3, seed=7
        )
        panel, _ = generate_market(manifest)
        sample_var = panel.returns.var(axis=(0, 1))
        np.testing.assert_allclose(sample_var, f**2 / 0.3, rtol=0.05)

    def test_student_tail_keeps_the_variance_budget(self):
        gauss = plain_manifest(n_stocks=30, n_days=3000, seed=5)
        student = plain_manifest(
            n_stocks=30, n_days=3000, seed=5, residual_tail="student", student_nu=5.0
        )
        var_g = generate_market(gauss)[0].returns.var()
        var_s = generate_market(student)[0].returns.var()
        assert var_s == pytest.approx(var_g, rel=0.1)

    def test_student_tail_fattens_the_cross_section(self):
        manifest = plain_manifest(
            n_stocks=500,
            n_days=300,
            bins_per_day=1,
            target_correlation=0.05,
            residual_tail="student",
            student_nu=5.0,
            seed=9,
        )
        panel, _ = generate_market(manifest)
        x = panel.returns[:, :, 0]
        z = (x - x.mean(axis=0)) / x.std(axis=0)
        excess = (z**4).mean() - 3.0
        assert excess > 1.0

    def test_vol_coupling_ties_dispersion_to_factor_amplitude(self):
        base = dict(
            n_stocks=60,
            n_days=2000,
            bins_per_day=1,
            factor_vol=0.002,
            target_correlation=0.3,
            seed=31,
        )
        flat, _ = generate_market(GeneratorManifest(**base))
        tied, _ = generate_market(
            GeneratorManifest(**base, residual_vol_coupling=1.0)
        )
        for panel, expect_tied in ((flat, False), (tied, True)):
            x = panel.returns[:, :, 0]
            index = x.mean(axis=0)
            spread = x.std(axis=0)
            corr = np.corrcoef(np.abs(index), spread)[0, 1]
            assert (corr > 0.6) == expect_tied


class TestJumpDays:
    def test_rate_zero_only_rescales_jump_days(self):
        quiet, _ = generate_market(plain_manifest(n_days=200))
        jumpy, _ = generate_market(
            plain_manifest(n_days=200, jump_day_rate=0.5, jump_scale=3.0)
        )
        jumped_stocks = []
        for t in range(200):
            changed = np.nonzero(
                np.any(quiet.returns[:, t, :] != jumpy.returns[:, t, :], axis=1)
            )[0]
            assert changed.size in (0, 1)
            if changed.size:
                jumped_stocks.append(int(changed[0]))
        frac = len(jumped_stocks) / 200
        assert 0.35 < frac < 0.65
        # the blown-up name is drawn fresh each day
        assert len(set(jumped_stocks)) > 1

    def test_jump_day_blowup_is_visible(self):
        quiet, _ = generate_market(plain_manifest(n_stocks=50, n_days=100, seed=2))
        jumpy, _ = generate_market(
            plain_manifest(
                n_stocks=50, n_days=100, jump_day_rate=1.0, jump_scale=100.0, seed=2
            )
        )
        assert np.abs(jumpy.returns).max() > 10.0 * np.abs(quiet.returns).max()
        # with the rate pinned at 1 exactly one name blows up every day
        for t in range(100):
            changed = np.any(
                quiet.returns[:, t, :] != jumpy.returns[:, t, :], axis=1
            ).sum()
            assert changed == 1


class TestOvernightBin:
    def test_overnight_column_cloned_from_the_close(self):
        manifest = plain_manifest(n_stocks=40, n_days=3000, overnight_vol_multiplier=2.5)
        panel, _ = generate_market(manifest)
        assert panel.overnight_present
        assert panel.returns.shape == (40, 3000, 4)
        assert panel.bin_numbers[0] == 0
        overnight_std = panel.returns[:, :, 0].std()
        close_std = panel.returns[:, :, -1].std()
        assert overnight_std / close_std == pytest.approx(2.5, rel=0.05)

    def test_overnight_correlation_matches_the_close(self):
        manifest = plain_manifest(
            n_stocks=60, n_days=3000, target_correlation=0.4,
            overnight_vol_multiplier=3.0, seed=17,
        )
        panel, _ = generate_market(manifest)
        rho_on = mean_offdiagonal_correlation(panel, 0)
        assert rho_on == pytest.approx(0.4, abs=0.03)

    def test_zero_multiplier_disables_the_bin(self):
        panel, _ = generate_market(plain_manifest())
        assert not panel.overnight_present
        assert panel.returns.shape[2] == 3


class TestGaussianIidPanel:
    def test_shape_and_vol_profile(self):
        panel = gaussian_iid_panel(10, 2000, 3, [0.01, 0.02, 0.04], seed=4)
        assert panel.returns.shape == (10, 2000, 3)
        assert not panel.overnight_present
        np.testing.assert_allclose(
            panel.returns.std(axis=(0, 1)), [0.01, 0.02, 0.04], rtol=0.05
        )

    def test_deterministic(self):
        a = gaussian_iid_panel(5, 10, 2, 0.01, seed=3)
        b = gaussian_iid_panel(5, 10, 2, 0.01, seed=3)
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly positive"):
            gaussian_iid_panel(5, 10, 2, 0.0)
        with pytest.raises(ValueError, match="at least 2"):
            gaussian_iid_panel(1, 10, 2, 0.01)

    def test_ids_sort_as_text_at_any_size(self):
        assert gaussian_iid_panel(10000, 2, 1, 0.01).stock_ids[-1] == "S9999"
        ids = gaussian_iid_panel(10001, 2, 1, 0.01).stock_ids
        assert (ids[0], ids[-1]) == ("S00000", "S10000")
        assert list(ids) == sorted(ids)


class TestManifestIO:
    def test_roundtrip(self):
        manifest = GeneratorManifest(
            n_stocks=12,
            n_days=34,
            bins_per_day=5,
            factor_vol=u_shaped_profile(5, 0.003, 0.001),
            target_correlation=linear_ramp(5, 0.1, 0.3),
            beta_mean=0.9,
            beta_std=0.2,
            residual_tail="student",
            student_nu=6.0,
            residual_vol_coupling=0.4,
            jump_day_rate=0.02,
            jump_scale=8.0,
            overnight_vol_multiplier=2.0,
            seed=99,
        )
        buf = io.StringIO()
        write_manifest(manifest, buf)
        back = read_manifest(io.StringIO(buf.getvalue()))
        for name in (
            "n_stocks", "n_days", "bins_per_day", "beta_mean", "beta_std",
            "residual_tail", "student_nu", "residual_vol_coupling",
            "jump_day_rate", "jump_scale", "overnight_vol_multiplier", "seed",
        ):
            assert getattr(back, name) == getattr(manifest, name), name
        np.testing.assert_allclose(back.factor_vol, manifest.factor_vol)
        np.testing.assert_allclose(back.target_correlation, manifest.target_correlation)

    def test_implied_correlation_written_as_comment_and_ignored_on_read(self):
        _, echo = generate_market(plain_manifest())
        buf = io.StringIO()
        write_manifest(echo, buf)
        text = buf.getvalue()
        assert "# implied_correlation" in text
        back = read_manifest(io.StringIO(text))
        assert back.implied_correlation is None

    def test_profile_shorthand_forms(self):
        text = (
            "n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
            "factor_vol = ushape(0.003, 0.001)\n"
            "target_correlation = ramp(0.1, 0.3)\n"
        )
        manifest = read_manifest(io.StringIO(text))
        np.testing.assert_allclose(
            manifest.factor_vol, u_shaped_profile(3, 0.003, 0.001)
        )
        np.testing.assert_allclose(manifest.target_correlation, [0.1, 0.2, 0.3])

    def test_scalar_and_list_profiles(self):
        text = (
            "n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
            "factor_vol = 0.002\n"
            "target_correlation = 0.1, 0.2, 0.3\n"
        )
        manifest = read_manifest(io.StringIO(text))
        np.testing.assert_allclose(manifest.factor_vol, [0.002] * 3)
        np.testing.assert_allclose(manifest.target_correlation, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_days = 10\nbins_per_day = 3\nfactor_vol = 0.002\n"
             "target_correlation = 0.3\n", "required key"),
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
             "target_correlation = 0.3\n", "factor_vol"),
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\nfactor_vol = 0.002\n"
             "target_correlation = 0.3\nwarp_speed = 9\n", "unknown manifest key"),
            ("n_stocks = four\nn_days = 10\nbins_per_day = 3\nfactor_vol = 0.002\n"
             "target_correlation = 0.3\n", "bad value for n_stocks"),
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
             "factor_vol = ushape(0.003)\ntarget_correlation = 0.3\n",
             "two arguments"),
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
             "factor_vol = ushape(a, b)\ntarget_correlation = 0.3\n",
             "bad ushape"),
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
             "factor_vol = 0.001, 0.002\ntarget_correlation = 0.3\n",
             "2 values for 3 bins"),
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
             "factor_vol = fast\ntarget_correlation = 0.3\n", "bad profile value"),
        ],
    )
    def test_malformed_manifests(self, text, message):
        with pytest.raises(PanelFormatError, match=message):
            read_manifest(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("n_stocks = 4\nn_days = 10\nbins_per_day = 3\ntarget_correlation = 0.3\n",
             "['factor_vol']"),
            ("n_days = 10\nbins_per_day = 3\ntarget_correlation = 0.3\n",
             "['n_stocks', 'factor_vol']"),
        ],
    )
    def test_missing_keys_are_named_together(self, text, missing):
        with pytest.raises(PanelFormatError) as exc:
            read_manifest(io.StringIO(text))
        assert str(exc.value) == f"manifest lacks required key(s) {missing}"

    def test_infeasible_manifest_is_a_format_error(self):
        text = (
            "n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
            "factor_vol = 0.002\ntarget_correlation = 0.3\nbeta_mean = 0\n"
        )
        with pytest.raises(FeasibilityError):
            read_manifest(io.StringIO(text))

    def test_invalid_field_value_is_a_format_error(self):
        text = (
            "n_stocks = 4\nn_days = 10\nbins_per_day = 3\n"
            "factor_vol = 0.002\ntarget_correlation = 0.3\n"
            "residual_tail = cauchy\n"
        )
        with pytest.raises(PanelFormatError, match="residual_tail"):
            read_manifest(io.StringIO(text))


def test_abs_moment_normalization():
    # the gamma = 0 and gamma = 1/2 cases are known in closed form
    from intraday.synth import _abs_moment

    assert _abs_moment(0.0) == pytest.approx(1.0)
    assert _abs_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi))
    assert _abs_moment(2.0) == pytest.approx(1.0)
