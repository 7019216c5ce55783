"""Synthetic one-factor market generator with controllable seasonality.

Bar returns follow a one-factor model per bin k and day t:

    r_a(k;t) = beta_a * F(k;t) + eps_a(k;t)

* ``F(k;t)`` is Gaussian with std ``factor_vol[k]`` (the seasonal profile
  f(k)), independent across bins and days;
* loadings ``beta_a`` are Gaussian(beta_mean, beta_std), fixed per stock;
* residuals are Gaussian or unit-variance Student-t, with conditional
  variance coupled to the realized factor amplitude,

      Var(eps | F) = s0(k)^2 * |F / f(k)|**(2 * gamma),

  where gamma = ``residual_vol_coupling`` in [0, 1].  gamma = 0 decouples
  the scales, gamma = 1 makes residual vol proportional to the factor
  amplitude, and anything between makes dispersion grow sub-linearly with
  the index move.  Unconditionally Var(eps) = s0^2 * m2g with
  m2g = E|Z|^(2 gamma) = 2**gamma * Gamma(gamma + 1/2) / sqrt(pi).

The base scale s0(k) is solved so the equal-loading core hits the target
per-bin average correlation rho(k):

    rho = b^2 f^2 / (b^2 f^2 + s0^2 m2g),  b = beta_mean,

which requires beta_mean != 0 wherever rho > 0 (and beta_mean = 0 forces
rho = 0, with s0 = f(k) as the scale convention).  When beta_std > 0 the
achieved average correlation shifts; the returned manifest records the
implied value

    rho_implied = b^2 f^2 / ((b^2 + beta_std^2) f^2 + s0^2 m2g)

next to the target (jump days excluded from the algebra).

Jump days model single-name blowups: each day is a jump day with
probability ``jump_day_rate``, and on such days one uniformly chosen
stock's residuals are multiplied by ``jump_scale`` in every bin.

``overnight_vol_multiplier`` > 0 adds an overnight bin (bin 0) cloned from
the last intraday bin with both factor and residual scales multiplied, so
its correlation matches rho(K).  Zero disables the overnight bin.

Generation is deterministic per seed: loadings come from one substream and
each day from its own substream spawned off the manifest seed, so the
per-day work could run in any order without changing a single draw.

``GeneratorManifest`` declares the manifest file's keys, which
``read_manifest`` and ``write_manifest`` bind and echo through ``config``;
the manifest parses a profile key's text itself.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass, field, replace
from typing import IO, Annotated, Literal

import numpy as np

from .config import (
    POSITIVE,
    STRICTLY_POSITIVE,
    at_least,
    check_fields,
    config_echo_pairs,
    format_value,
    from_pairs,
    parse_kv_lines,
    within,
    write_kv_lines,
)
from .errors import FeasibilityError, PanelFormatError
from .panel import ReturnPanel


def u_shaped_profile(bins_per_day: int, high: float, low: float) -> np.ndarray:
    """Symmetric quadratic profile: ``high`` at the open and close, ``low``
    at midday."""
    if bins_per_day == 1:
        return np.array([high], dtype=np.float64)
    k = np.arange(1, bins_per_day + 1, dtype=np.float64)
    x = (2.0 * k - (bins_per_day + 1)) / (bins_per_day - 1)
    return low + (high - low) * x**2


def linear_ramp(bins_per_day: int, start: float, end: float) -> np.ndarray:
    return np.linspace(start, end, bins_per_day)


def _as_profile(value, bins_per_day: int, name: str) -> np.ndarray:
    """A profile from a manifest's text or from a scalar or array."""
    if isinstance(value, str):
        return _parse_profile(value, bins_per_day, name)
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(bins_per_day, float(arr))
    if arr.shape != (bins_per_day,):
        raise ValueError(f"{name} must be scalar or length {bins_per_day}")
    return arr


@dataclass(frozen=True, eq=False)
class GeneratorManifest:
    """Full parameterization of one synthetic market."""

    n_stocks: Annotated[int, at_least(2)]
    n_days: Annotated[int, at_least(2)]
    bins_per_day: int
    factor_vol: Annotated[np.ndarray | float | str, STRICTLY_POSITIVE]
    target_correlation: Annotated[np.ndarray | float | str, within(0, 1, "[)")]
    beta_mean: float = 1.0
    beta_std: Annotated[float, at_least(0)] = 0.0
    student_nu: float = 5.0
    residual_vol_coupling: Annotated[float, within(0, 1)] = 0.0
    jump_day_rate: Annotated[float, within(0, 1)] = 0.0
    jump_scale: Annotated[float, POSITIVE] = 1.0
    overnight_vol_multiplier: Annotated[float, at_least(0)] = 0.0
    residual_tail: Literal["gaussian", "student"] = "gaussian"
    seed: Annotated[int, at_least(0)] = 0
    implied_correlation: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.bins_per_day < 1:
            raise ValueError("bins_per_day must be >= 1")
        for name in ("factor_vol", "target_correlation"):
            value = _as_profile(getattr(self, name), self.bins_per_day, name)
            object.__setattr__(self, name, value)

    def validate(self) -> None:
        check_fields(self)
        if self.residual_tail == "student" and self.student_nu <= 2:
            raise ValueError("student_nu must exceed 2 for finite variance")
        # beta_mean = 0 leaves stocks uncorrelated, and any other value correlates them
        rho, uncoupled = self.target_correlation, self.beta_mean == 0.0
        bad = np.nonzero(rho > 0 if uncoupled else rho == 0)[0]
        if bad.size:
            beta = "= 0" if uncoupled else "!= 0 (factor always couples stocks)"
            raise FeasibilityError(
                f"bin {bad[0] + 1}: target correlation {rho[bad[0]]:g} "
                f"unreachable with beta_mean {beta}"
            )


def _abs_moment(two_gamma: float) -> float:
    """E|Z|^p for standard normal Z, p = two_gamma >= 0."""
    return 2.0 ** (two_gamma / 2.0) * math.gamma((two_gamma + 1.0) / 2.0) / math.sqrt(math.pi)


def _scales(manifest: GeneratorManifest) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin residual base scale s0(k) solving the target correlation, and
    the average correlation it implies once ``beta_std`` spreads the loadings."""
    f = manifest.factor_vol
    rho = manifest.target_correlation
    b = manifest.beta_mean
    m2g = _abs_moment(2.0 * manifest.residual_vol_coupling)
    if b == 0.0:
        s0 = f.copy()
    else:
        s0 = np.sqrt(b * b * f * f * (1.0 - rho) / (rho * m2g))
    implied = b * b * f * f / ((b * b + manifest.beta_std**2) * f * f + s0 * s0 * m2g)
    return s0, implied


def _labels(n_stocks: int, n_days: int) -> tuple[tuple[str, ...], tuple[dt.date, ...]]:
    """Stock ids, zero-padded to one width so that they sort as text, and
    consecutive dates from 2000-01-03."""
    width = max(4, len(str(n_stocks - 1)))
    start = dt.date(2000, 1, 3)
    return (
        tuple(f"S{i:0{width}d}" for i in range(n_stocks)),
        tuple(start + dt.timedelta(days=i) for i in range(n_days)),
    )


def generate_market(manifest: GeneratorManifest) -> tuple[ReturnPanel, GeneratorManifest]:
    """Draw one synthetic panel; returns it with the manifest echoed back,
    ``implied_correlation`` filled in."""
    manifest.validate()
    n, t_days, k_bins = manifest.n_stocks, manifest.n_days, manifest.bins_per_day
    gamma = manifest.residual_vol_coupling
    overnight = bool(manifest.overnight_vol_multiplier > 0.0)  # repeats a list below

    s0_intraday, implied = _scales(manifest)
    # an overnight bin 0 clones the last intraday bin with both scales multiplied
    f_cols, s0_cols = (
        np.r_[[manifest.overnight_vol_multiplier * x[-1]] * overnight, x]
        for x in (manifest.factor_vol, s0_intraday)
    )
    n_cols = f_cols.size

    root = np.random.SeedSequence(manifest.seed)
    streams = root.spawn(t_days + 1)
    rng_betas = np.random.default_rng(streams[0])
    betas = manifest.beta_mean + manifest.beta_std * rng_betas.standard_normal(n)

    if manifest.residual_tail == "student":
        nu = manifest.student_nu
        t_norm = math.sqrt(nu / (nu - 2.0))
    out = np.empty((n, t_days, n_cols))
    for t in range(t_days):
        rng = np.random.default_rng(streams[t + 1])
        factor = f_cols * rng.standard_normal(n_cols)
        if manifest.residual_tail == "student":
            raw = rng.standard_t(nu, size=(n_cols, n)) / t_norm
        else:
            raw = rng.standard_normal((n_cols, n))
        if manifest.jump_day_rate > 0.0:
            # draw the coin and the stock unconditionally to keep day
            # streams aligned whatever the rate
            coin = rng.random()
            stock = int(rng.integers(n))
            if coin < manifest.jump_day_rate:
                raw[:, stock] *= manifest.jump_scale
        coupling = np.abs(factor / f_cols) ** gamma
        out[:, t, :] = betas[:, None] * factor[None, :] + (
            (s0_cols * coupling)[:, None] * raw
        ).T

    stock_ids, dates = _labels(n, t_days)
    panel = ReturnPanel(
        returns=out,
        stock_ids=stock_ids,
        dates=dates,
        bins_per_day=k_bins,
        overnight_present=overnight,
    )
    return panel, replace(manifest, implied_correlation=implied)


def gaussian_iid_panel(
    n_stocks: int,
    n_days: int,
    bins_per_day: int,
    vol_profile,
    seed: int = 0,
) -> ReturnPanel:
    """Null panel of independent Gaussian cells with a per-bin std profile."""
    vols = _as_profile(vol_profile, bins_per_day, "vol_profile")
    if np.any(vols <= 0):
        raise ValueError("vol_profile must be strictly positive")
    if n_stocks < 2 or n_days < 2:
        raise ValueError("need at least 2 stocks and 2 days")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cells = rng.standard_normal((n_stocks, n_days, bins_per_day))
    cells *= vols
    stock_ids, dates = _labels(n_stocks, n_days)
    return ReturnPanel(
        returns=cells,
        stock_ids=stock_ids,
        dates=dates,
        bins_per_day=bins_per_day,
        overnight_present=False,
        _fresh=True,
    )


# --- manifest (de)serialization: key = value lines, '#' comments -----------


def _parse_profile(text: str, bins_per_day: int, name: str) -> np.ndarray:
    """A profile value is a scalar, a comma list, ``ushape(high, low)``, or
    ``ramp(start, end)``."""
    text = text.strip()
    for tag, builder in (("ushape", u_shaped_profile), ("ramp", linear_ramp)):
        if text.startswith(tag + "(") and text.endswith(")"):
            inner = text[len(tag) + 1 : -1]
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) != 2:
                raise PanelFormatError(f"{name}: {tag}() takes two arguments")
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError:
                raise PanelFormatError(f"{name}: bad {tag}() arguments {inner!r}") from None
            return builder(bins_per_day, a, b)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise PanelFormatError(f"{name}: bad profile value {text!r}") from None
    if len(values) == 1:
        return np.full(bins_per_day, values[0])
    if len(values) != bins_per_day:
        raise PanelFormatError(
            f"{name}: {len(values)} values for {bins_per_day} bins"
        )
    return np.asarray(values)


def read_manifest(source: str | os.PathLike | IO[str]) -> GeneratorManifest:
    """Parse a manifest config file into a validated GeneratorManifest."""
    return from_pairs(GeneratorManifest, parse_kv_lines(source), "manifest")


def write_manifest(
    manifest: GeneratorManifest, destination: str | os.PathLike | IO[str]
) -> None:
    """Write a manifest as key = value lines (profiles as explicit lists)."""
    pairs = config_echo_pairs(manifest)
    if manifest.implied_correlation is not None:
        pairs.append(
            ("# implied_correlation", format_value(manifest.implied_correlation))
        )
    write_kv_lines(pairs, destination)
