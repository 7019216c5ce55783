"""Run configuration and the shared ``key = value`` config format.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
comment, blank lines ignored.  The same format serves generator manifests
and pipeline run configs, and all floats are written at 10 significant
digits so files round-trip deterministically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import IO, Iterable

from .errors import PanelFormatError

LOAD_POLICIES = ("strict", "drop-incomplete", "zero-fill")
PRICE_CONVENTIONS = ("close_to_close", "bin_open")
RUN_MODES = ("synth", "returns", "prices")
FIT_WINDOWS = ("first_half", "first_two_hours")
THREADS_ENV_VAR = "SEASONALITY_THREADS"


def format_float(x: float) -> str:
    """10 significant digits, locale-independent, -0 folded to 0."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.10g}"


def parse_kv_lines(source: str | os.PathLike | IO[str]) -> dict[str, str]:
    """Read ``key = value`` lines; duplicate keys are an error."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = source.read()
    pairs: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PanelFormatError(f"expected 'key = value', got {line!r}", i)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise PanelFormatError(f"empty key in {line!r}", i)
        if key in pairs:
            raise PanelFormatError(f"duplicate key {key!r}", i)
        pairs[key] = value
    return pairs


def write_kv_lines(
    pairs: Iterable[tuple[str, str]], destination: str | os.PathLike | IO[str]
) -> None:
    """Write ``key = value`` lines; a key starting with ``#`` becomes an
    informational comment line."""
    handle, owned = (
        (open(destination, "w", encoding="utf-8"), True)
        if isinstance(destination, (str, os.PathLike))
        else (destination, False)
    )
    try:
        for key, value in pairs:
            if key.startswith("#"):
                handle.write(f"# {key.lstrip('# ')} = {value}\n")
            else:
                handle.write(f"{key} = {value}\n")
    finally:
        if owned:
            handle.close()


@dataclass
class RunConfig:
    """Everything a pipeline run needs, file-loadable and flag-overridable.

    ``mode`` picks the input path: ``synth`` draws a panel from
    ``synth_manifest``, ``returns`` ingests a bar-return table from
    ``input``, ``prices`` converts a bar-price table first.
    """

    mode: str = "synth"
    input: str | None = None
    synth_manifest: str | None = None
    output_dir: str = "out"
    policy: str = "strict"
    price_convention: str = "close_to_close"
    fit_window: str = "first_half"
    bucket_width: float = 0.001
    bucket_lo: float = -0.03
    bucket_hi: float = 0.03
    min_count: int = 50
    eigen_lo: int = 2
    eigen_hi: int = 7
    reference_bin: int = 1
    null_trials: int = 10000
    null_quantile: float = 0.99
    null_seed: int = 0
    sanity_bound: float = 0.5
    include_overnight_conditioning: bool = False
    condition_bins: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(f"mode {self.mode!r} not in {RUN_MODES}")
        if self.mode == "synth":
            if not self.synth_manifest:
                raise ValueError("mode synth requires synth_manifest")
        elif not self.input:
            raise ValueError(f"mode {self.mode} requires input")
        if self.policy not in LOAD_POLICIES:
            raise ValueError(f"policy {self.policy!r} not in {LOAD_POLICIES}")
        if self.price_convention not in PRICE_CONVENTIONS:
            raise ValueError(
                f"price_convention {self.price_convention!r} not in {PRICE_CONVENTIONS}"
            )
        if self.fit_window not in FIT_WINDOWS and not _is_range(self.fit_window):
            raise ValueError(
                f"fit_window {self.fit_window!r} must be one of {FIT_WINDOWS} "
                "or 'lo:hi'"
            )
        if self.bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if self.bucket_hi <= self.bucket_lo:
            raise ValueError("bucket range must have hi > lo")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.eigen_lo < 1 or self.eigen_hi < self.eigen_lo:
            raise ValueError("eigen index range must satisfy 1 <= lo <= hi")
        if self.reference_bin < 0:
            raise ValueError("reference_bin must be >= 0")
        if self.null_trials < 1000:
            raise ValueError("null_trials must be >= 1000")
        if not 0.0 < self.null_quantile < 1.0:
            raise ValueError("null_quantile must be inside (0, 1)")
        if self.sanity_bound <= 0:
            raise ValueError("sanity_bound must be positive")

    def fit_range_for(self, bins_per_day: int) -> tuple[int, int]:
        from .seasonality import first_half_range, first_two_hours_range

        if self.fit_window == "first_half":
            return first_half_range(bins_per_day)
        if self.fit_window == "first_two_hours":
            return first_two_hours_range(bins_per_day)
        lo, hi = self.fit_window.split(":")
        return (int(lo), int(hi))


def _is_range(text: str) -> bool:
    parts = text.split(":")
    if len(parts) != 2:
        return False
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return 1 <= lo < hi


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _cast(name: str, kind, text: str):
    if kind is bool:
        lowered = text.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise PanelFormatError(f"bad boolean for {name}: {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise PanelFormatError(f"bad value for {name}: {text!r}") from None


_CONFIG_KINDS: dict[str, type] = {
    "mode": str,
    "input": str,
    "synth_manifest": str,
    "output_dir": str,
    "policy": str,
    "price_convention": str,
    "fit_window": str,
    "bucket_width": float,
    "bucket_lo": float,
    "bucket_hi": float,
    "min_count": int,
    "eigen_lo": int,
    "eigen_hi": int,
    "reference_bin": int,
    "null_trials": int,
    "null_quantile": float,
    "null_seed": int,
    "sanity_bound": float,
    "include_overnight_conditioning": bool,
}


def read_run_config(source: str | os.PathLike | IO[str]) -> RunConfig:
    """Parse and validate a run config file."""
    pairs = parse_kv_lines(source)
    config = RunConfig()
    for key, value in pairs.items():
        if key == "condition_bins":
            bins = tuple(int(p) for p in value.split(",") if p.strip())
            config.condition_bins = bins or None
            continue
        kind = _CONFIG_KINDS.get(key)
        if kind is None:
            raise PanelFormatError(f"unknown config key {key!r}")
        setattr(config, key, value if kind is str else _cast(key, kind, value))
    try:
        config.validate()
    except ValueError as exc:
        raise PanelFormatError(str(exc)) from None
    return config


def config_echo_pairs(config: RunConfig) -> list[tuple[str, str]]:
    """Resolved config as serialization-ready pairs (for the run manifest)."""
    out: list[tuple[str, str]] = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if value is None:
            text = ""
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = format_float(value)
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        out.append((f.name, text))
    return out


def thread_cap_from_env(environ=None) -> int | None:
    """Validated SEASONALITY_THREADS value, or None when unset.

    The toolkit runs its stages sequentially, so the cap is an upper bound
    the implementation always respects; the variable is still validated so
    misconfigured environments fail loudly.
    """
    env = os.environ if environ is None else environ
    raw = env.get(THREADS_ENV_VAR)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {cap}")
    return cap
