"""Run configuration and the shared ``key = value`` config format.

Config files are plain text: one ``key = value`` per line, ``#`` starts a
comment, blank lines ignored.  The same format serves generator manifests
and pipeline run configs, and all floats are written at 10 significant
digits so files round-trip deterministically.

A dataclass is the one declaration of its file's keys: ``RunConfig`` of
the run config's, ``synth.GeneratorManifest`` of the manifest's.  Its
compared fields are the keys, those without a default the required ones.
A ``Literal`` annotation lists a choice key's values, and an ``Annotated``
rule, such as ``Annotated[int, at_least(1)]``, declares a number key's
domain as ``Literal`` declares the choices; every float key, and every
number of a float array, must also be finite.  :func:`check_fields`
applies all three, so a ``validate()`` method holds only the rules that
span fields.  :func:`from_pairs` binds either file through them and
:func:`config_echo_pairs` echoes either object.  The CLI flags are
``RunConfig``'s fields too, and the library functions that take a run
setting default to its field's default, read as ``RunConfig.<field>``.
A setting that the library checks where it applies it is not checked
here again: :meth:`RunConfig.check_panel` hands ``condition_bins`` to the
pooling rule of :mod:`~intraday.cross_section`, and a named
``fit_window`` is a key of :data:`FIT_WINDOWS`, the range functions of
:mod:`~intraday.seasonality`.
"""

from __future__ import annotations

import operator
import os
import threading
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from typing import IO, Annotated, Iterable, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import PanelFormatError
from .seasonality import first_half_range, first_two_hours_range

#: The named fit windows, each a function of the bins per day
FIT_WINDOWS = {"first_half": first_half_range, "first_two_hours": first_two_hours_range}
# About the most of its input that a slab_map slab holds.  A slab's freed
# copies stay in the malloc heap and add to a later peak, so the slab size
# sets it: the kernels_wide peak RSS read 159 MB with 512 KiB slabs, 161.5
# with 1 MiB and 168.5 with 4 MiB.
SLAB_BYTES = 1 << 19
# A helper thread's malloc arena keeps what it frees mapped: the kernels_wide
# peak RSS read 157.0-157.3 MB at 1 kernel thread and 159.1-159.4 at 2, on
# 2 vCPUs, which cannot measure more threads.
MAX_KERNEL_THREADS = 2


#: The text of every float in a table or config file: 10 significant digits,
#: locale-independent.
FLOAT_FORMAT = "%.10g"


def format_float(x: float) -> str:
    """``x`` at :data:`FLOAT_FORMAT`, -0 folded to 0 (``-0.0 + 0.0`` is 0)."""
    return FLOAT_FORMAT % (float(x) + 0.0)


def parse_kv_lines(source: str | os.PathLike | IO[str]) -> dict[str, str]:
    """Read ``key = value`` lines; duplicate keys are an error."""
    from .tableio import open_input  # tableio imports this module

    with open_input(source) as handle:
        text = handle.read()
    pairs: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PanelFormatError(f"expected 'key = value', got {line!r}", i)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise PanelFormatError(f"empty key in {line!r}", i)
        if key in pairs:
            raise PanelFormatError(f"duplicate key {key!r}", i)
        pairs[key] = value
    return pairs


def write_kv_lines(
    pairs: Iterable[tuple[str, str]], destination: str | os.PathLike | IO[str]
) -> None:
    """Write ``key = value`` lines; a key such as ``# note`` makes a comment
    line.  A path is replaced only once complete."""
    from .tableio import open_output  # tableio imports this module

    with open_output(destination) as handle:
        for key, value in pairs:
            handle.write(f"{key} = {value}\n")


# A field rule is a ``(text, test)`` pair in the field's ``Annotated``
# annotation: a value for which ``test`` is false (at any element of an
# array) is rejected as "<key> must <text>".


def at_least(bound: int) -> tuple:
    """The rule ``value >= bound``."""
    return (f"be >= {bound}", partial(operator.le, bound))


_ENDS = {"[": operator.le, "(": operator.lt, "]": operator.ge, ")": operator.gt}


def within(lo: int, hi: int, ends: str = "[]", verb: str = "lie in") -> tuple:
    """The rule that the value lies between ``lo`` and ``hi``, each end
    held where ``ends`` brackets it (``"[)"`` holds ``lo`` but not ``hi``)."""
    low, high = _ENDS[ends[0]], _ENDS[ends[1]]
    return (f"{verb} {ends[0]}{lo}, {hi}{ends[1]}", lambda v: low(lo, v) & high(hi, v))


POSITIVE = ("be positive", partial(operator.lt, 0))
STRICTLY_POSITIVE = ("be strictly positive", POSITIVE[1])
FINITE = ("be finite", np.isfinite)  # checked on every float and float array, declared or not


@dataclass
class RunConfig:
    """Everything a pipeline run needs, file-loadable and flag-overridable.

    ``mode`` picks the input path: ``synth`` draws a panel from
    ``synth_manifest``, ``returns`` ingests a bar-return table from
    ``input``, ``prices`` converts a bar-price table first.
    """

    mode: Literal["synth", "returns", "prices"] = "synth"
    input: str | None = None
    synth_manifest: str | None = None
    output_dir: str = "out"
    policy: Literal["strict", "drop-incomplete", "zero-fill"] = "strict"
    price_convention: Literal["close_to_close", "bin_open"] = "close_to_close"
    fit_window: str = "first_half"
    bucket_width: float = 0.001
    bucket_lo: float = -0.03
    bucket_hi: float = 0.03
    min_count: Annotated[int, at_least(1)] = 50
    eigen_lo: Annotated[int, at_least(1)] = 2
    eigen_hi: int = 7
    reference_bin: Annotated[int, at_least(0)] = 1
    null_trials: Annotated[int, within(1000, 10**6)] = 10000
    null_quantile: Annotated[float, within(0, 1, "()", "be inside")] = 0.99
    null_seed: Annotated[int, at_least(0)] = 0
    sanity_bound: Annotated[float, POSITIVE] = 0.5
    include_overnight_conditioning: bool = False
    condition_bins: tuple[int, ...] | None = None

    def validate(self) -> None:
        check_fields(self)
        if self.mode == "synth":
            if not self.synth_manifest:
                raise ValueError("mode synth requires synth_manifest")
        elif not self.input:
            raise ValueError(f"mode {self.mode} requires input")
        if self.fit_window not in FIT_WINDOWS:
            try:
                lo, hi = self.fit_range_for(0)  # 'lo:hi' needs no bin count
            except ValueError:
                lo = hi = 0
            if not 1 <= lo < hi:
                raise ValueError(
                    f"fit_window {self.fit_window!r} must be one of {tuple(FIT_WINDOWS)} "
                    "or 'lo:hi' with 1 <= lo < hi"
                )
        try:
            self.bucket_specs()
        except ValueError as exc:
            raise ValueError(f"bucket_width/bucket_lo/bucket_hi: {exc}") from None
        if self.eigen_hi < self.eigen_lo:
            raise ValueError("eigen index range must satisfy 1 <= lo <= hi")

    def fit_range_for(self, bins_per_day: int) -> tuple[int, int]:
        if self.fit_window in FIT_WINDOWS:
            return FIT_WINDOWS[self.fit_window](bins_per_day)
        lo, hi = self.fit_window.split(":")
        return (int(lo), int(hi))

    def bucket_specs(self):
        """Conditioning grids: signed (bucket_lo..bucket_hi) for the index
        return, non-negative (0..bucket_hi) for the dispersion."""
        from .conditioning import BucketSpec

        return (
            BucketSpec.fixed_width(self.bucket_width, self.bucket_lo, self.bucket_hi),
            BucketSpec.fixed_width(self.bucket_width, 0.0, self.bucket_hi),
        )

    def check_fit_window(self, bins_per_day: int) -> None:
        """Reject a fit window, named or ``lo:hi``, that is not 3 or more of
        the intraday bins 1..``bins_per_day``."""
        lo, hi = self.fit_range_for(bins_per_day)
        if hi - lo < 2 or hi > bins_per_day:
            raise PanelFormatError(
                f"fit_window {self.fit_window!r} must cover at least 3 of the "
                f"panel's intraday bins 1..{bins_per_day}"
            )

    def check_panel(self, panel) -> None:
        """Reject settings that the loaded panel cannot serve, so a run stops
        before any analysis table is written."""
        from .cross_section import _pooled_rows

        n, bins = panel.n_stocks, [int(b) for b in panel.bin_numbers]
        # past rank n_days - 1 an eigenvector spans a null space, not data
        top = min(n, panel.n_days - 1)
        if self.eigen_hi > top or self.eigen_hi - self.eigen_lo + 1 >= n:
            raise PanelFormatError(
                f"eigen_lo..eigen_hi = {self.eigen_lo}..{self.eigen_hi} must end at "
                f"or below both the panel's {n} stocks and its {panel.n_days} days "
                f"less one, and span fewer than {n}"
            )
        if self.reference_bin not in bins:
            raise PanelFormatError(f"reference_bin {self.reference_bin} not in {bins}")
        self.check_fit_window(panel.bins_per_day)
        try:
            _pooled_rows(bins, self.include_overnight_conditioning, self.condition_bins)
        except ValueError as exc:
            raise PanelFormatError(f"condition_bins {exc}") from None


# a class's field annotations, resolved once: the types alone, and with their rules
_hints = cache(get_type_hints)
_declarations = cache(partial(get_type_hints, include_extras=True))
LOAD_POLICIES = get_args(_hints(RunConfig)["policy"])
PRICE_CONVENTIONS = get_args(_hints(RunConfig)["price_convention"])


def check_fields(obj) -> None:
    """Reject the first field of ``obj``, in field order, that breaks its own
    declaration: a ``Literal`` field set to none of its values, a float or
    float array that is not finite, or a value that an ``Annotated`` rule
    rejects."""
    for name, kind in _declarations(type(obj)).items():
        kind, *rules = get_args(kind) if get_origin(kind) is Annotated else (kind,)
        value = getattr(obj, name)
        if get_origin(kind) is Literal and value not in get_args(kind):
            raise ValueError(f"{name} {value!r} not in {get_args(kind)}")
        if isinstance(value, (float, np.ndarray)):
            rules.insert(0, FINITE)
        for text, test in rules:
            if not np.all(test(value)):
                raise ValueError(f"{name} must {text}")


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _cast(name: str, kind, text: str):
    """Parse one config value by its field's annotation.  A choice
    (``Literal``) or a union stays text, for its class to check or parse."""
    if type(None) in get_args(kind):  # ``X | None``: empty text means unset
        if not text.strip():
            return None
        kind = get_args(kind)[0]
    if kind is bool:
        lowered = text.lower()
        if lowered in _BOOL_TRUE:
            return True
        if lowered in _BOOL_FALSE:
            return False
        raise PanelFormatError(f"bad boolean for {name}: {text!r}")
    try:
        if get_origin(kind) is tuple:  # comma-separated integers
            return tuple(int(p) for p in text.split(",") if p.strip()) or None
        return kind(text) if isinstance(kind, type) else text
    except ValueError:
        raise PanelFormatError(f"bad value for {name}: {text!r}") from None


def _keys(cls) -> list[str]:
    """The ``key = value`` keys of ``cls``: its compared fields, in order."""
    return [f.name for f in fields(cls) if f.compare]


def from_pairs(cls, pairs: dict[str, str], noun: str):
    """A validated ``cls`` from ``key = value`` text pairs.  Unknown keys,
    then missing required ones, are rejected with every offending key
    named; each value parses by its field's annotation, and a ValueError
    from building or validating the object becomes a PanelFormatError."""
    unknown = sorted(set(pairs) - set(_keys(cls)))
    if unknown:
        raise PanelFormatError(f"unknown {noun} key(s) {unknown}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in pairs]
    if missing:
        raise PanelFormatError(f"{noun} lacks required key(s) {missing}")
    kinds = _hints(cls)
    try:
        obj = cls(**{key: _cast(key, kinds[key], text) for key, text in pairs.items()})
        obj.validate()
    except ValueError as exc:
        raise PanelFormatError(str(exc)) from None
    return obj


def run_config_from(pairs: dict[str, str]) -> RunConfig:
    """Build and validate a run config from ``key = value`` text pairs."""
    return from_pairs(RunConfig, pairs, "config")


def format_value(value) -> str:
    """A config or manifest value as ``key = value`` text: None as empty
    text, a sequence comma-separated."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (str, int)):
        return str(value)
    return ",".join(map(format_value, value))


def config_echo_pairs(obj) -> list[tuple[str, str]]:
    """A run config's or manifest's keys and values as serialization-ready
    pairs (for the run manifest and the manifest echo)."""
    return [(key, format_value(getattr(obj, key))) for key in _keys(type(obj))]


@cache
def _bundled_openblas():
    """numpy's bundled OpenBLAS (``libscipy_openblas64_``) through ctypes,
    or None when numpy was built against another BLAS."""
    import ctypes
    import glob

    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/libscipy_openblas64_*", ".dylibs/libscipy_openblas64_*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                lib = ctypes.CDLL(path)  # the copy numpy already loaded
            except OSError:
                continue
            if hasattr(lib, "scipy_openblas_set_num_threads64_"):
                lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
                lib.scipy_openblas_set_num_threads64_.restype = None
                lib.scipy_openblas_get_num_threads64_.argtypes = []
                lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
                return lib
    return None


def _blas_threads() -> int:
    lib = _bundled_openblas()
    return 1 if lib is None else lib.scipy_openblas_get_num_threads64_()


_BLAS_LOCK = threading.Lock()
_blas_sections = {"open": 0, "saved": 1}  # guarded by _BLAS_LOCK


def kernel_threads() -> int:
    """The threads :func:`thread_map` runs on: the bundled OpenBLAS's thread
    count, which ``OPENBLAS_NUM_THREADS`` caps when numpy loads it, at most
    :data:`MAX_KERNEL_THREADS` (1 without that BLAS)."""
    return min(MAX_KERNEL_THREADS, _blas_threads())


@contextmanager
def single_threaded_blas():
    """Hold the bundled OpenBLAS to one thread for the block, yielding
    :func:`kernel_threads` as it was.  The first open block saves the BLAS
    count and the last to close restores it, so a nested or concurrent
    block yields 1; while any block is open, every BLAS call in the process
    is single-threaded."""
    with _BLAS_LOCK:
        count = _blas_threads()
        if _blas_sections["open"] == 0:
            _blas_sections["saved"] = count
        _blas_sections["open"] += 1
        if count > 1:
            _bundled_openblas().scipy_openblas_set_num_threads64_(1)
    try:
        yield min(MAX_KERNEL_THREADS, count)
    finally:
        with _BLAS_LOCK:
            _blas_sections["open"] -= 1
            if _blas_sections["open"] == 0 and _blas_sections["saved"] > 1:
                _bundled_openblas().scipy_openblas_set_num_threads64_(_blas_sections["saved"])


def thread_map(fn, items: list) -> list:
    """``[fn(x) for x in items]`` inside :func:`single_threaded_blas`, on the
    W threads it yields: item i runs on the calling thread when
    i % W == 0, else on helper thread i % W, under the calling thread's
    ``np.geterr()``.  Every helper is joined, and the lowest-index failing
    item's exception is raised."""
    with single_threaded_blas() as width:
        results, errors, state = [None] * len(items), {}, np.geterr()

        def run(first):
            with np.errstate(**state):
                for i in range(first, len(items), width):
                    try:
                        results[i] = fn(items[i])
                    except Exception as exc:  # noqa: BLE001 - raised below, by index
                        errors[i] = exc
                        return

        helpers = [
            threading.Thread(target=run, args=(j,)) for j in range(1, min(width, len(items)))
        ]
        try:
            for helper in helpers:
                helper.start()
            run(0)
        finally:
            for helper in helpers:
                if helper.ident is not None:  # started
                    helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def slab_map(fn, n: int, nbytes: int) -> list:
    """:func:`thread_map` over contiguous slices of ``range(n)``, an axis
    of an input of ``nbytes``: ``ceil(nbytes / SLAB_BYTES)`` of them, at
    least 1 and at most ``n``, so each holds about :data:`SLAB_BYTES` of the
    input and the cut depends on the input alone, not on the thread count."""
    parts = max(1, min(n, -(-nbytes // SLAB_BYTES)))
    return thread_map(fn, [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)])
