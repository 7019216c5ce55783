"""The kernels on the main thread plus helper threads, with the BLAS held to
one thread: outputs that do not depend on the thread count.

``config.thread_map`` runs item i on the calling thread when i % W == 0 and
on helper thread i % W otherwise, W being numpy's bundled OpenBLAS thread
count, at most ``config.MAX_KERNEL_THREADS``; ``config.slab_map`` cuts an
axis into contiguous slabs for it, one per ``config.SLAB_BYTES`` of its
input, so an input smaller than that is one slab on the calling thread and
the cut does not depend on the thread count.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import intraday
from intraday import cli, config
from intraday.cross_section import dispersion_grid, normalize_panel
from intraday.errors import DegenerateSampleError
from intraday.robust_moments import grid_moments, stock_bin_moments
from intraday.spectral import bin_spectra, random_overlap_baseline
from intraday.synth import gaussian_iid_panel


@pytest.fixture
def blas():
    """numpy's bundled OpenBLAS, its thread count restored after the test."""
    lib = config._bundled_openblas()
    if lib is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


def blas_threads(lib):
    return lib.scipy_openblas_get_num_threads64_()


@pytest.fixture
def started(monkeypatch):
    """The threads started during the test."""
    threads = []
    start = threading.Thread.start

    def counting(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return threads


def spectra_bytes(view):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spectra = bin_spectra(view, eigen_hi=view.returns.shape[0])
    digest = hashlib.sha256()
    for s in spectra:
        digest.update(s.eigenvalues.tobytes() + s.eigenvectors.tobytes())
    return digest.hexdigest()


class View:
    """A bare panel view over a stocks x days x bins array; bins 1..K."""

    def __init__(self, arr):
        self.returns = arr
        self.stock_ids = tuple(f"S{i:03d}" for i in range(arr.shape[0]))
        self.bin_numbers = np.arange(1, arr.shape[2] + 1)

    def column_of(self, k):
        return int(k) - 1


def factor_view(n, t, bins, seed=0):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.2, 2.0, size=(n, 1, 1))
    return View(beta * rng.standard_normal((1, t, bins)) + rng.standard_normal((n, t, bins)))


class TestThreadMap:
    def test_results_in_item_order_on_w_threads(self, blas, started, monkeypatch):
        monkeypatch.setattr(config, "MAX_KERNEL_THREADS", 3)
        blas.scipy_openblas_set_num_threads64_(3)
        seen = []

        def item(i):
            seen.append((i, threading.current_thread(), blas_threads(blas)))
            return i * i

        assert config.thread_map(item, range(10)) == [i * i for i in range(10)]
        assert len(started) == 2
        owner = {i: thread for i, thread, _ in seen}
        main = threading.current_thread()
        assert [i for i in owner if owner[i] is main] == [0, 3, 6, 9]
        for first, helper in zip((1, 2), started):
            assert [i for i in owner if owner[i] is helper] == list(range(first, 10, 3))
        assert {count for _, _, count in seen} == {1}  # the BLAS single-threaded inside
        assert blas_threads(blas) == 3

    def test_lowest_index_failure_raised_and_count_restored(self, blas, started):
        blas.scipy_openblas_set_num_threads64_(2)

        def item(i):
            if i in (3, 4, 7):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 3"):
            config.thread_map(item, range(9))
        assert all(not t.is_alive() for t in started) and len(started) == 1
        assert blas_threads(blas) == 2

    def test_nested_sections_restore_the_outer_count(self, blas):
        blas.scipy_openblas_set_num_threads64_(2)
        inner = config.thread_map(lambda i: config.thread_map(lambda j: (i, j), range(3)), range(4))
        assert inner == [[(i, j) for j in range(3)] for i in range(4)]
        assert blas_threads(blas) == 2
        with config.single_threaded_blas() as width:
            with config.single_threaded_blas() as inner:
                assert (width, inner, blas_threads(blas)) == (2, 1, 1)
            assert blas_threads(blas) == 1
        assert blas_threads(blas) == 2

    def test_concurrent_maps_under_a_short_switch_interval(self, blas, monkeypatch):
        """Four callers at once, each on up to 6 threads on a 2-core host:
        every result lands at its index and the count ends where it began."""
        monkeypatch.setattr(config, "MAX_KERNEL_THREADS", 6)
        blas.scipy_openblas_set_num_threads64_(6)
        rows = np.arange(4000.0).reshape(400, 10)
        outcomes = {}

        def caller(c):
            outcomes[c] = config.thread_map(lambda i: float(rows[i].sum()) + c, list(range(400)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for c in range(4):
            assert outcomes[c] == [float(r.sum()) + c for r in rows]
        assert blas_threads(blas) == 6

    def test_a_concurrent_map_stays_single_threaded_after_the_first_closes(self, blas):
        """Caller B enters while caller A's section is open and checks the
        count in its items after A has closed: the last to close restores."""
        blas.scipy_openblas_set_num_threads64_(2)
        b_entered, a_closed = threading.Event(), threading.Event()
        seen = {}

        def b_item(i):
            b_entered.set()
            assert a_closed.wait(10)
            return blas_threads(blas)

        def b_caller():
            seen["b"] = config.thread_map(b_item, range(3))

        def a_item(i):
            if i == 0:
                b.start()
                assert b_entered.wait(10)
            return i

        b = threading.Thread(target=b_caller)
        assert config.thread_map(a_item, range(4)) == [0, 1, 2, 3]
        a_closed.set()
        b.join(10)
        assert seen["b"] == [1, 1, 1]
        assert blas_threads(blas) == 2

    def test_helpers_capped_whatever_the_blas_count(self, blas, started):
        blas.scipy_openblas_set_num_threads64_(config.MAX_KERNEL_THREADS + 2)
        assert config.kernel_threads() == config.MAX_KERNEL_THREADS
        assert config.thread_map(lambda i: blas_threads(blas), range(9)) == [1] * 9
        assert len(started) == config.MAX_KERNEL_THREADS - 1
        assert blas_threads(blas) == config.MAX_KERNEL_THREADS + 2

    def test_one_thread_starts_no_helper(self, blas, started):
        blas.scipy_openblas_set_num_threads64_(1)
        assert config.thread_map(lambda i: i + 1, range(5)) == [1, 2, 3, 4, 5]
        assert config.slab_map(lambda s: (s.start, s.stop), 10, 4 * config.SLAB_BYTES) == [
            (0, 2), (2, 5), (5, 7), (7, 10)
        ]
        assert started == []

    def test_slabs_cover_the_axis(self, blas):
        blas.scipy_openblas_set_num_threads64_(2)
        for n, nbytes, parts in [
            (500, 500 * 120 * 78 * 8, 72),  # kernels_wide's panel without bin 0: 37.4 MB
            (500, 500 * 120 * 79 * 8, 73),  # and with it, as that workload runs it
            (100, 13 * config.SLAB_BYTES + 1, 14),
            (100, 13 * config.SLAB_BYTES, 13),
            (100, config.SLAB_BYTES - 1, 1),  # a smaller input is one slab
            (100, 0, 1),
            (10, 20 * config.SLAB_BYTES, 10),  # at most one slab per item
            (0, 20 * config.SLAB_BYTES, 1),  # an empty axis is one empty slab
        ]:
            slabs = config.slab_map(lambda s: (s.start, s.stop), n, nbytes)
            assert len(slabs) == parts
            assert [a for a, _ in slabs] == [0] + [b for _, b in slabs[:-1]]
            assert slabs[-1][1] == n

    @pytest.mark.parametrize("n", [0, 1, 7, 500])
    @pytest.mark.parametrize(
        "nbytes",
        [0, 1, config.SLAB_BYTES - 1, config.SLAB_BYTES, config.SLAB_BYTES + 1,
         2 * config.SLAB_BYTES, 13 * config.SLAB_BYTES, 13 * config.SLAB_BYTES + 1,
         20 * config.SLAB_BYTES],
    )
    def test_slabs_do_not_depend_on_the_thread_count(self, blas, monkeypatch, n, nbytes):
        monkeypatch.setattr(config, "MAX_KERNEL_THREADS", 3)
        cuts = []
        for threads in (1, 2, 3):
            blas.scipy_openblas_set_num_threads64_(threads)
            assert config.kernel_threads() == threads
            cuts.append(config.slab_map(lambda s: (s.start, s.stop), n, nbytes))
        assert cuts[0] == cuts[1] == cuts[2]
        slabs = cuts[0]
        assert [a for a, _ in slabs] == [0] + [b for _, b in slabs[:-1]]
        assert slabs[-1][1] == n
        # each slab holds at most SLAB_BYTES of the input and one item more
        assert max(b - a for a, b in slabs) * nbytes <= config.SLAB_BYTES * n + nbytes


def kernel_outputs(panel):
    moments = stock_bin_moments(panel)
    grid = dispersion_grid(panel)
    npanel = normalize_panel(panel)
    null = random_overlap_baseline(40, 3, trials=1000, seed=2)
    arrays = [*vars(moments).values(), *vars(grid).values(), npanel.returns]
    return [a.tobytes() for a in arrays if isinstance(a, np.ndarray)] + [spectra_bytes(npanel), null]


class TestSameBytesAtAnyThreadCount:
    @pytest.mark.parametrize(
        "n, t", [(300, 40), (100, 120)], ids=["dual path", "n x n path"]
    )
    def test_bin_spectra(self, blas, n, t):
        view = factor_view(n, t, bins=3)
        digests = []
        for threads in (1, 2):
            blas.scipy_openblas_set_num_threads64_(threads)
            digests.append(spectra_bytes(view))
        assert digests[0] == digests[1]

    def test_every_kernel(self, blas, monkeypatch):
        """At any thread count and slab size: the 120 KB panel is one slab
        at the default SLAB_BYTES, 30 stock and 30 day slabs at 4000 bytes
        a slab, and one slab per stock or day at 1 byte."""
        monkeypatch.setattr(config, "MAX_KERNEL_THREADS", 3)
        panel = gaussian_iid_panel(60, 50, 5, 0.01, seed=4)
        assert panel.returns.nbytes < config.SLAB_BYTES
        outputs = []
        for slab_bytes in (config.SLAB_BYTES, 4000, 1):
            monkeypatch.setattr(config, "SLAB_BYTES", slab_bytes)
            for threads in (1, 2, 3):
                blas.scipy_openblas_set_num_threads64_(threads)
                outputs.append(kernel_outputs(panel))
        assert all(output == outputs[0] for output in outputs)

    def test_normalize_panel(self, blas, monkeypatch):
        """The 640 KB panel is 2 day slabs at the default SLAB_BYTES, 160 at
        4000 bytes a slab and one a day at 1 byte, and each gives the bytes
        of numpy's unslabbed quotient."""
        blas.scipy_openblas_set_num_threads64_(2)
        panel = gaussian_iid_panel(20, 200, 20, 0.01, seed=6)
        want = (panel.returns / panel.returns.std(axis=0)).tobytes()
        for slab_bytes in (config.SLAB_BYTES, 4000, 1):
            monkeypatch.setattr(config, "SLAB_BYTES", slab_bytes)
            assert normalize_panel(panel).returns.tobytes() == want

    def test_blas_count_restored_after_a_kernel_raises(self, blas):
        blas.scipy_openblas_set_num_threads64_(2)
        view = factor_view(30, 10, bins=6)
        view.returns[4, :, 1] = 0.5
        view.returns[9, :, 4] = 0.5
        with pytest.raises(DegenerateSampleError, match=r"at bin 2 for stock\(s\): S004$"):
            spectra_bytes(view)
        assert blas_threads(blas) == 2


def test_one_blas_thread_starts_no_helper_in_any_kernel(blas, started, monkeypatch):
    monkeypatch.setattr(config, "SLAB_BYTES", 4000)  # several slabs in each slab kernel
    panel = gaussian_iid_panel(60, 50, 5, 0.01, seed=4)
    blas.scipy_openblas_set_num_threads64_(2)
    kernel_outputs(panel)
    assert started  # the control: two BLAS threads start helpers
    started.clear()
    blas.scipy_openblas_set_num_threads64_(1)
    assert config.kernel_threads() == 1
    kernel_outputs(panel)
    assert started == []


@pytest.mark.parametrize("threads", [1, 2])
def test_a_kernel_raises_under_the_callers_errstate_on_any_thread(
    blas, started, monkeypatch, threads
):
    # a return of 1e160 on day 1 overflows normalize_panel's dispersion; with
    # a slab per day, at W = 2 day 1's slab runs on the helper, which once
    # only warned
    blas.scipy_openblas_set_num_threads64_(threads)
    assert config.kernel_threads() == threads
    monkeypatch.setattr(config, "SLAB_BYTES", 1)
    panel = gaussian_iid_panel(16, 10, 4, 0.01, seed=0)
    returns = panel.returns.copy()
    returns[2, 1, 0] = 1e160
    panel = dataclasses.replace(panel, returns=returns)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        normalize_panel(panel)
    assert len(started) == threads - 1


@pytest.mark.parametrize("threads", [1, 2])
def test_an_overflowing_moment_prints_one_stderr_line(
    tmp_path, capsys, blas, started, monkeypatch, threads
):
    # one return of 1e160 overflows the variance of stock S2; with a slab per
    # stock, its slab runs on the helper at W = 2: a RuntimeWarning once came
    # before the error line
    blas.scipy_openblas_set_num_threads64_(threads)
    assert config.kernel_threads() == threads
    monkeypatch.setattr(config, "SLAB_BYTES", 1)
    rng = np.random.default_rng(5)
    rows = ["date,bin,symbol,return"]
    for day in range(1, 13):
        for k in range(1, 7):
            for s in range(1, 6):
                value = 1e160 if (day, k, s) == (4, 2, 2) else rng.normal(0, 0.01)
                rows.append(f"2024-01-{day:02d},{k},S{s},{value:.6g}")
    (tmp_path / "big.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    argv = ["run", "--mode", "returns", "--input", str(tmp_path / "big.csv"),
            "--output-dir", str(out), "--min-count", "1", "--null-trials", "1000",
            "--eigen-hi", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 4
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: numeric-error: {out / 'stock_moments.csv'}: volatility is infinite "
        "in data row 8\n"
    )
    assert len(started) == threads - 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, min_side=2, max_side=9),
        elements=st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1e-300]),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
    ),
    data=st.data(),
)
def test_grid_moments_over_any_slab_partition_has_the_whole_bytes(values, data):
    """Stock slabs for the time-series kernel (axis 1), day slabs for the
    cross-section (axis 0), as the kernels cut them."""
    axis = data.draw(st.sampled_from([0, 1]), label="axis")
    cut = 1 - axis  # stocks along axis 0 for axis 1, days along axis 1 for axis 0
    size = values.shape[cut]
    inner = data.draw(st.sets(st.integers(1, size - 1)), label="cuts")
    bounds = [0, *sorted(inner), size]
    index = (slice(None),) * cut
    with np.errstate(all="ignore"):
        whole = grid_moments(values, axis)
        parts = [
            grid_moments(values[index + (slice(a, b),)], axis) for a, b in zip(bounds, bounds[1:])
        ]
    for got, want in zip(zip(*parts), whole):
        assert np.concatenate(got, axis=0).tobytes() == want.tobytes()


MANIFEST = """\
n_stocks = 100
n_days = 120
bins_per_day = 6
factor_vol = ushape(0.004, 0.002)
target_correlation = 0.3
overnight_vol_multiplier = 2
seed = 11
"""


def test_run_outputs_do_not_depend_on_openblas_num_threads(tmp_path):
    """N = 100 stocks over 120 days: the N x N path, where a multi-threaded
    BLAS product would round differently."""
    (tmp_path / "synth.cfg").write_text(MANIFEST)
    src = os.path.dirname(os.path.dirname(intraday.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = {}
    for cap in (None, "1"):
        out = tmp_path / f"out_{cap}"
        run_env = env if cap is None else {**env, "OPENBLAS_NUM_THREADS": cap}
        subprocess.run(
            [sys.executable, "-m", "intraday.cli", "run", "--mode", "synth",
             "--synth-manifest", str(tmp_path / "synth.cfg"), "--output-dir", str(out),
             "--null-trials", "1000", "--min-count", "5"],
            env=run_env, check=True, capture_output=True,
        )
        names = set(os.listdir(out)) - {"run_manifest.txt"}
        outputs[cap] = {name: (out / name).read_bytes() for name in names}
    assert len(outputs[None]) == 17
    assert outputs[None] == outputs["1"]
