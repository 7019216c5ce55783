"""Benchmark of the ``intraday`` pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/run.py --record-reference      # rewrite reference.json

One client drives a closed loop: each pass starts after the previous one
has finished, and at most one program process runs at a time.  Passes
repeat until ``--seconds`` have elapsed (at least one).  With ``--trace 1``
the first half of the time runs untraced passes and the second half traced
ones, and the per-layer metrics come from the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, every pass, every set-up) goes to ``perfbench/work/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import child  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("pipeline_synth", "kernels_wide", "staged_prices")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# A run must end within 180 s; processes still running at this point are
# killed and their pass fails.
RUN_DEADLINE_S = 170.0
STAGED = ("ingest", "moments", "cross-section", "fit", "spectra", "condition")
STAGED_FLAGS = ("--mode", "prices", "--policy", "drop-incomplete")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

COMMON_TABLES = {
    "returns_canonical.csv", "load_report.txt", "validation.txt",
    "stock_moments.csv", "dispersion.csv", "fig1.csv", "fig2.csv",
    "fig1_fit.csv", "fig6.csv", "fig7.csv", "fig7_null.csv",
    "fig3.csv", "fig4.csv", "fig5_index.csv", "fig5_dispersion.csv",
}
TABLES = {
    "pipeline_synth": COMMON_TABLES | {"returns.csv", "manifest_echo.txt", "run_manifest.txt"},
    "staged_prices": COMMON_TABLES,
}
# run_manifest.txt echoes output_dir, so it is not compared by digest.
UNDIGESTED = {"run_manifest.txt"}
# Rows dropped by drop-incomplete on the generated price table (see
# child.write_prices); the synthetic panel is complete.
EXPECTED_DROPS = {
    "pipeline_synth": ("stocks_dropped = 0", "days_dropped = 0"),
    "staged_prices": ("stocks_dropped = 3", "days_dropped = 1"),
}
# Relative tolerance for the kernels_wide reference values; covers
# summation-order changes from BLAS threading, not changed arithmetic.
KERNEL_RTOL = 1e-8


class Runner:
    """Starts program processes one at a time, under one run deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.threads_seen: int | None = None

    def run(self, argv, cwd, log_stem, sample_threads=False) -> dict:
        """Run one process to its end; wall, CPU (children included) and
        peak RSS come from ``wait4`` on that process."""
        with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            sampler = None
            if sample_threads:
                sampler = threading.Timer(1.0, self._sample_threads, (proc.pid,))
                sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if sampler is not None:
                    sampler.cancel()
                    sampler.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace")
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr_tail": stderr.strip().splitlines()[-1:] if proc.returncode else [],
        }

    def _sample_threads(self, pid):
        self.threads_seen = child.threads_of(pid)


def child_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def intraday_cmd(*args) -> list[str]:
    return [sys.executable, "-m", "intraday.cli", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- set-up ----------------------------------------------------------------


def set_up(runner, workload, seed, workdir, trace) -> dict:
    """Build the inputs from a cold interpreter ``SETUP_REPEATS`` times
    (once, traced, with --trace 1); the last build is the one used."""
    times, spans_file, env_file = [], None, workdir / "env.json"
    repeats = 1 if trace else SETUP_REPEATS
    input_digests = set()
    inputs = workdir / "inputs"
    for i in range(repeats):
        # A fresh directory each time: rewriting a file in place makes ext4
        # flush it on close, which would time the disk, not the set-up.
        shutil.rmtree(inputs, ignore_errors=True)
        argv = child_cmd("setup", "--workload", workload, "--seed", seed, "--dir", inputs)
        if i == 0:
            argv += ["--env", env_file]
        if trace:
            spans_file = workdir / "spans-setup.json"
            argv += ["--spans", spans_file]
        result = runner.run(argv, ROOT, workdir / f"setup{i}")
        if result["code"] != 0:
            raise RuntimeError(f"set-up failed: {result['stderr_tail']}")
        times.append(result["wall_s"])
        if workload == "staged_prices":
            input_digests.add(sha256(inputs / "prices.csv"))
    if len(input_digests) > 1:
        raise RuntimeError("the input generator is not deterministic")
    # Write the inputs back before the first pass, so that no pass shares
    # the disk with the set-up's writeback.
    for path in inputs.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return {
        "times": times,
        "spans_file": spans_file,
        "environment": json.loads(env_file.read_text()) if env_file.exists() else {},
        "input_digests": sorted(input_digests),
    }


# --- CLI workloads -----------------------------------------------------------


def cli_pass(runner, workload, workdir, pass_id, traced) -> dict:
    out = workdir / "inputs" / "out"
    shutil.rmtree(out, ignore_errors=True)
    steps = [("run", "-c", "run.cfg")] if workload == "pipeline_synth" else [
        (stage, "-c", "run.cfg", *STAGED_FLAGS) for stage in STAGED
    ]
    record = {"pass": pass_id, "traced": traced, "wall_s": 0.0, "cpu_s": 0.0,
              "peak_rss_mb": 0.0, "error": None, "spans": []}
    for step in steps:
        stem = workdir / f"pass{pass_id}-{step[0]}"
        if traced:
            spans_file = f"{stem}.spans.json"
            argv = child_cmd("cli", "--spans", spans_file, "--pass-id", pass_id, "--", *step)
            record["spans"].append(spans_file)
        else:
            argv = intraday_cmd(*step)
        result = runner.run(argv, workdir / "inputs", stem,
                            sample_threads=runner.threads_seen is None)
        record["wall_s"] += result["wall_s"]
        record["cpu_s"] += result["cpu_s"]
        record["peak_rss_mb"] = max(record["peak_rss_mb"], result["peak_rss_mb"])
        if result["code"] != 0:
            record["error"] = f"{step[0]} exited {result['code']}: {result['stderr_tail']}"
            return record
    record["digests"] = {p.name: sha256(p) for p in sorted(out.iterdir())}
    record["error"] = check_tables(workload, out, record["digests"])
    return record


def check_tables(workload, out: Path, digests) -> str | None:
    """Seed-independent checks of one pass's output directory."""
    missing = TABLES[workload] - set(digests)
    if missing:
        return f"missing tables {sorted(missing)}"
    report = (out / "load_report.txt").read_text(encoding="utf-8").splitlines()
    for line in EXPECTED_DROPS[workload]:
        if line not in report:
            return f"load_report.txt lacks {line!r}"
    if (out / "validation.txt").read_text(encoding="utf-8").splitlines()[0] != "ok = true":
        return "validation.txt does not read ok = true"
    if workload == "pipeline_synth" and digests["returns.csv"] != digests["returns_canonical.csv"]:
        return "canonical table differs from the synthetic returns it was ingested from"
    return None


def check_digests(passes, reference) -> None:
    """Every pass must reproduce the reference digests (default seed) or,
    at other seeds, the digests of the first good pass."""
    good = [p for p in passes if p["error"] is None]
    if not good:
        return
    expected = reference or good[0]["digests"]
    for p in good:
        changed = sorted(
            name for name in set(expected) | set(p["digests"])
            if name not in UNDIGESTED and expected.get(name) != p["digests"].get(name)
        )
        if changed:
            p["error"] = f"output digests differ: {changed}"


def run_cli(runner, workload, seed, seconds, trace, workdir) -> dict:
    setup = set_up(runner, workload, seed, workdir, trace)
    passes = []
    phases = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    for traced, budget in phases:
        phase_start = time.perf_counter()
        while True:
            passes.append(cli_pass(runner, workload, workdir, len(passes) + 1, traced))
            if time.perf_counter() - phase_start >= budget:
                break
    reference = load_reference().get(workload, {}) if seed == DEFAULT_SEED else {}
    check_digests(passes, reference.get("digests"))
    if reference.get("input_digests") not in (None, setup["input_digests"]):
        for p in passes:
            p["error"] = p["error"] or "generated input differs from the reference"
    inputs = {"shape": list(child.SHAPES[workload])}
    if workload == "staged_prices":
        inputs["prices_csv_bytes"] = (workdir / "inputs" / "prices.csv").stat().st_size
    canonical = workdir / "inputs" / "out" / "returns_canonical.csv"
    if canonical.exists():
        inputs["canonical_csv_bytes"] = canonical.stat().st_size
    span_files = [setup["spans_file"]] if setup["spans_file"] else []
    span_files += [f for p in passes for f in p.pop("spans")]
    return {"setup": setup, "passes": passes, "inputs": inputs,
            "threads": runner.threads_seen, "span_files": span_files}


# --- kernels_wide --------------------------------------------------------------


def run_kernels(runner, seed, seconds, trace, workdir) -> dict:
    setup = set_up(runner, "kernels_wide", seed, workdir, trace)
    argv = child_cmd("kernels", "--seed", seed, "--seconds", seconds, "--trace", int(trace),
                 "--dir", workdir)
    result = runner.run(argv, ROOT, workdir / "kernels")
    data_file = workdir / "kernels.json"
    if result["code"] != 0 or not data_file.exists():
        failed = {"pass": 1, "traced": False, "wall_s": result["wall_s"],
                  "cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"],
                  "error": f"worker exited {result['code']}: {result['stderr_tail']}"}
        return {"setup": setup, "passes": [failed], "inputs": {}, "threads": None,
                "span_files": []}
    data = json.loads(data_file.read_text())
    passes = data["passes"]
    for i, p in enumerate(passes, start=1):
        p["pass"] = i
        p["peak_rss_mb"] = result["peak_rss_mb"]  # one process for every pass
    reference = load_reference().get("kernels_wide", {}) if seed == DEFAULT_SEED else {}
    check_kernels(passes, reference.get("values"))
    span_files = [setup["spans_file"]] if setup["spans_file"] else []
    if trace:
        span_files.append(workdir / "spans-kernels.json")
    inputs = {"shape": data["shape"], "panel_bytes": data["panel_bytes"]}
    return {"setup": setup, "passes": passes, "inputs": inputs,
            "threads": data["threads"], "span_files": span_files}


def check_kernels(passes, reference) -> None:
    good = [p for p in passes if p["error"] is None]
    if not good:
        return
    expected = reference or good[0]["values"]
    for p in good:
        broken = [name for name, ok in p["invariants"].items() if not ok]
        if broken:
            p["error"] = f"invariants fail: {broken}"
            continue
        off = [
            name for name in set(expected) | set(p["values"])
            if name not in p["values"] or name not in expected
            or abs(p["values"][name] - expected[name]) > KERNEL_RTOL * abs(expected[name])
        ]
        if off:
            p["error"] = f"values differ from reference beyond rtol {KERNEL_RTOL}: {sorted(off)}"


# --- results -----------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return info


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "intraday").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def median(values):
    return statistics.median(values) if values else 0.0


def summarise(workload, seed, seconds, trace, run) -> dict:
    passes = run["passes"]
    failed = sum(p["error"] is not None for p in passes)
    good = [p for p in passes if p["error"] is None] or passes
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    counts = {"attempted": len(passes), "failed": failed}
    if trace:
        # a traced process that crashed wrote no spans; its pass has failed
        values = spans.layer_metrics([f for f in run["span_files"] if Path(f).exists()])
        values["trace.overhead_s"] = (
            median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in untraced])
        )
        units = {name: spec[0] for name, spec in spans.LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        samples = {name: len(traced) for name in values}
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in untraced]),
            "cpu_s": median([p["cpu_s"] for p in untraced]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            "setup_s": median(run["setup"]["times"]),
        }
        units = END_TO_END
        samples = {name: len(untraced) for name in values}
        samples["setup_s"] = len(run["setup"]["times"])
    environment = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "software": run["setup"]["environment"],
        "threads_in_measured_process": run["threads"], "inputs": run["inputs"],
        **source_identity(),
    }
    return {
        "counts": counts,
        "error_rate": failed / len(passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": samples,
        "environment": environment,
        "passes": passes,
        "setup_s_samples": run["setup"]["times"],
        "input_digests": run["setup"]["input_digests"],
    }


def print_result(summary) -> None:
    env = summary["environment"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"passes {summary['counts']['attempted']}  failed {summary['counts']['failed']}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']:6s} "
              f"(median of {summary['samples'][name]})")
    print(f"  {'error_rate':40s} {summary['error_rate']:>16.6f} {'ratio':6s} "
          f"({summary['counts']['failed']} of {summary['counts']['attempted']} passes)")
    for p in summary["passes"]:
        if p["error"]:
            print(f"  pass {p['pass']} failed: {p['error']}")
    print("environment " + json.dumps(env, sort_keys=True))


def run_workload(workload, seed, seconds, trace) -> dict:
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner()
    if workload == "kernels_wide":
        run = run_kernels(runner, seed, seconds, trace, workdir)
    else:
        run = run_cli(runner, workload, seed, seconds, trace, workdir)
    summary = summarise(workload, seed, seconds, trace, run)
    (workdir / "result.json").write_text(json.dumps(summary, indent=1, default=str))
    # The inputs and output tables (about 70 MB) are not kept past the run.
    shutil.rmtree(workdir / "inputs", ignore_errors=True)
    return summary


def record_reference(seconds) -> None:
    """Record output digests and kernel values at the default seed."""
    reference = {}
    for workload in WORKLOADS:
        summary = run_workload(workload, DEFAULT_SEED, seconds, False)
        first = summary["passes"][0]
        if first["error"] is not None:
            raise SystemExit(f"{workload}: {first['error']}")
        if workload == "kernels_wide":
            reference[workload] = {"seed": DEFAULT_SEED, "rtol": KERNEL_RTOL,
                                   "values": first["values"]}
        else:
            reference[workload] = {
                "seed": DEFAULT_SEED,
                "digests": {k: v for k, v in first["digests"].items() if k not in UNDIGESTED},
                "input_digests": summary["input_digests"],
            }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "intraday" / "cli.py").is_file():
        print(f"error: no intraday source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_result(summary)
        print(json.dumps({
            "correct": summary["counts"]["failed"] == 0,
            **summary["counts"],
            "metrics": summary["metrics"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
