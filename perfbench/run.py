#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the biphoton pipeline.

Run from the root of a source checkout (the program is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload pipeline_dense --seed 1 --seconds 30 --trace 0

--workload   pipeline_dense, reanalyze_fine, calibration_sweep, or all
--seed       workload seed, default 1; every generated input follows from
             it, and the program only ever sees the generated config
--seconds    length of the timed part; iterations repeat until it is over
             (at least two, so that their outputs can be compared)
--trace      0: end-to-end metrics, tracing off.  1: the same iterations
             with per-layer wrappers installed (perfbench/child.py),
             alternating with untraced ones to measure the overhead;
             prints the per-layer metrics.
--scale      full (default) or smoke: tiny inputs for perfbench/smoke.py

Children run one at a time, each iteration in a fresh temporary
directory under ./.perfbench_tmp that is deleted afterwards.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md defines every
workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from child import TRUE_FWHM, TRUE_PHASE

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
TMP_BASE = os.path.join(ROOT, ".perfbench_tmp")

MIN_ITERATIONS = 2
HARD_CAP_S = 165.0  # a run must end within 180 s
TAG_HEADER_BYTES = 16
TAG_RECORD_BYTES = 9

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.simulate_s": "s",
    "cli.correlate_s": "s",
    "cli.reconstruct_s": "s",
    "cli.fit_s": "s",
    "cli.self_s": "s",
    "simulate.generate_stream_s": "s",
    "simulate.tags_out": "count",
    "simulate.kept_ratio": "fraction",
    "simulate.rate_level_histogram_s": "s",
    "simulate.sampler_builds": "count",
    "simulate.sampler_build_s": "s",
    "model.eval_s": "s",
    "model.eval_calls": "count",
    "io.write_timetags_s": "s",
    "io.tag_bytes_written": "B",
    "io.read_timetag_stream_s": "s",
    "io.tag_bytes_read": "B",
    "io.tag_read_mb_per_s": "MB/s",
    "io.json_write_s": "s",
    "io.json_read_s": "s",
    "io.json_bytes": "B",
    "correlate.cross_correlate_s": "s",
    "correlate.tags_in": "count",
    "correlate.pairs_in_window": "count",
    "correlate.pairs_per_s": "1/s",
    "reconstruct.reconstruct_curve_s": "s",
    "reconstruct.bins": "count",
    "reconstruct.invalid_bins": "count",
    "reconstruct.invalid_bin_frac": "fraction",
    "fit.envelope_s": "s",
    "fit.phase_s": "s",
    "fit.not_converged": "count",
    "fit.fwhm_rel_err": "fraction",
    "fit.phase_err_sigma": "sigma",
    "fit.fwhm_pull_bias": "sigma",
    "fit.pull_sd_dev": "sigma",
    "trace.overhead_frac": "fraction",
    "failed_frac": "fraction",
}

# Accuracy numbers are outputs of the fit and reconstruct layers; they
# repeat exactly for a seed, so they are reported, not gated.
ACCURACY = ("fit.fwhm_rel_err", "fit.phase_err_sigma", "fit.fwhm_pull_bias",
            "fit.pull_sd_dev", "reconstruct.invalid_bin_frac")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class IterationFailed(Exception):
    """One iteration failed its run or its output checks."""


@dataclass
class Iteration:
    wall_s: float
    peak_rss_mb: float
    items: int
    digest: str
    accuracy: dict
    setup_s: float | None = None
    span_files: list = field(default_factory=list)


class Run:
    """State shared by the workloads of one benchmark run."""

    def __init__(self, scale: str, workdir: str):
        self.scale = scale
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def child(self, argv, log_path) -> tuple[float, float]:
        """Run one Python child to completion; return (wall s, peak RSS MB)."""
        timeout = max(HARD_CAP_S - (time.perf_counter() - self.started), 5.0)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log_path, "rb") as log:
                tail = log.read().decode(errors="replace").strip().splitlines()[-3:]
            raise IterationFailed(f"{' '.join(argv[:3])} exited {proc.returncode}: {tail}")
        return wall, usage.ru_maxrss / 1024.0

    def cli(self, args, log_path, trace_out=None, iteration=0):
        if trace_out is None:
            return self.child(["-m", "biphoton.cli", *args], log_path)
        return self.child([CHILD, "cli", "--trace-out", trace_out,
                           "--iteration", str(iteration), "--", *args], log_path)


# --- output checks ---------------------------------------------------

def _load(path, fmt):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise IterationFailed(f"{os.path.basename(path)} missing or malformed: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise IterationFailed(f"{os.path.basename(path)} is not a {fmt} document")
    return doc


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_run_dir(run_dir, n_bins) -> tuple[int, str, dict]:
    """Check the products of simulate/correlate/reconstruct/fit in run_dir.

    Returns the input tag count, the digest of the manifest and the
    histogram JSONs, and the accuracy numbers.
    """
    try:
        digest = hashlib.sha256()
        manifest_path = os.path.join(run_dir, "manifest.json")
        manifest = _load(manifest_path, "run-manifest/1")
        with open(manifest_path, "rb") as fh:
            digest.update(fh.read())
        settings = manifest.get("settings")
        if not isinstance(settings, list) or len(settings) != 3:
            raise IterationFailed("manifest does not list three settings")
        tags = 0
        for entry in settings:
            for ch in ("a", "b"):
                n = entry[f"n_tags_{ch}"]
                path = os.path.join(run_dir, entry[f"tags_{ch}"])
                if not os.path.isfile(path) or os.path.getsize(path) != TAG_HEADER_BYTES + TAG_RECORD_BYTES * n:
                    raise IterationFailed(f"{entry[f'tags_{ch}']} missing or not {n} records")
                tags += n
        for k in range(3):
            path = os.path.join(run_dir, f"hist_phi{k}.json")
            hist = _load(path, "coincidence-histogram/1")
            if len(hist.get("counts") or ()) != n_bins:
                raise IterationFailed(f"hist_phi{k}.json does not hold {n_bins} bins")
            with open(path, "rb") as fh:
                digest.update(fh.read())
        recon = _load(os.path.join(run_dir, "reconstruction.json"), "tpwf-reconstruction/1")
        valid = recon.get("valid") or []
        if len(valid) != n_bins:
            raise IterationFailed(f"reconstruction does not hold {n_bins} bins")
        fits = _load(os.path.join(run_dir, "fits.json"), "fit-result/1")["fits"]
        envelope, phase = fits["envelope"], fits["phase"]
        if envelope.get("converged") is not True:
            raise IterationFailed("envelope fit did not converge")
        for fit in (envelope, phase):
            if not _finite(list(fit["params"].values()) + list(fit["sigmas"].values())):
                raise IterationFailed(f"{fit['label']} has a non-finite parameter")
        accuracy = {
            "fit.fwhm_rel_err": abs(envelope["params"]["fwhm"] / TRUE_FWHM - 1.0),
            "fit.phase_err_sigma": abs(phase["params"]["phase"] - TRUE_PHASE) / phase["sigmas"]["phase"],
            "reconstruct.invalid_bin_frac": valid.count(False) / n_bins,
            "phase_pull_signed": (phase["params"]["phase"] - TRUE_PHASE) / phase["sigmas"]["phase"],
        }
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise IterationFailed(f"malformed output in {run_dir}: {exc!r}")
    return tags, digest.hexdigest(), accuracy


def _tree_digest(path) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 22), b""):
                digest.update(block)
    return digest.hexdigest()


def _write_config(run: Run, config: dict) -> str:
    path = os.path.join(run.workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


# --- workloads -------------------------------------------------------

class PipelineDense:
    """One `biphoton pipeline` child at the dense detector config."""

    name = "pipeline_dense"
    items_name = "tags_per_s"

    def __init__(self, run: Run, seed: int):
        self.run = run
        full = run.scale == "full"
        self.duration = 0.5 if full else 0.01
        self.setup_repeats = 7 if full else 2
        self.expected_rss_mb = 550.0 * self.duration + 60.0
        self.config = {
            "seed": seed,
            "sim": {
                "pair_rate_hz": 1e6,
                "singles_rate_a_hz": 1e6,
                "singles_rate_b_hz": 1e6,
                "duration_s": self.duration,
                "dead_time_ns": 20.0,
                "jitter_sigma_ps": 50.0,
            },
        }

    def setup(self) -> list[float]:
        """Interpreter start plus `import biphoton.cli`, timed in a child."""
        self.config_path = _write_config(self.run, self.config)
        log = os.path.join(self.run.workdir, "setup.log")
        return [self.run.child(["-c", "import biphoton.cli"], log)[0]
                for _ in range(self.setup_repeats)]

    def iterate(self, it_dir, trace_out, iteration) -> Iteration:
        out = os.path.join(it_dir, "run")
        wall, rss = self.run.cli(["pipeline", "--config", self.config_path, "--output-dir", out],
                                 os.path.join(it_dir, "child.log"), trace_out, iteration)
        tags, digest, accuracy = check_run_dir(out, n_bins=100)
        return Iteration(wall, rss, tags, digest, accuracy,
                         span_files=[trace_out] if trace_out else [])


class ReanalyzeFine:
    """Re-bin recorded tags at 0.02 ns: correlate, reconstruct, fit children."""

    name = "reanalyze_fine"
    items_name = "tags_per_s"

    def __init__(self, run: Run, seed: int):
        self.run = run
        full = run.scale == "full"
        self.duration = 10.0 if full else 0.05
        self.setup_repeats = 3 if full else 2
        self.bin_width_ns = 0.02 if full else 0.4
        self.n_bins = int(round(400.0 / self.bin_width_ns))
        self.expected_rss_mb = 80.0 * self.duration + 60.0
        self.config = {
            "seed": seed,
            "sim": {
                "pair_rate_hz": 2e5,
                "singles_rate_a_hz": 2e5,
                "singles_rate_b_hz": 2e5,
                "duration_s": self.duration,
            },
        }

    def setup(self) -> list[float]:
        """The `biphoton simulate` stage, repeated; the repeats must agree bit for bit."""
        self.config_path = _write_config(self.run, self.config)
        walls, digests = [], []
        for k in range(self.setup_repeats):
            out = os.path.join(self.run.workdir, f"tags{k}")
            try:
                wall, _ = self.run.child(
                    ["-m", "biphoton.cli", "simulate", "--config", self.config_path, "--output-dir", out],
                    os.path.join(self.run.workdir, "setup.log"))
            except IterationFailed as exc:
                raise BenchError(f"set-up failed: {exc}")
            walls.append(wall)
            digests.append(_tree_digest(out))
            if k:
                shutil.rmtree(out)
        if len(set(digests)) != 1:
            raise BenchError("set-up is not deterministic: repeated simulate runs differ")
        self.tags_dir = os.path.join(self.run.workdir, "tags0")
        return walls

    def iterate(self, it_dir, trace_out, iteration) -> Iteration:
        for name in os.listdir(self.tags_dir):
            os.link(os.path.join(self.tags_dir, name), os.path.join(it_dir, name))
        cfg = ["--config", self.config_path]
        stages = [
            ["correlate", *cfg, "--input-dir", it_dir, "--bin-width-ns", str(self.bin_width_ns)],
            ["reconstruct", *cfg, "--input-dir", it_dir],
            ["fit", *cfg, "--recon", os.path.join(it_dir, "reconstruction.json"),
             "--output", os.path.join(it_dir, "fits.json")],
        ]
        wall, rss, span_files = 0.0, 0.0, []
        for k, args in enumerate(stages):
            spans = None if trace_out is None else f"{trace_out}.{k}"
            w, r = self.run.cli(args, os.path.join(it_dir, f"child{k}.log"), spans, iteration)
            wall += w
            rss = max(rss, r)
            if spans:
                span_files.append(spans)
        tags, digest, accuracy = check_run_dir(it_dir, n_bins=self.n_bins)
        return Iteration(wall, rss, tags, digest, accuracy, span_files=span_files)


class CalibrationSweep:
    """One library child fitting many consecutive seeds at the default config."""

    name = "calibration_sweep"
    items_name = "seeds_per_s"

    def __init__(self, run: Run, seed: int):
        self.run = run
        self.n_seeds = 500 if run.scale == "full" else 5
        self.first_seed = seed * self.n_seeds
        self.expected_rss_mb = 100.0

    def setup(self) -> list[float]:
        """Set-up (import plus one warm-up seed) is timed inside every iteration."""
        return []

    def iterate(self, it_dir, trace_out, iteration) -> Iteration:
        out = os.path.join(it_dir, "calibration.json")
        argv = [CHILD, "calibrate", "--first-seed", str(self.first_seed),
                "--n-seeds", str(self.n_seeds), "--out", out, "--iteration", str(iteration)]
        if trace_out:
            argv += ["--trace-out", trace_out]
        start = time.perf_counter()
        _, rss = self.run.child(argv, os.path.join(it_dir, "child.log"))
        try:
            with open(out) as fh:
                res = json.load(fh)
            if res["not_converged"]:
                raise IterationFailed(f"{res['not_converged']} envelope fits did not converge")
            if not res["finite"]:
                raise IterationFailed("a fitted parameter is non-finite")
            setup_s = res["t_ready"] - start
            wall = res["t_done"] - res["t_ready"]
            accuracy = {
                "fit.fwhm_pull_bias": abs(res["fwhm_pull_mean"]),
                "fit.pull_sd_dev": max(abs(res["fwhm_pull_sd"] - 1.0),
                                       abs(res["phase_pull_sd"] - 1.0)),
                "reconstruct.invalid_bin_frac": res["invalid_bins"] / res["bins"],
                "fwhm_pull_mean": res["fwhm_pull_mean"],
                "invalid_bins_per_seed": res["invalid_bins"] / self.n_seeds,
            }
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise IterationFailed(f"calibration result missing or malformed: {exc}")
        return Iteration(wall, rss, self.n_seeds, res["digest"], accuracy, setup_s,
                         span_files=[trace_out] if trace_out else [])


# calibration_sweep goes first: its child's peak RSS is the smallest, and
# `--workload all` would otherwise report the harness's own peak (raised
# by checking the 20,000-bin documents), which a child inherits at exec.
WORKLOADS = {w.name: w for w in (CalibrationSweep, PipelineDense, ReanalyzeFine)}


# --- traced-run analysis ---------------------------------------------

def _covered(span, kids) -> float:
    """Length of the part of span's interval that its child spans cover."""
    intervals = sorted((max(k["start"], span["start"]), min(k["end"], span["end"])) for k in kids)
    total, cur_start, cur_end = 0.0, None, None
    for s, e in intervals:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(span_files) -> dict:
    """Per-layer metrics of one traced iteration from its span files."""
    secs, calls, counts = defaultdict(float), defaultdict(int), defaultdict(float)
    cli_self = 0.0
    for path in span_files:
        try:
            with open(path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError) as exc:
            raise IterationFailed(f"trace {os.path.basename(path)} missing or malformed: {exc}")
        kids = defaultdict(list)
        for s in spans:
            secs[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1
            for key, value in s["counts"].items():
                counts[f"{s['name']}.{key}"] += value
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        for s in spans:
            if s["name"].startswith("cli."):
                cli_self += s["end"] - s["start"] - _covered(s, kids[s["id"]])

    def ratio(a, b):
        return a / b if b else 0.0

    tags_out = counts["simulate.generate_stream.tags_out"]
    return {
        "cli.simulate_s": secs["cli.simulate"],
        "cli.correlate_s": secs["cli.correlate"],
        "cli.reconstruct_s": secs["cli.reconstruct"],
        "cli.fit_s": secs["cli.fit"],
        "cli.self_s": cli_self,
        "simulate.generate_stream_s": secs["simulate.generate_stream"],
        "simulate.tags_out": tags_out,
        "simulate.kept_ratio": ratio(tags_out, counts["simulate.generate_stream.tags_expected"]),
        "simulate.rate_level_histogram_s": secs["simulate.rate_level_histogram"],
        "simulate.sampler_builds": calls["simulate.sampler_build"],
        "simulate.sampler_build_s": secs["simulate.sampler_build"],
        "model.eval_s": secs["model.eval"],
        "model.eval_calls": calls["model.eval"],
        "io.write_timetags_s": secs["io.write_timetags"],
        "io.tag_bytes_written": counts["io.write_timetags.bytes"],
        "io.read_timetag_stream_s": secs["io.read_timetag_stream"],
        "io.tag_bytes_read": counts["io.read_timetag_stream.bytes"],
        "io.tag_read_mb_per_s": ratio(counts["io.read_timetag_stream.bytes"] / 1e6,
                                      secs["io.read_timetag_stream"]),
        "io.json_write_s": secs["io.json_write"],
        "io.json_read_s": secs["io.json_read"],
        "io.json_bytes": counts["io.json_write.bytes"] + counts["io.json_read.bytes"],
        "correlate.cross_correlate_s": secs["correlate.cross_correlate"],
        "correlate.tags_in": counts["correlate.cross_correlate.tags_in"],
        "correlate.pairs_in_window": counts["correlate.cross_correlate.pairs_in_window"],
        "correlate.pairs_per_s": ratio(counts["correlate.cross_correlate.pairs_in_window"],
                                       secs["correlate.cross_correlate"]),
        "reconstruct.reconstruct_curve_s": secs["reconstruct.reconstruct_curve"],
        "reconstruct.bins": counts["reconstruct.reconstruct_curve.bins"],
        "reconstruct.invalid_bins": counts["reconstruct.reconstruct_curve.invalid_bins"],
        "fit.envelope_s": secs["fit.envelope"],
        "fit.phase_s": secs["fit.phase"],
        "fit.not_converged": counts["fit.envelope.not_converged"],
    }


# --- driver ----------------------------------------------------------

def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _numpy_version() -> str:
    # Read from the package metadata: importing numpy here would raise the
    # harness's own RSS, which every child's ru_maxrss inherits at exec.
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(cls, args) -> dict:
    """Set up, iterate for args.seconds, check and summarise one workload."""
    os.makedirs(TMP_BASE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=TMP_BASE)
    try:
        run = Run(args.scale, workdir)
        workload = cls(run, args.seed)
        available = _mem_available_mb()
        if available is not None and available < 2.0 * workload.expected_rss_mb:
            raise BenchError(
                f"{cls.name}: MemAvailable {available:.0f} MB is below twice the "
                f"expected peak RSS of {workload.expected_rss_mb:.0f} MB; refusing to start")
        setup_walls = workload.setup()

        good, traced, untraced, failures = [], [], [], []
        reference_digest = None
        attempted = 0
        t0 = time.perf_counter()
        last = 0.0
        while attempted < MIN_ITERATIONS or time.perf_counter() - t0 < args.seconds:
            if attempted >= MIN_ITERATIONS and time.perf_counter() - run.started + last > HARD_CAP_S:
                break
            trace = bool(args.trace) and attempted % 2 == 1
            it_dir = tempfile.mkdtemp(prefix="it-", dir=workdir)
            attempted += 1
            try:
                it = workload.iterate(it_dir, os.path.join(it_dir, "spans.json") if trace else None,
                                      attempted)
                if reference_digest is None:
                    reference_digest = it.digest
                elif it.digest != reference_digest:
                    raise IterationFailed("outputs differ from the first iteration of this seed")
                layers = layer_metrics(it.span_files) if trace else None
            except IterationFailed as exc:
                failures.append(str(exc))
                print(f"iteration {attempted} FAILED: {exc}", file=sys.stderr)
                continue
            finally:
                shutil.rmtree(it_dir, ignore_errors=True)
            last = it.wall_s
            good.append(it)
            (traced if trace else untraced).append((it, layers))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_BASE)
        except OSError:
            pass

    if not untraced or (args.trace and not traced):
        raise BenchError(f"{cls.name}: no iteration succeeded: {failures}")
    timed = [it for it, _ in untraced]
    setups = setup_walls + [it.setup_s for it in good if it.setup_s is not None]
    wall = _median([it.wall_s for it in timed])
    accuracy = good[0].accuracy
    summary = {
        "workload": cls.name,
        "items_name": cls.items_name,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": {
            "wall_s": wall,
            "items_per_s": _median([it.items / it.wall_s for it in timed]),
            "peak_rss_mb": max(it.peak_rss_mb for it in timed),
            "setup_s": _median(setups),
        },
        "accuracy": accuracy,
        "samples": {"wall_s": [it.wall_s for it in timed],
                    "peak_rss_mb": [it.peak_rss_mb for it in timed],
                    "setup_s": setups},
    }
    if args.trace:
        per_layer = {name: 0.0 for name in PER_LAYER}
        for name in traced[0][1]:
            per_layer[name] = _median([layers[name] for _, layers in traced])
        for name in ACCURACY:
            per_layer[name] = accuracy.get(name, 0.0)
        per_layer["trace.overhead_frac"] = _median([it.wall_s for it, _ in traced]) / wall - 1.0
        per_layer["failed_frac"] = len(failures) / attempted
        summary["per_layer"] = per_layer
        summary["traced_iterations"] = len(traced)
    return summary


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(summary, args):
    """Human-readable table; says which run each number came from."""
    name = summary["workload"]
    e2e = summary["end_to_end"]
    timed_src = "untraced iterations" + (" of the traced run" if args.trace else ", trace off")
    walls = summary["samples"]["wall_s"]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"== {name}: {summary['attempted']} iterations attempted, {summary['failed']} failed, "
          f"failed_frac {summary['failed'] / summary['attempted']:.6g}")
    print(f"  wall_s            {_fmt(e2e['wall_s'])} s  (median of {len(walls)}; "
          f"quartiles {q1:.4g} / {q3:.4g})  [{timed_src}]")
    print(f"  {summary['items_name']:<17} {_fmt(e2e['items_per_s'])} 1/s  (reported as items_per_s)  [{timed_src}]")
    print(f"  peak_rss_mb       {_fmt(e2e['peak_rss_mb'])} MB  [{timed_src}]")
    print(f"  setup_s           {_fmt(e2e['setup_s'])} s  [set-up, before the timed part]")
    for key, values in summary["samples"].items():
        print(f"  samples {key}: " + " ".join(f"{v:.4g}" for v in values))
    for key, value in summary["accuracy"].items():
        print(f"  {key:<28} {_fmt(value)}  [output of the first iteration; repeats exactly per seed]")
    if args.trace:
        print(f"  per-layer metrics  [median of {summary['traced_iterations']} traced iterations]")
        for key, value in summary["per_layer"].items():
            if key not in ACCURACY:
                print(f"    {key:<34} {_fmt(value)} {PER_LAYER[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(SRC, "biphoton", "__init__.py")):
            raise BenchError(f"no biphoton source under {SRC}; run from the root of a checkout")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} scale={args.scale} commit={_git_commit()} "
              f"python={platform.python_version()} numpy={_numpy_version()} "
              f"nproc={len(os.sched_getaffinity(0))}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = []
        for name in names:
            summaries.append(run_workload(WORKLOADS[name], args))
            report(summaries[-1], args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for s in summaries:
        values = s["per_layer"] if args.trace else s["end_to_end"]
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
