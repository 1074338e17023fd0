"""Child process of the perfbench harness (see perfbench/run.py).

    python3 perfbench/child.py cli [--trace-out FILE] [--iteration I] -- ARGS...
        Runs biphoton.cli.main(ARGS) and exits with its return code.

    python3 perfbench/child.py calibrate --first-seed S --n-seeds N --out FILE
                                         [--trace-out FILE] [--iteration I]
        Runs the many-seed calibration study at the default config: for
        each seed, three rate-level histograms, the per-bin
        reconstruction and both fits.  Writes pulls, invalid-bin counts,
        fit flags, a digest of every fitted value and the perf_counter
        instants at which set-up ended and the sweep ended.

With --trace-out, the public entry points of the cli, simulate, model,
io, correlate, reconstruct and fit layers are wrapped before the run,
one span is kept in memory per call, and the spans are written to FILE
when the run ends.  The program itself is not modified.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time

# The default model of biphoton.cli.PipelineConfig.
TRUE_PHASE = 0.9
TRUE_CORR_TIME = 39.3e-9
TRUE_FWHM = math.log(2.0) * TRUE_CORR_TIME


class Tracer:
    """Records one span per call of each wrapped function.

    A span holds its name, start, end, parent span, thread, iteration and
    the counts taken from the call.  A span opened on a thread that has
    no open span of its own (the worker threads of the cli stages) takes
    the enclosing cli stage span as parent.
    """

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage = None

    def wrap(self, owner, attr, name, count=None, stage=False):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else tracer._stage
            stack.append(span_id)
            if stage:
                tracer._stage = span_id
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if stage:
                    tracer._stage = None
                tracer.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "thread": threading.get_ident(),
                        "iteration": tracer.iteration,
                        "ok": ok,
                        "counts": count(args, kwargs, result) if ok and count else {},
                    }
                )
            return result

        setattr(owner, attr, traced)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _path_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _stream_counts(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"tags_out": len(result[0]) + len(result[1]), "tags_expected": config.expected_tags()}


def _correlate_counts(args, kwargs, result):
    return {"tags_in": len(args[0]) + len(args[1]), "pairs_in_window": int(result.counts.sum())}


def _recon_counts(args, kwargs, result):
    return {"bins": len(result.tau), "invalid_bins": len(result.tau) - result.n_valid}


def _fit_counts(args, kwargs, result):
    return {"not_converged": int(not result.converged)}


def install(tracer: Tracer):
    """Wrap each layer's entry points under the names its callers use.

    biphoton.cli binds generate_stream, cross_correlate, reconstruct_curve
    and the fits with ``from ... import``, so those names are wrapped in
    biphoton.cli; io is reached as ``bio.*`` and the model functions and
    the sampler as simulate-module globals, so those are wrapped where
    they are defined.  The calibration sweep calls the library through
    module attributes, which are wrapped too.
    """
    import biphoton.cli as cli
    import biphoton.fit as fit
    import biphoton.io as bio
    import biphoton.reconstruct as rec
    import biphoton.simulate as sim

    for stage in ("simulate", "correlate", "reconstruct", "fit"):
        tracer.wrap(cli, f"run_{stage}", f"cli.{stage}", stage=True)
    tracer.wrap(cli, "generate_stream", "simulate.generate_stream", _stream_counts)
    tracer.wrap(sim, "rate_level_histogram", "simulate.rate_level_histogram")
    tracer.wrap(sim.PairDelaySampler, "__init__", "simulate.sampler_build")
    tracer.wrap(sim, "tpwf_eval", "model.eval")
    tracer.wrap(sim, "forward_g2", "model.eval")
    tracer.wrap(bio, "write_timetags", "io.write_timetags", _path_bytes)
    tracer.wrap(bio, "read_timetag_stream", "io.read_timetag_stream", _path_bytes)
    tracer.wrap(bio, "write_json", "io.json_write", _path_bytes)
    tracer.wrap(bio, "read_json", "io.json_read", _path_bytes)
    tracer.wrap(cli, "cross_correlate", "correlate.cross_correlate", _correlate_counts)
    for owner in (cli, rec):
        tracer.wrap(owner, "reconstruct_curve", "reconstruct.reconstruct_curve", _recon_counts)
    for owner in (cli, fit):
        tracer.wrap(owner, "fit_double_exponential", "fit.envelope", _fit_counts)
        tracer.wrap(owner, "fit_constant_phase", "fit.phase", _fit_counts)


def _calibrate_one(seed: int) -> tuple:
    import biphoton.fit as fit
    import biphoton.reconstruct as rec
    import biphoton.simulate as sim
    from biphoton.model import RECONSTRUCTION_PHASES, AnalyzerSetting, TpwfModel

    model = TpwfModel(amplitude=1.0, corr_time=TRUE_CORR_TIME, tau_offset=0.0, phase=TRUE_PHASE)
    hists = []
    for k, phi in enumerate(RECONSTRUCTION_PHASES):
        config = sim.SimConfig(
            pair_rate=2000.0,
            singles_rate_a=1000.0,
            singles_rate_b=1000.0,
            duration=100.0,
            tau_window=400e-9,
            seed=sim.derive_setting_seed(seed, k),
        )
        hists.append(
            sim.rate_level_histogram(config, AnalyzerSetting.balanced(phi), model, 1.0, 4e-9)
        )
    recon = rec.reconstruct_curve(rec.PhaseTriple(*hists), gamma_mode="per_bin")
    envelope = fit.fit_double_exponential(recon)
    phase = fit.fit_constant_phase(recon)
    return (
        envelope.params["fwhm"],
        envelope.sigmas["fwhm"],
        phase.params["phase"],
        phase.sigmas["phase"],
        len(recon.tau) - recon.n_valid,
        len(recon.tau),
        bool(envelope.converged),
    )


def calibrate(first_seed: int, n_seeds: int, out: str, tracer: Tracer | None):
    seeds = range(first_seed, first_seed + n_seeds)
    _calibrate_one(seeds[0])  # warm-up: first-call costs belong to set-up
    if tracer is not None:
        install(tracer)
    t_ready = time.perf_counter()
    rows = [_calibrate_one(s) for s in seeds]
    t_done = time.perf_counter()

    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "finite": all(math.isfinite(v) for row in rows for v in row[:4]),
        "not_converged": sum(not r[6] for r in rows),
        "invalid_bins": sum(r[4] for r in rows),
        "bins": sum(r[5] for r in rows),
    }
    if result["finite"]:
        fwhm_pulls = [(r[0] - TRUE_FWHM) / r[1] for r in rows]
        phase_pulls = [(r[2] - TRUE_PHASE) / r[3] for r in rows]
        result["fwhm_pull_mean"] = statistics.fmean(fwhm_pulls)
        result["fwhm_pull_sd"] = statistics.stdev(fwhm_pulls)
        result["phase_pull_sd"] = statistics.stdev(phase_pulls)
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cal = sub.add_parser("calibrate")
    for p in (p_cli, p_cal):
        p.add_argument("--trace-out")
        p.add_argument("--iteration", type=int, default=0)
    p_cli.add_argument("args", nargs=argparse.REMAINDER)
    p_cal.add_argument("--first-seed", type=int, required=True)
    p_cal.add_argument("--n-seeds", type=int, required=True)
    p_cal.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer(args.iteration) if args.trace_out else None
    try:
        if args.mode == "calibrate":
            return calibrate(args.first_seed, args.n_seeds, args.out, tracer)
        import biphoton.cli

        if tracer is not None:
            install(tracer)
        cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
        return biphoton.cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
