"""Command-line pipeline: simulate -> correlate -> reconstruct -> fit.

Each stage reads and writes the formats defined in biphoton.io, so a
pipeline can be re-run from any intermediate product.  A run directory
always contains a manifest with every parameter and derived seed needed
to reproduce it bit for bit.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed data,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from . import io as bio
from .correlate import _check_duration, check_binning, cross_correlate
from .errors import BiphotonError, ConfigError, DataError, NumericalError
from .fit import (_check_fix_corr_time, _check_weight_threshold, fit_constant_phase,
                  fit_double_exponential)
from .model import RECONSTRUCTION_PHASES, AnalyzerSetting, TpwfModel
from .reconstruct import (
    BACKGROUND_MODES,
    GAMMA_MODES,
    PhaseTriple,
    ReconstructedTpwf,
    _check_modes, _check_wing_fraction,
    reconstruct_curve,
)
# generate_stream is not called here; perfbench/child.py wraps it as an
# attribute of this module, so the name stays importable from it.
from .simulate import (  # noqa: F401
    SimConfig,
    _check_seed, _neutral_mass,
    derive_setting_seed,
    generate_blocks,
    generate_stream,
)

__all__ = ["PipelineConfig", "main"]

MANIFEST_FORMAT = "run-manifest/1"
MANIFEST_NAME = "manifest.json"

_NS = 1e-9
_PS = 1e-12

# The config format, one row per value: JSON section (None for the top
# level), JSON key, field (of TpwfModel in "model", of SimConfig in "sim",
# of PipelineConfig elsewhere, named as the library parameter it feeds),
# coercion, and the unit of the JSON value (None when stored as given).
# The row order is the key order of to_dict and so of every manifest.
_CONFIG_KEYS = (
    (None, "seed", "seed", int, None),
    ("model", "amplitude", "amplitude", float, None),
    ("model", "corr_time_ns", "corr_time", float, _NS),
    ("model", "tau_offset_ns", "tau_offset", float, _NS),
    ("model", "phase_rad", "phase", float, None),
    (None, "gamma", "gamma", float, None),
    ("sim", "pair_rate_hz", "pair_rate", float, None),
    ("sim", "singles_rate_a_hz", "singles_rate_a", float, None),
    ("sim", "singles_rate_b_hz", "singles_rate_b", float, None),
    ("sim", "duration_s", "duration", float, None),
    ("sim", "jitter_sigma_ps", "jitter_sigma", float, _PS),
    ("sim", "dead_time_ns", "dead_time", float, _NS),
    ("sim", "tau_window_ns", "tau_window", float, _NS),
    ("correlate", "bin_width_ns", "bin_width", float, _NS),
    ("correlate", "tau_max_ns", "tau_max", float, _NS),
    ("reconstruct", "background_mode", "background_mode", str, None),
    ("reconstruct", "gamma_mode", "gamma_mode", str, None),
    ("reconstruct", "wing_fraction", "wing_fraction", float, None),
    ("fit", "fix_corr_time_ns", "fix_corr_time", float, _NS),
    ("fit", "phase_threshold", "weight_threshold", float, None),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Fully validated parameters for one end-to-end run.

    sim.seed is unused: sim_config derives each setting's seed from seed.
    The defaults that carry a unit are written as the JSON value times
    that unit, the conversion from_dict applies, so the default config
    and its JSON form load to each other exactly.
    """

    seed: int = 1
    model: TpwfModel = TpwfModel(amplitude=1.0, corr_time=39.3 * _NS, tau_offset=0.0, phase=0.9)
    gamma: float = 1.0
    sim: SimConfig = SimConfig(pair_rate=2000.0, singles_rate_a=1000.0, singles_rate_b=1000.0,
                               duration=10.0, tau_window=400.0 * _NS)
    bin_width: float = 4.0 * _NS
    tau_max: float = 200.0 * _NS
    background_mode: str = "none"
    gamma_mode: str = "per_bin"
    wing_fraction: float = 0.2
    fix_corr_time: float | None = None
    weight_threshold: float = 0.1

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be > 0 (the inversion divides by it), got {self.gamma}")
        check_binning(self.bin_width, self.tau_max)
        _check_modes(self.background_mode, self.gamma_mode)
        _check_wing_fraction(self.wing_fraction)
        _check_fix_corr_time(self.fix_corr_time)
        _check_weight_threshold(self.weight_threshold)
        _check_seed(self.seed)
        _neutral_mass(self.model, self.gamma, self.sim.tau_window)  # gamma finite, density too

    def sim_config(self, setting_index: int) -> SimConfig:
        return replace(self.sim, seed=derive_setting_seed(self.seed, setting_index))

    def to_dict(self) -> dict:
        doc = {}
        for section, key, field, _, unit in _CONFIG_KEYS:
            value = getattr({"model": self.model, "sim": self.sim}.get(section, self), field)
            if value is not None and unit is not None:
                value = value / unit
            (doc if section is None else doc.setdefault(section, {}))[key] = value
        return doc

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        allowed = {}
        for section, key, _, _, _ in _CONFIG_KEYS:
            allowed.setdefault(section, set()).add(key)
        top = allowed.pop(None)
        unknown = set(obj) - top - set(allowed)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, keys in allowed.items():
            sub = obj.get(name, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            unknown = set(sub) - keys
            if unknown:
                raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")

        defaults = cls().to_dict()
        fields, written = {"model": {}, "sim": {}, None: {}}, {}
        # A bool for a number, a float for an integer, a value that
        # int()/float() cannot coerce (flags give strings) or that a
        # constructor rejects with a ValueError is a configuration error.
        try:
            for section, key, field, coerce, unit in _CONFIG_KEYS:
                given = obj if section is None else obj.get(section, {})
                default = (defaults if section is None else defaults[section])[key]
                value = given.get(key, default)
                refused = (bool, float) if coerce is int else bool if coerce is float else ()
                if isinstance(value, refused):
                    raise ConfigError(f"{key} must be {coerce.__name__}, got {value!r}")
                if not (value is None and default is None):  # a None default admits None
                    value = coerce(value)
                    label = key if section is None else f"{section}.{key}"
                    written[field] = f"{label} = {value!r}"
                    if unit is not None:
                        value = value * unit
                fields.get(section, fields[None])[field] = value
            return cls(model=TpwfModel(**fields["model"]), sim=SimConfig(**fields["sim"]),
                       **fields[None])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        except ConfigError as exc:  # lead a library rule's message with the keys it reads
            words = set(re.findall(r"\w+", str(exc)))
            named = ", ".join(text for name, text in written.items() if name in words)
            raise ConfigError(f"{named}: {exc}" if named else str(exc)) from exc


class _ConfigFlag(argparse.Action):
    """A flag that overrides the config value whose JSON key is its dest.
    The value goes through from_dict as given, like a config file value."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.overrides = {**getattr(namespace, "overrides", {}), self.dest: values}


def _load_config(args) -> PipelineConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    obj = {}
    if getattr(args, "config", None):
        try:
            obj = bio.read_json(args.config)
        except (DataError, OSError) as exc:
            raise ConfigError(f"config file: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config file must hold a JSON object")
    overrides = getattr(args, "overrides", {})
    for section, key, _, _, _ in _CONFIG_KEYS:
        if key in overrides:
            target = obj if section is None else obj.setdefault(section, {})
            if isinstance(target, dict):  # else from_dict rejects the section
                target[key] = overrides[key]
    return PipelineConfig.from_dict(obj)


def _tag_names(index: int) -> tuple[str, str]:
    return f"tags_phi{index}_A.bttg", f"tags_phi{index}_B.bttg"


def _simulate_setting(config: PipelineConfig, index: int, out_dir: str) -> dict:
    """Stream one setting's clicks to its two tag files, block by block."""
    phi = RECONSTRUCTION_PHASES[index]
    setting = AnalyzerSetting.balanced(phi)
    sim = config.sim_config(index)
    blocks = generate_blocks(sim, setting, config.model, config.gamma)
    name_a, name_b = _tag_names(index)
    with bio.TimeTagWriter(os.path.join(out_dir, name_a), "A") as writer_a, \
            bio.TimeTagWriter(os.path.join(out_dir, name_b), "B") as writer_b:
        for block_a, block_b in blocks:
            writer_a.append(block_a)
            writer_b.append(block_b)
            # Hold no block while the next one is simulated.
            del block_a, block_b
    return {
        "index": index,
        "phi_rad": phi,
        "theta_rad": setting.theta,
        "seed": sim.seed,
        "tags_a": name_a,
        "tags_b": name_b,
        "n_tags_a": writer_a.n_records,
        "n_tags_b": writer_b.n_records,
        "duration_s": sim.duration,
        "exposure_s": sim.duration,
    }


# The settings of a run, by index into RECONSTRUCTION_PHASES, and those
# simulated at once: one thread each (see _CORRELATE_THREADS).
_SETTINGS = range(len(RECONSTRUCTION_PHASES))
_SIMULATE_THREADS = len(_SETTINGS)


def run_simulate(config: PipelineConfig, out_dir: str, only_setting: int | None = None) -> dict:
    """Simulate the analyzer settings (concurrently) and write a manifest."""
    indices = [only_setting] if only_setting is not None else list(_SETTINGS)
    for index in indices:  # an over-budget run makes no directory
        config.sim_config(index).validate_budget()
    os.makedirs(out_dir, exist_ok=True)
    with ThreadPoolExecutor(max_workers=min(len(indices), _SIMULATE_THREADS)) as pool:
        entries = list(pool.map(lambda k: _simulate_setting(config, k, out_dir), indices))
    manifest = {
        "format": MANIFEST_FORMAT,
        "config": config.to_dict(),
        "settings": entries,
    }
    bio.write_json(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


def _hist_name(index: int) -> str:
    return f"hist_phi{index}.json"


@dataclass(frozen=True)
class _ManifestSetting:
    """One checked manifest setting entry; tags are bare file names."""

    index: int
    setting: AnalyzerSetting
    tags: tuple[str, str]
    duration: float
    exposure: float


def _check_manifest_entry(entry) -> _ManifestSetting:
    """Check the types and ranges of one manifest setting entry and
    return what it checked as one record.  Every fault is a DataError."""
    if not isinstance(entry, dict):
        raise DataError("manifest setting entry must be a JSON object")
    index = bio._field(entry, "index", int, "manifest setting entry")
    if index not in _SETTINGS:
        raise DataError(f"manifest setting index must be 0 to {_SETTINGS[-1]}, got {index!r}")
    doc = f"manifest setting {index}"
    tags = []
    for key in ("tags_a", "tags_b"):
        name = bio._field(entry, key, str, doc)
        if not (name.isprintable() and os.path.basename(name) == name
                and name not in ("", ".", "..")):
            raise DataError(f"{doc}: {key} must be a file name in the run directory, got {name!r}")
        tags.append(name)
    theta, phi, duration = (bio._field(entry, key, float, doc)
                            for key in ("theta_rad", "phi_rad", "duration_s"))
    exposure = (None if entry.get("exposure_s") is None
                else bio._field(entry, "exposure_s", float, doc))
    try:
        exposure, _ = _check_duration(duration, exposure)
        return _ManifestSetting(index, AnalyzerSetting(theta=theta, phi=phi), tuple(tags),
                                duration, exposure)
    except ConfigError as exc:
        raise DataError(f"{doc}: {exc}") from exc


def _correlate_files(config, tags_a, tags_b, duration, exposure, setting, out_path):
    """Correlate the tag files of channels A and B into a histogram file,
    streaming both from disk.  Returns the histogram."""
    stream_a = bio.TimeTagFile(tags_a, "A", duration, exposure)
    stream_b = bio.TimeTagFile(tags_b, "B", duration, exposure)
    hist = cross_correlate(stream_a, stream_b, config.bin_width, config.tau_max, setting)
    bio.write_json(out_path, bio.histogram_to_dict(hist))
    return hist


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, so that taskset or a cpuset counts, else every CPU
    of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Settings correlated at once.  The pair kernel makes many small numpy
# calls, each of which takes the GIL back, so no more threads than CPUs
# run at once.  On 2 CPUs, the three settings of 10 s of tags at 2e5
# clicks/s per channel, 0.02 ns bins, took 0.79-0.86 s one after another,
# 0.63-0.89 s on two threads and 0.62-0.82 s on three; the third thread
# added 3.4 MB to the peak RSS of the correlate child.  (The simulate pool
# keeps one thread per setting: its RNG draws and sorts release the GIL.
# Capping it at one per CPU was measured on 2 CPUs, before each simulate
# thread's working set was cut from about 2.9 to 1.5 MB: the dense
# `pipeline` peak RSS went 49.1-50.1 -> 46.9-47.9 MB in 6 of 6 perfbench
# pairs, but perfbench `reanalyze_fine` setup_s, its three `simulate`
# children, went 0.744 -> 0.854 s, median of 4 pairs.)
_CORRELATE_THREADS = _usable_cpus()


def run_correlate(run_dir: str, config: PipelineConfig, manifest: dict) -> tuple[list, list]:
    """Correlate every setting recorded in a manifest, at most
    _CORRELATE_THREADS at once.  Returns the histogram paths written and
    the histograms, in manifest order."""
    bio._document(manifest, "manifest", MANIFEST_FORMAT)
    entries = manifest.get("settings")
    if not isinstance(entries, list) or not entries:
        raise DataError("manifest has no non-empty 'settings' list")
    records = [_check_manifest_entry(entry) for entry in entries]
    paths = [os.path.join(run_dir, _hist_name(record.index)) for record in records]
    if len(set(paths)) < len(paths):
        raise DataError("manifest settings repeat a setting index")

    def one(record, path):
        tags_a, tags_b = (os.path.join(run_dir, name) for name in record.tags)
        return _correlate_files(config, tags_a, tags_b, record.duration, record.exposure,
                                record.setting, path)

    with ThreadPoolExecutor(max_workers=max(min(len(records), _CORRELATE_THREADS), 1)) as pool:
        return paths, list(pool.map(one, records, paths))


def run_reconstruct(hists, config: PipelineConfig, out_path: str):
    triple = PhaseTriple(*hists)
    recon = reconstruct_curve(
        triple,
        background_mode=config.background_mode,
        gamma_mode=config.gamma_mode,
        wing_fraction=config.wing_fraction,
    )
    bio.write_json(out_path, bio.recon_to_dict(recon))
    return recon


def run_fit(recon: ReconstructedTpwf, config: PipelineConfig, out_path: str) -> dict:
    envelope = fit_double_exponential(recon, fix_corr_time=config.fix_corr_time)
    phase = fit_constant_phase(recon, weight_threshold=config.weight_threshold)
    doc = {
        "format": bio.FIT_FORMAT,
        "fits": {
            "envelope": bio.fit_to_dict(envelope, "double_exponential_envelope"),
            "phase": bio.fit_to_dict(phase, "constant_phase"),
        },
    }
    bio.write_json(out_path, doc)
    if not envelope.converged:
        raise NumericalError(f"envelope fit failed: {envelope.message} (written to {out_path})")
    return doc


# --- command handlers -------------------------------------------------

def _cmd_simulate(args) -> int:
    config = _load_config(args)
    manifest = run_simulate(config, args.output_dir, only_setting=args.phi_setting)
    for entry in manifest["settings"]:
        print(
            f"setting {entry['index']} (phi = {entry['phi_rad']:.6f} rad): "
            f"{entry['n_tags_a']} A tags, {entry['n_tags_b']} B tags"
        )
    print(f"wrote {os.path.join(args.output_dir, MANIFEST_NAME)}")
    return 0


def _cmd_correlate(args) -> int:
    config = _load_config(args)
    if args.input_dir:
        manifest = bio.read_json(os.path.join(args.input_dir, MANIFEST_NAME))
        paths, _ = run_correlate(args.input_dir, config, manifest)
        for p in paths:
            print(f"wrote {p}")
        return 0
    if None in (args.tags_a, args.tags_b, args.duration_s, args.output):
        raise ConfigError(
            "either --input-dir or all of --tags-a, --tags-b, --duration-s, --output"
        )
    setting = None if args.phi_rad is None else AnalyzerSetting.balanced(args.phi_rad)
    _correlate_files(config, args.tags_a, args.tags_b, args.duration_s, None, setting, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_reconstruct(args) -> int:
    config = _load_config(args)
    if args.input_dir:
        hist_paths = [os.path.join(args.input_dir, _hist_name(k)) for k in _SETTINGS]
        out = args.output or os.path.join(args.input_dir, "reconstruction.json")
    else:
        if not (args.hist0 and args.hist1 and args.hist2 and args.output):
            raise ConfigError(
                "either --input-dir or all of --hist0, --hist1, --hist2, --output"
            )
        hist_paths = [args.hist0, args.hist1, args.hist2]
        out = args.output
    hists = [bio.histogram_from_dict(bio.read_json(p)) for p in hist_paths]
    recon = run_reconstruct(hists, config, out)
    print(f"reconstructed {recon.n_valid}/{len(recon.tau)} valid bins -> {out}")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args)
    recon = bio.recon_from_dict(bio.read_json(args.recon))
    doc = run_fit(recon, config, args.output)
    env = doc["fits"]["envelope"]["params"]
    ph = doc["fits"]["phase"]["params"]
    print(
        f"envelope: fwhm = {env['fwhm'] / _NS:.3f} ns, "
        f"tau_offset = {env['tau_offset'] / _NS:.3f} ns; "
        f"phase = {ph['phase']:.4f} rad"
    )
    print(f"wrote {args.output}")
    return 0


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    out_dir = args.output_dir
    manifest = run_simulate(config, out_dir)
    _, hists = run_correlate(out_dir, config, manifest)
    recon = run_reconstruct(hists, config, os.path.join(out_dir, "reconstruction.json"))
    doc = run_fit(recon, config, os.path.join(out_dir, "fits.json"))
    env = doc["fits"]["envelope"]["params"]
    ph = doc["fits"]["phase"]["params"]
    print(f"pipeline complete in {out_dir}")
    print(
        f"envelope: amplitude = {env['amplitude']:.4g}, "
        f"fwhm = {env['fwhm'] / _NS:.3f} ns; phase = {ph['phase']:.4f} rad"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="biphoton",
        description="Simulate and reconstruct biphoton temporal wave functions "
        "from two-photon interference coincidence data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--seed", action=_ConfigFlag, help="override the run seed")
        p.add_argument("--bin-width-ns", action=_ConfigFlag, help="coincidence bin width")
        p.add_argument("--tau-max-ns", action=_ConfigFlag, help="histogram half range")
        p.add_argument("--background-mode", action=_ConfigFlag, help=" or ".join(BACKGROUND_MODES))
        p.add_argument("--gamma-mode", action=_ConfigFlag, help=" or ".join(GAMMA_MODES))

    p_sim = sub.add_parser("simulate", help="generate time-tag files for the phase settings")
    add_common(p_sim)
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument(
        "--phi-setting", type=int, choices=_SETTINGS, help="simulate a single setting"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_corr = sub.add_parser("correlate", help="histogram coincidences from time-tag files")
    add_common(p_corr)
    p_corr.add_argument("--input-dir", help="run directory holding a manifest")
    p_corr.add_argument("--tags-a")
    p_corr.add_argument("--tags-b")
    p_corr.add_argument("--duration-s", type=float)
    p_corr.add_argument("--phi-rad", type=float)
    p_corr.add_argument("--output")
    p_corr.set_defaults(func=_cmd_correlate)

    p_rec = sub.add_parser("reconstruct", help="invert three histograms into psi(tau)")
    add_common(p_rec)
    p_rec.add_argument("--input-dir", help="run directory with hist_phi{0,1,2}.json")
    p_rec.add_argument("--hist0")
    p_rec.add_argument("--hist1")
    p_rec.add_argument("--hist2")
    p_rec.add_argument("--output")
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_fit = sub.add_parser("fit", help="fit envelope and phase to a reconstruction")
    add_common(p_fit)
    p_fit.add_argument("--recon", required=True)
    p_fit.add_argument("--output", required=True)
    p_fit.add_argument("--fix-corr-time-ns", action=_ConfigFlag)
    p_fit.add_argument("--phase-threshold", action=_ConfigFlag)
    p_fit.set_defaults(func=_cmd_fit)

    p_pipe = sub.add_parser("pipeline", help="run all stages into one directory")
    add_common(p_pipe)
    p_pipe.add_argument("--output-dir", required=True)
    p_pipe.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        loc = f" at byte {exc.byte_offset}" if exc.byte_offset is not None else ""
        print(f"data error{loc}: {exc}", file=sys.stderr)
        return 2
    except BiphotonError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
