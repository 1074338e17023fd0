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
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import io as bio
from .correlate import check_acquisition, check_binning, cross_correlate
from .errors import BiphotonError, ConfigError, DataError, NumericalError
from .fit import fit_constant_phase, fit_double_exponential
from .model import RECONSTRUCTION_PHASES, AnalyzerSetting, TpwfModel
from .reconstruct import BACKGROUND_MODES, GAMMA_MODES, PhaseTriple, reconstruct_curve
# generate_stream is not called here; perfbench/child.py wraps it as an
# attribute of this module, so the name stays importable from it.
from .simulate import SimConfig, derive_setting_seed, generate_blocks, generate_stream  # noqa: F401

__all__ = ["PipelineConfig", "main"]

MANIFEST_FORMAT = "run-manifest/1"
MANIFEST_NAME = "manifest.json"

_NS = 1e-9
_PS = 1e-12

# The config format, one row per value: JSON section (None for the top
# level), JSON key, field (of TpwfModel in the "model" section, of
# PipelineConfig elsewhere), coercion, and the unit the JSON value is
# given in (None when it is stored as given).  The row order is the key
# order of to_dict and so of every manifest.
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
    ("fit", "phase_threshold", "phase_threshold", float, None),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Fully validated parameters for one end-to-end run.

    The defaults that carry a unit are written as the JSON value times
    that unit, the conversion from_dict applies, so the default config
    and its JSON form load to each other exactly.
    """

    seed: int = 1
    model: TpwfModel = TpwfModel(amplitude=1.0, corr_time=39.3 * _NS, tau_offset=0.0, phase=0.9)
    gamma: float = 1.0
    pair_rate: float = 2000.0
    singles_rate_a: float = 1000.0
    singles_rate_b: float = 1000.0
    duration: float = 10.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    tau_window: float = 400.0 * _NS
    bin_width: float = 4.0 * _NS
    tau_max: float = 200.0 * _NS
    background_mode: str = "none"
    gamma_mode: str = "per_bin"
    wing_fraction: float = 0.2
    fix_corr_time: float | None = None
    phase_threshold: float = 0.1

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be > 0 (the inversion divides by it), got {self.gamma}")
        if self.background_mode not in BACKGROUND_MODES:
            raise ConfigError(f"unknown background_mode {self.background_mode!r}")
        if self.gamma_mode not in GAMMA_MODES:
            raise ConfigError(f"unknown gamma_mode {self.gamma_mode!r}")
        check_binning(self.bin_width, self.tau_max)
        self.sim_config(0)  # validates rates, durations, window

    def sim_config(self, setting_index: int) -> SimConfig:
        return SimConfig(
            seed=derive_setting_seed(self.seed, setting_index),
            **{field: getattr(self, field) for section, _, field, _, _ in _CONFIG_KEYS
               if section == "sim"},
        )

    def to_dict(self) -> dict:
        doc = {}
        for section, key, field, _, unit in _CONFIG_KEYS:
            value = getattr(self.model if section == "model" else self, field)
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
        fields, model = {}, {}
        # A value that int()/float() cannot coerce, or that a constructor
        # rejects by range (a negative seed), is a configuration error.
        # A value whose default is None may be None.
        try:
            for section, key, field, coerce, unit in _CONFIG_KEYS:
                given = obj if section is None else obj.get(section, {})
                default = (defaults if section is None else defaults[section])[key]
                value = given.get(key, default)
                if not (value is None and default is None):
                    value = coerce(value)
                    if unit is not None:
                        value = value * unit
                (model if section == "model" else fields)[field] = value
            return cls(model=TpwfModel(**model), **fields)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc


class _ConfigFlag(argparse.Action):
    """A flag that overrides the config value whose JSON key is its dest.
    The value goes through from_dict as given, like a config file value."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.overrides = {**getattr(namespace, "overrides", {}), self.dest: values}


def _load_config(args) -> PipelineConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    obj = {}
    if getattr(args, "config", None):
        obj = bio.read_json(args.config)
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
        "exposure_s": sim.exposure(),
    }


def run_simulate(config: PipelineConfig, out_dir: str, only_setting: int | None = None) -> dict:
    """Simulate the analyzer settings (concurrently) and write a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    indices = [only_setting] if only_setting is not None else [0, 1, 2]
    with ThreadPoolExecutor(max_workers=len(indices)) as pool:
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


_MANIFEST_ENTRY_KEYS = ("index", "theta_rad", "phi_rad", "tags_a", "tags_b", "duration_s")


def _check_manifest_entry(entry) -> AnalyzerSetting:
    """Check the types and ranges of one manifest setting entry and
    return its analyzer setting.  Every fault is a DataError."""
    missing = [k for k in _MANIFEST_ENTRY_KEYS if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise DataError(f"manifest setting entry lacks {missing}")
    index = entry["index"]
    if type(index) is not int or index not in (0, 1, 2):
        raise DataError(f"manifest setting index must be 0, 1 or 2, got {index!r}")
    for key in ("tags_a", "tags_b"):
        if not (isinstance(entry[key], str) and entry[key].isprintable()):
            raise DataError(f"manifest setting {index}: {key} must be a file name")
    for key in ("theta_rad", "phi_rad", "duration_s", "exposure_s"):
        value = entry.get(key, 0.0)
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise DataError(f"manifest setting {index}: {key} must be a finite number")
    try:
        check_acquisition("A", entry["duration_s"], entry.get("exposure_s"))
        return AnalyzerSetting(theta=entry["theta_rad"], phi=entry["phi_rad"])
    except ConfigError as exc:
        raise DataError(f"manifest setting {index}: {exc}") from exc


def _correlate_files(config, tags_a, tags_b, duration, exposure, setting, out_path) -> str:
    """Correlate the tag files of channels A and B into a histogram file,
    streaming both from disk."""
    stream_a = bio.TimeTagFile(tags_a, "A", duration, exposure)
    stream_b = bio.TimeTagFile(tags_b, "B", duration, exposure)
    hist = cross_correlate(stream_a, stream_b, config.bin_width, config.tau_max, setting)
    bio.write_json(out_path, bio.histogram_to_dict(hist))
    return out_path


def run_correlate(run_dir: str, config: PipelineConfig, manifest: dict) -> list:
    """Correlate every setting recorded in a manifest."""
    entries = manifest.get("settings") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise DataError("manifest has no 'settings' list")
    settings = [_check_manifest_entry(entry) for entry in entries]

    def one(entry, setting):
        return _correlate_files(
            config,
            os.path.join(run_dir, entry["tags_a"]),
            os.path.join(run_dir, entry["tags_b"]),
            entry["duration_s"],
            entry.get("exposure_s"),
            setting,
            os.path.join(run_dir, _hist_name(entry["index"])),
        )

    with ThreadPoolExecutor(max_workers=max(len(entries), 1)) as pool:
        return list(pool.map(one, entries, settings))


def run_reconstruct(hist_paths, config: PipelineConfig, out_path: str):
    hists = [bio.histogram_from_dict(bio.read_json(p)) for p in hist_paths]
    triple = PhaseTriple(*hists)
    recon = reconstruct_curve(
        triple,
        background_mode=config.background_mode,
        gamma_mode=config.gamma_mode,
        wing_fraction=config.wing_fraction,
    )
    bio.write_json(out_path, bio.recon_to_dict(recon))
    return recon


def run_fit(recon_path: str, config: PipelineConfig, out_path: str) -> dict:
    recon = bio.recon_from_dict(bio.read_json(recon_path))
    envelope = fit_double_exponential(recon, fix_corr_time=config.fix_corr_time)
    phase = fit_constant_phase(recon, weight_threshold=config.phase_threshold)
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
        paths = run_correlate(args.input_dir, config, manifest)
        for p in paths:
            print(f"wrote {p}")
        return 0
    if not (args.tags_a and args.tags_b and args.duration_s and args.output):
        raise ConfigError(
            "either --input-dir or all of --tags-a, --tags-b, --duration-s, --output"
        )
    setting = None
    if args.phi_rad is not None:
        setting = AnalyzerSetting.balanced(args.phi_rad)
    _correlate_files(config, args.tags_a, args.tags_b, args.duration_s, None, setting, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_reconstruct(args) -> int:
    config = _load_config(args)
    if args.input_dir:
        hist_paths = [os.path.join(args.input_dir, _hist_name(k)) for k in range(3)]
        out = args.output or os.path.join(args.input_dir, "reconstruction.json")
    else:
        if not (args.hist0 and args.hist1 and args.hist2 and args.output):
            raise ConfigError(
                "either --input-dir or all of --hist0, --hist1, --hist2, --output"
            )
        hist_paths = [args.hist0, args.hist1, args.hist2]
        out = args.output
    recon = run_reconstruct(hist_paths, config, out)
    print(f"reconstructed {recon.n_valid}/{len(recon.tau)} valid bins -> {out}")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args)
    doc = run_fit(args.recon, config, args.output)
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
    hist_paths = run_correlate(out_dir, config, manifest)
    recon_path = os.path.join(out_dir, "reconstruction.json")
    run_reconstruct(hist_paths, config, recon_path)
    fit_path = os.path.join(out_dir, "fits.json")
    doc = run_fit(recon_path, config, fit_path)
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
        p.add_argument(
            "--background-mode", action=_ConfigFlag, choices=BACKGROUND_MODES,
            help="background handling",
        )
        p.add_argument(
            "--gamma-mode", action=_ConfigFlag, choices=GAMMA_MODES,
            help="reference amplitude handling",
        )

    p_sim = sub.add_parser("simulate", help="generate time-tag files for the phase settings")
    add_common(p_sim)
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument(
        "--phi-setting", type=int, choices=[0, 1, 2], help="simulate a single setting"
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
    except (NumericalError, BiphotonError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
