"""Command-line contracts: pipeline composition, reproducibility from the
manifest, flag/config precedence, and exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import io as bio
from biphoton.cli import _CONFIG_KEYS, MANIFEST_NAME, PipelineConfig, main
from helpers import forward_triple, phase_histogram

README = Path(__file__).resolve().parents[1] / "README.md"

MISSING = object()

# (section, key, field) of every float value of the config format.
FLOAT_KEYS = [(section, key, field) for section, key, field, coerce, _ in _CONFIG_KEYS
              if coerce is float]

FAST_CONFIG = {
    "seed": 97,
    "model": {
        "amplitude": 1.0,
        "corr_time_ns": 39.3,
        "tau_offset_ns": 0.0,
        "phase_rad": 0.9,
    },
    "gamma": 1.1,
    "sim": {
        "pair_rate_hz": 4000.0,
        "singles_rate_a_hz": 2000.0,
        "singles_rate_b_hz": 2000.0,
        "duration_s": 6.0,
        "tau_window_ns": 400.0,
    },
    "correlate": {"bin_width_ns": 4.0, "tau_max_ns": 200.0},
    "reconstruct": {"background_mode": "none", "gamma_mode": "pooled"},
    "fit": {"fix_corr_time_ns": None, "phase_threshold": 0.1},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A simulated run of 0.05 s and its manifest."""
    tmp = tmp_path_factory.mktemp("tiny")
    config = write_config(tmp, {"sim.duration_s": 0.05})
    run_dir = tmp / "run"
    assert main(["simulate", "--config", config, "--output-dir", str(run_dir)]) == 0
    return run_dir, json.loads((run_dir / MANIFEST_NAME).read_text())


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    for key, value in (overrides or {}).items():
        section, _, name = key.partition(".")
        if name:
            cfg.setdefault(section, {})[name] = value
        else:
            cfg[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args, **kwargs):
    """Run the CLI in a fresh interpreter; return the CompletedProcess."""
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    return subprocess.run([sys.executable, "-m", "biphoton.cli", *args],
                          env=env, capture_output=True, text=True, **kwargs)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def config_dicts():
    """JSON-shaped dicts over the known config keys, with any values."""
    sections = {
        name: st.fixed_dictionaries({}, optional={key: JSON_VALUES for key in keys}) | JSON_VALUES
        for name, keys in PipelineConfig().to_dict().items()
        if isinstance(keys, dict)
    }
    return st.fixed_dictionaries(
        {}, optional={"seed": JSON_VALUES, "gamma": JSON_VALUES, "bogus": JSON_VALUES, **sections}
    )


def test_readme_library_quick_start(capsys):
    # README's "Library quick start" block runs as written and prints the
    # fitted phase (0.9 rad set) and intensity FWHM (27.2 ns set).
    text = README.read_text().split("## Library quick start", 1)[1]
    block = text.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    phase, fwhm_ns = map(float, capsys.readouterr().out.split())
    assert phase == pytest.approx(0.9, abs=0.1)
    assert fwhm_ns == pytest.approx(27.2, rel=0.1)


class TestPipelineConfig:
    def test_defaults_round_trip(self):
        config = PipelineConfig()
        again = PipelineConfig.from_dict(config.to_dict())
        assert again == config

    def test_readme_config_is_the_default(self):
        text = README.read_text().split("A full config file with the defaults:", 1)[1]
        block = json.loads(text.split("```json", 1)[1].split("```", 1)[0])
        assert PipelineConfig.from_dict(block) == PipelineConfig()
        assert PipelineConfig().to_dict() == block

    def test_unknown_keys_rejected(self):
        from biphoton import ConfigError

        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"bogus": 1})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"sim": {"bogus": 1}})

    def test_module_invariants_checked_on_load(self):
        from biphoton import ConfigError

        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"model": {"corr_time_ns": -5.0}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"gamma": -1.0})

    @pytest.mark.parametrize(
        "obj", [{"seed": "abc"}, {"gamma": [1]}, {"sim": {"duration_s": {}}}, {"seed": 1e400}]
    )
    def test_uncoercible_values_rejected(self, obj):
        from biphoton import ConfigError

        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(obj)

    @pytest.mark.parametrize("obj", [
        {"seed": 4.7},
        {"seed": 4.0},
        {"seed": True},
        {"gamma": True},
        {"sim": {"duration_s": True}},
        {"fit": {"fix_corr_time_ns": True}},
    ])
    def test_bool_for_a_number_or_float_for_seed_rejected(self, obj):
        from biphoton import ConfigError

        with pytest.raises(ConfigError, match="must be"):
            PipelineConfig.from_dict(obj)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(obj=config_dicts())
    @example(obj={"model": {"phase_rad": math.nan}})
    @example(obj={"sim": {"jitter_sigma_ps": math.inf}})
    def test_any_json_dict_loads_or_raises_config_error(self, obj):
        from biphoton import ConfigError

        try:
            config = PipelineConfig.from_dict(obj)
        except ConfigError:
            return
        assert isinstance(config, PipelineConfig)
        for section, key, field in FLOAT_KEYS:
            value = getattr({"model": config.model, "sim": config.sim}.get(section, config), field)
            assert value is None or math.isfinite(value), key


class TestPipeline:
    def test_full_run_recovers_ground_truth(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 0
        for name in (
            MANIFEST_NAME,
            "tags_phi0_A.bttg",
            "tags_phi2_B.bttg",
            "hist_phi0.json",
            "hist_phi1.json",
            "hist_phi2.json",
            "reconstruction.json",
            "fits.json",
        ):
            assert (out / name).exists(), name
        fits = bio.read_json(out / "fits.json")
        env = fits["fits"]["envelope"]
        ph = fits["fits"]["phase"]
        assert env["converged"] is True
        assert env["params"]["fwhm"] == pytest.approx(math.log(2) * 39.3e-9, rel=0.25)
        assert abs(ph["params"]["phase"] - 0.9) < 4.0 * ph["sigmas"]["phase"]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"]
    )
    def test_output_files_follow_the_umask(self, tmp_path, umask, mode):
        # Every file of a run is created as open() would create it: mode
        # 0o666 less the umask.  A subprocess keeps the umask out of this
        # test session.
        config = write_config(tmp_path, {"sim.duration_s": 0.5})
        out = tmp_path / "run"
        done = run_cli(["pipeline", "--config", config, "--output-dir", str(out)], umask=umask)
        assert done.returncode == 0, done.stderr
        names = sorted(os.listdir(out))
        expected = [f"tags_phi{k}_{ch}.bttg" for k in range(3) for ch in "AB"]
        expected += [f"hist_phi{k}.json" for k in range(3)]
        expected += ["reconstruction.json", "fits.json", MANIFEST_NAME]
        assert names == sorted(expected)
        for name in names:
            assert (out / name).stat().st_mode & 0o777 == mode, name

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sim.duration_s": 2.0},
            {"sim.pair_rate_hz": 2e5, "sim.singles_rate_a_hz": 1e5, "sim.singles_rate_b_hz": 1e5,
             "sim.duration_s": 0.5, "correlate.bin_width_ns": 0.02, "correlate.tau_max_ns": 100.0},
        ],
        ids=["4ns", "0.02ns"],
    )
    def test_pipeline_fits_match_the_fit_command(self, tmp_path, overrides):
        # pipeline fits the reconstruction it holds; fit reads it back
        # from reconstruction.json.  The JSON round trip is exact.
        config = write_config(tmp_path, overrides)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 0
        refit = tmp_path / "fits.json"
        assert main(["fit", "--config", config, "--recon", str(out / "reconstruction.json"),
                     "--output", str(refit)]) == 0
        assert refit.read_bytes() == (out / "fits.json").read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sim.duration_s": 2.0},
            {"sim.pair_rate_hz": 2e5, "sim.singles_rate_a_hz": 1e5, "sim.singles_rate_b_hz": 1e5,
             "sim.duration_s": 0.5, "correlate.bin_width_ns": 0.02, "correlate.tau_max_ns": 100.0},
        ],
        ids=["4ns", "0.02ns"],
    )
    def test_pipeline_reconstructs_the_histograms_it_holds(self, tmp_path, monkeypatch,
                                                          overrides):
        # pipeline reconstructs the histograms that correlate returned,
        # without reading hist_phi*.json back; reconstruct --input-dir
        # reads them.  The JSON round trip is exact.
        config = write_config(tmp_path, overrides)
        out = tmp_path / "run"
        def read_back(obj):
            raise AssertionError("pipeline read a histogram file back")

        with monkeypatch.context() as m:
            m.setattr(bio, "histogram_from_dict", read_back)
            assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 0
        redo = tmp_path / "reconstruction.json"
        assert main(["reconstruct", "--config", config, "--input-dir", str(out),
                     "--output", str(redo)]) == 0
        assert redo.read_bytes() == (out / "reconstruction.json").read_bytes()

    def test_rerun_from_intermediates_matches(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 0
        redo = tmp_path / "recon2.json"
        code = main(
            [
                "reconstruct",
                "--config",
                config,
                "--hist0",
                str(out / "hist_phi0.json"),
                "--hist1",
                str(out / "hist_phi1.json"),
                "--hist2",
                str(out / "hist_phi2.json"),
                "--output",
                str(redo),
            ]
        )
        assert code == 0
        assert redo.read_bytes() == (out / "reconstruction.json").read_bytes()

    def test_simulate_is_deterministic(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", config, "--output-dir", str(out1)]) == 0
        assert main(["simulate", "--config", config, "--output-dir", str(out2)]) == 0
        for k in range(3):
            for ch in "AB":
                name = f"tags_phi{k}_{ch}.bttg"
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        config = write_config(tmp_path)
        out1 = tmp_path / "r1"
        assert main(["simulate", "--config", config, "--output-dir", str(out1)]) == 0
        manifest = bio.read_json(out1 / MANIFEST_NAME)
        # a config file holding only the manifest's embedded config must
        # reproduce the tag files byte for byte
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg2), "--output-dir", str(out2)]) == 0
        for k in range(3):
            name = f"tags_phi{k}_A.bttg"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_single_setting_simulation(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "one"
        assert main(
            ["simulate", "--config", config, "--output-dir", str(out), "--phi-setting", "1"]
        ) == 0
        assert (out / "tags_phi1_A.bttg").exists()
        assert not (out / "tags_phi0_A.bttg").exists()
        manifest = bio.read_json(out / MANIFEST_NAME)
        assert [e["index"] for e in manifest["settings"]] == [1]

    def test_zero_rate_run_writes_valid_empty_files(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sim.pair_rate_hz": 0.0,
                "sim.singles_rate_a_hz": 0.0,
                "sim.singles_rate_b_hz": 0.0,
            },
        )
        out = tmp_path / "empty"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        for k in range(3):
            for ch in "AB":
                path = out / f"tags_phi{k}_{ch}.bttg"
                assert path.stat().st_size == 16
                assert path.read_bytes()[:4] == b"BTTG"

    def test_accidentals_only_reconstructs_to_zero(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sim.pair_rate_hz": 0.0,
                "sim.singles_rate_a_hz": 60_000.0,
                "sim.singles_rate_b_hz": 60_000.0,
                "sim.duration_s": 5.0,
                "reconstruct.gamma_mode": "per_bin",
            },
        )
        out = tmp_path / "acc"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        assert main(["correlate", "--config", config, "--input-dir", str(out)]) == 0
        code = main(
            ["reconstruct", "--config", config, "--input-dir", str(out)]
        )
        assert code == 0
        recon = bio.recon_from_dict(bio.read_json(out / "reconstruction.json"))
        ok = recon.valid & np.isfinite(recon.sigma_re) & (recon.sigma_re > 0)
        pulls = np.concatenate(
            [recon.re_psi[ok] / recon.sigma_re[ok], recon.im_psi[ok] / recon.sigma_im[ok]]
        )
        # no signal: psi consistent with zero everywhere
        assert np.mean(np.abs(pulls) < 4.0) > 0.95
        assert abs(np.mean(pulls)) < 0.4


class TestStreamingSimulate:
    # 0.5 s at 4e5 clicks per channel and second: about three segments of
    # generation per setting.
    DENSE = {
        "sim.pair_rate_hz": 2e5,
        "sim.singles_rate_a_hz": 2e5,
        "sim.singles_rate_b_hz": 2e5,
        "sim.duration_s": 0.5,
        "sim.dead_time_ns": 20.0,
        "sim.jitter_sigma_ps": 50.0,
    }

    def test_tags_do_not_depend_on_threads(self, tmp_path):
        # Three settings on three threads, or one setting alone: the same
        # tag files and manifest entry; a repeat gives the same manifest.
        config = write_config(tmp_path, self.DENSE)
        full, again = tmp_path / "full", tmp_path / "again"
        assert main(["simulate", "--config", config, "--output-dir", str(full)]) == 0
        assert main(["simulate", "--config", config, "--output-dir", str(again)]) == 0
        assert (full / MANIFEST_NAME).read_bytes() == (again / MANIFEST_NAME).read_bytes()
        manifest = bio.read_json(full / MANIFEST_NAME)
        for k in range(3):
            one = tmp_path / f"one{k}"
            args = ["simulate", "--config", config, "--output-dir", str(one), "--phi-setting", str(k)]
            assert main(args) == 0
            for ch in "AB":
                name = f"tags_phi{k}_{ch}.bttg"
                assert (one / name).read_bytes() == (full / name).read_bytes()
            assert bio.read_json(one / MANIFEST_NAME)["settings"] == [manifest["settings"][k]]
        entry = manifest["settings"][0]
        size = (full / entry["tags_a"]).stat().st_size
        assert entry["n_tags_a"] > 50_000 and size == 16 + 9 * entry["n_tags_a"]

    def test_pipeline_does_not_depend_on_simulate_threads(self, tmp_path, monkeypatch):
        # The settings simulated one after another on one thread, or at
        # once on three, each drawing into buffers of its own: the same
        # bytes in every file of the run.
        import biphoton.cli as cli

        config = write_config(tmp_path, {**self.DENSE, "sim.duration_s": 0.2})
        files = {}
        for threads in (1, 3):
            monkeypatch.setattr(cli, "_SIMULATE_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 0
            files[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(files[1]) == 12  # manifest, 6 tag files, 3 histograms, reconstruction, fits
        assert files[1] == files[3]

    def test_over_budget_is_one_before_any_tag_file(self, tmp_path):
        config = write_config(tmp_path, {"sim.pair_rate_hz": 1e8})
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_over_budget_is_one_before_any_file(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sim": {"duration_s": 1e5, "pair_rate_hz": 1e6}}))
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "memory budget" in err
        assert not out.exists()

    def test_perfbench_tracer_installs(self):
        # perfbench/child.py wraps cli, simulate, io and stage functions by
        # attribute name; a missing name fails every traced run at install.
        # A subprocess keeps the wrappers out of this test session.
        root = README.parent
        code = (
            "import sys; sys.path.insert(0, 'perfbench'); import child; "
            "child.install(child.Tracer(0))"
        )
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr


class TestReadOnlyStages:
    @staticmethod
    def simulate(tmp_path):
        config = write_config(tmp_path, {"sim.duration_s": 0.5})
        run_dir = tmp_path / "run"
        assert main(["simulate", "--config", config, "--output-dir", str(run_dir)]) == 0
        return config, run_dir

    def test_no_rng_or_crypto_modules_are_loaded(self, tmp_path):
        # Only simulate draws numbers, and nothing needs a cryptographic
        # hash, so correlate, reconstruct and fit load neither
        # numpy.random nor secrets and the libcrypto behind _hashlib.
        config, run_dir = self.simulate(tmp_path)
        code = (
            "import sys\n"
            "from biphoton.cli import main\n"
            "config, run = sys.argv[1:]\n"
            "for args in (['correlate', '--input-dir', run],\n"
            "             ['reconstruct', '--input-dir', run],\n"
            "             ['fit', '--recon', run + '/reconstruction.json',\n"
            "              '--output', run + '/fits.json']):\n"
            "    assert main([*args, '--config', config]) == 0, args\n"
            "    loaded = [m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules]\n"
            "    assert not loaded, (args[0], loaded)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
        done = subprocess.run([sys.executable, "-c", code, config, str(run_dir)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "correlate", "reconstruct", "fit", "pipeline"])
    def test_negative_seed_is_one_before_any_file(self, tmp_path, capsys, command, source):
        if source == "flag":
            args = ["--config", write_config(tmp_path), "--seed", "-1"]
        else:
            args = ["--config", write_config(tmp_path, {"seed": -1})]
        out = tmp_path / "o"
        args += {
            "simulate": ["--output-dir", str(out)],
            "pipeline": ["--output-dir", str(out)],
            "correlate": ["--input-dir", str(out)],
            "reconstruct": ["--input-dir", str(out)],
            "fit": ["--recon", str(out / "recon.json"), "--output", str(out / "fits.json")],
        }[command]
        assert main([command, *args]) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_seed_is_checked_without_a_seed_sequence(self, seed):
        from biphoton import ConfigError

        with pytest.raises(ConfigError):
            PipelineConfig(seed=seed)

    def test_correlate_does_not_depend_on_threads(self, tmp_path, monkeypatch, capsys):
        import biphoton.cli as cli

        config, run_dir = self.simulate(tmp_path)
        hists = {}
        for threads in (1, 3):
            monkeypatch.setattr(cli, "_CORRELATE_THREADS", threads)
            assert main(["correlate", "--config", config, "--input-dir", str(run_dir)]) == 0
            hists[threads] = [(run_dir / f"hist_phi{k}.json").read_bytes() for k in range(3)]
            for k in range(3):
                (run_dir / f"hist_phi{k}.json").unlink()
        assert hists[1] == hists[3]

        capsys.readouterr()
        path = run_dir / "tags_phi2_B.bttg"
        path.write_bytes(path.read_bytes()[:-3])
        errors = {}
        for threads in (1, 3):
            monkeypatch.setattr(cli, "_CORRELATE_THREADS", threads)
            assert main(["correlate", "--config", config, "--input-dir", str(run_dir)]) == 2
            errors[threads] = capsys.readouterr().err
        assert errors[1] == errors[3]
        assert "tags_phi2_B.bttg: truncated record" in errors[1]


class TestUsableCpus:
    def test_counts_the_affinity_mask(self, monkeypatch):
        import biphoton.cli as cli

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._usable_cpus() == 2

    def test_without_affinity_counts_every_cpu(self, monkeypatch):
        import biphoton.cli as cli

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1


class TestCorrelateCommand:
    def test_direct_file_mode(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        hist_path = tmp_path / "hist.json"
        code = main(
            [
                "correlate",
                "--tags-a",
                str(out / "tags_phi0_A.bttg"),
                "--tags-b",
                str(out / "tags_phi0_B.bttg"),
                "--duration-s",
                "6.0",
                "--phi-rad",
                "0.0",
                "--output",
                str(hist_path),
                "--bin-width-ns",
                "8",
                "--tau-max-ns",
                "160",
            ]
        )
        assert code == 0
        hist = bio.histogram_from_dict(bio.read_json(hist_path))
        assert hist.bin_width_ps == 8000
        assert hist.n_bins == 40

    def test_flags_override_config(self, tmp_path):
        config = write_config(tmp_path, {"correlate.bin_width_ns": 8.0})
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        assert main(
            [
                "correlate",
                "--config",
                config,
                "--input-dir",
                str(out),
                "--bin-width-ns",
                "2",
            ]
        ) == 0
        hist = bio.histogram_from_dict(bio.read_json(out / "hist_phi0.json"))
        assert hist.bin_width_ps == 2000

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_phi_is_one_before_any_file(self, tiny_run, tmp_path, phi):
        run_dir, _ = tiny_run
        out = tmp_path / "hist.json"
        done = run_cli(["correlate", "--tags-a", str(run_dir / "tags_phi0_A.bttg"),
                        "--tags-b", str(run_dir / "tags_phi0_B.bttg"), "--duration-s", "0.05",
                        "--phi-rad", phi, "--output", str(out)])
        assert done.returncode == 1
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
        assert not out.exists()

    def test_negative_zero_phi_is_written_as_zero(self, tiny_run, tmp_path):
        run_dir, _ = tiny_run
        out = tmp_path / "hist.json"
        assert main(["correlate", "--tags-a", str(run_dir / "tags_phi0_A.bttg"),
                     "--tags-b", str(run_dir / "tags_phi0_B.bttg"), "--duration-s", "0.05",
                     "--phi-rad", "-0", "--output", str(out)]) == 0
        assert '"phi_rad": 0\n' in out.read_text()

    def test_zero_duration_meets_the_duration_rule(self, tiny_run, tmp_path, capsys):
        # A flag given as 0 is given: the duration rule refuses it, not
        # the message for a missing flag.
        run_dir, _ = tiny_run
        out = tmp_path / "hist.json"
        assert main(["correlate", "--tags-a", str(run_dir / "tags_phi0_A.bttg"),
                     "--tags-b", str(run_dir / "tags_phi0_B.bttg"), "--duration-s", "0",
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: duration must be > 0, got 0.0\n"
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["simulate"]) == 1  # missing --output-dir
        assert main(["bogus-command"]) == 1
        assert main(["fit", "--recon", "x"]) == 1  # missing --output

    def test_bad_config_is_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"unknown_key": 1}))
        assert main(["simulate", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == 1

    def test_malformed_tags_is_two(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        path = out / "tags_phi0_A.bttg"
        path.write_bytes(path.read_bytes()[:-3])
        assert main(["correlate", "--config", config, "--input-dir", str(out)]) == 2

    def test_mismatched_binning_is_two(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 0
        # rebuild one histogram at a different bin width
        assert main(
            [
                "correlate",
                "--tags-a",
                str(out / "tags_phi0_A.bttg"),
                "--tags-b",
                str(out / "tags_phi0_B.bttg"),
                "--duration-s",
                "6.0",
                "--phi-rad",
                "0.0",
                "--bin-width-ns",
                "8",
                "--output",
                str(out / "hist_phi0.json"),
            ]
        ) == 0
        assert main(["reconstruct", "--config", config, "--input-dir", str(out)]) == 2

    def test_setting_less_histograms_are_two_before_any_file(self, tiny_run, tmp_path, capsys):
        # Correlated without --phi-rad, a histogram carries no setting, so
        # nothing shows the phase it was taken at: a phase triple of such
        # histograms, in any order, is refused.
        run_dir, _ = tiny_run
        paths = []
        for k in range(3):
            paths.append(str(tmp_path / f"hist_phi{k}.json"))
            assert main(["correlate", "--tags-a", str(run_dir / f"tags_phi{k}_A.bttg"),
                         "--tags-b", str(run_dir / f"tags_phi{k}_B.bttg"),
                         "--duration-s", "0.05", "--output", paths[-1]]) == 0
        capsys.readouterr()
        out = tmp_path / "reconstruction.json"
        for hists in (paths, paths[1:] + paths[:1]):
            args = ["reconstruct", "--hist0", hists[0], "--hist1", hists[1], "--hist2", hists[2]]
            assert main([*args, "--output", str(out)]) == 2
            assert capsys.readouterr().err == (
                "data error: phase-triple histogram y0 carries no analyzer setting\n")
            assert not out.exists()

    def test_numerical_failure_is_three(self, tmp_path):
        # all-zero-signal histograms with nonzero counts in y0 only make
        # every bin fail the radicand check
        out = tmp_path
        for k in range(3):
            hist = phase_histogram(np.full(20, 50 if k == 0 else 0), 1.0, 1000, k)
            bio.write_json(out / f"hist_phi{k}.json", bio.histogram_to_dict(hist))
        assert main(["reconstruct", "--input-dir", str(out)]) == 3

    @pytest.mark.parametrize("key, value", [
        ("bin_width_ps", 10**30),
        ("bin_width_ps", 2**62),  # over 4 bins, int64 centres would wrap
        ("tau_min_ps", -10**30),
    ])
    def test_histogram_bins_beyond_2_62_ps_are_two(self, tmp_path, capsys, key, value):
        for k in range(3):
            doc = bio.histogram_to_dict(phase_histogram([30, 50, 40, 20], 1.0, 1000, k))
            doc[key] = value
            bio.write_json(tmp_path / f"hist_phi{k}.json", doc)
        assert main(["reconstruct", "--input-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and "2**62" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("settings", MISSING, id="settings-missing"),
            pytest.param("settings", [], id="settings-empty"),
            pytest.param("format", MISSING, id="format-missing"),
            pytest.param("format", "coincidence-histogram/1", id="format-histogram"),
            pytest.param("tags_a", MISSING, id="tags_a-missing"),
            pytest.param("duration_s", "abc", id="duration_s-str"),
            pytest.param("theta_rad", "x", id="theta_rad-str"),
            pytest.param("tags_a", 5, id="tags_a-int"),
            pytest.param("exposure_s", "q", id="exposure_s-str"),
            pytest.param("index", [1], id="index-list"),
            pytest.param("index", 3, id="index-3"),
            pytest.param("index", True, id="index-bool"),
            # Setting 1 takes setting 0's index: two entries for one histogram.
            pytest.param("index", 0, id="index-duplicate"),
            pytest.param("phi_rad", 4.0, id="phi_rad-out-of-range"),
            pytest.param("duration_s", -1.0, id="duration_s-negative"),
            pytest.param("duration_s", 5e6, id="duration_s-above-2**62-ps"),
            pytest.param("exposure_s", 60.0, id="exposure_s-above-duration"),
            # Both name setting 1's own tag file, which exists.
            pytest.param("tags_a", "../run/tags_phi1_A.bttg", id="tags_a-relative-path"),
            pytest.param("tags_a", lambda out: str(out / "tags_phi1_A.bttg"),
                         id="tags_a-absolute-path"),
        ],
    )
    def test_malformed_manifest_is_two(self, tmp_path, key, value):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        target = manifest if key in ("settings", "format") else manifest["settings"][1]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value(out) if callable(value) else value
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert main(["correlate", "--config", config, "--input-dir", str(out)]) == 2
        assert not list(out.glob("hist_*"))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(edit=st.data())
    def test_any_manifest_entry_correlates_or_exits_two(self, tiny_run, edit):
        run_dir, manifest = tiny_run
        entry = dict(manifest["settings"][0])
        keys = sorted(entry)
        names = sorted(p.name for p in run_dir.iterdir())
        values = JSON_VALUES | st.integers(-1, 3) | st.floats(-1.0, 2.0) | st.sampled_from(names)
        entry.update(edit.draw(st.fixed_dictionaries({}, optional={k: values for k in keys})))
        for key in edit.draw(st.lists(st.sampled_from(keys), max_size=2)):
            entry.pop(key, None)
        edited = {**manifest, "settings": [entry, *manifest["settings"][1:]]}
        (run_dir / MANIFEST_NAME).write_text(json.dumps(edited))
        before = set(run_dir.iterdir())
        try:
            assert main(["correlate", "--input-dir", str(run_dir)]) in (0, 2)
            new = {p.name for p in set(run_dir.iterdir()) - before}
            assert new <= {f"hist_phi{k}.json" for k in range(3)}
        finally:
            for path in set(run_dir.iterdir()) - before:
                path.unlink()

    def test_duration_above_2_62_ps_is_one_before_any_file(self, tmp_path):
        # 60 days, at a pair rate low enough to pass the tag budget.
        config = write_config(tmp_path, {
            "sim.duration_s": 60 * 86400.0,
            "sim.pair_rate_hz": 1e-6,
            "sim.singles_rate_a_hz": 0.0,
            "sim.singles_rate_b_hz": 0.0,
        })
        out = tmp_path / "o"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("key", [key if section is None else f"{section}.{key}"
                                     for section, key, _ in FLOAT_KEYS])
    def test_non_finite_value_is_one_before_any_file(self, tmp_path, capsys, key, value):
        # json writes Infinity and NaN, which json loads as floats.  The
        # message names the config key and its value as written.
        config = write_config(tmp_path, {key: value})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} = {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("model.amplitude", 1e160), ("model.amplitude", 1e300), ("gamma", 1e300)],
    )
    def test_overflowing_density_is_one_before_any_file(self, tmp_path, capsys, key, value):
        # Finite, but the pair-delay density gamma^2 + |psi|^2 overflows.
        config = write_config(tmp_path, {key: value, "sim.duration_s": 0.05})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too large" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sim.jitter_sigma_ps", "sim.tau_window_ns",
                                     "sim.dead_time_ns"])
    def test_click_spill_above_2_62_ps_is_one_before_any_file(self, tmp_path, capsys, key):
        # Finite, but a click, or the dead-time state before the first
        # click, could lie beyond the int64 timestamp range.
        config = write_config(tmp_path, {key: 1e300, "sim.duration_s": 0.05})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("fit.phase_threshold", 1.5, "weight_threshold must lie in [0, 1), got 1.5",
                     id="phase_threshold-1.5"),
        pytest.param("fit.phase_threshold", -0.1, "weight_threshold must lie in [0, 1), got -0.1",
                     id="phase_threshold--0.1"),
        pytest.param("fit.fix_corr_time_ns", 0, "fix_corr_time must be None or finite and > 0, "
                     "got 0.0", id="fix_corr_time_ns-0"),
        # The value in seconds: -3 ns is -3.0000000000000004e-09 s.
        pytest.param("fit.fix_corr_time_ns", -3, "fix_corr_time must be None or finite and > 0, "
                     "got -3.0", id="fix_corr_time_ns--3"),
        pytest.param("reconstruct.wing_fraction", 0, "wing_fraction must be in (0, 0.4], got 0.0",
                     id="wing_fraction-0"),
        pytest.param("reconstruct.wing_fraction", 0.5, "wing_fraction must be in (0, 0.4], got 0.5",
                     id="wing_fraction-0.5"),
    ])
    def test_out_of_range_stage_option_is_one_before_any_file(self, tmp_path, capsys, key, value,
                                                              message):
        # The value is refused at load, by the rule of the stage that uses
        # it, not by that stage after the tags and histograms are written.
        # The message leads with the config key and its value as written.
        config = write_config(tmp_path, {key: value, "reconstruct.background_mode": "wing_subtract"})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", config, "--output-dir", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = {float(value)!r}: ") and message in err

    @pytest.mark.parametrize("flag", ["--background-mode", "--gamma-mode"])
    def test_unknown_mode_flag_is_one_before_any_file(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert main(["pipeline", flag, "foo", "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'foo'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["background_mode", "gamma_mode"])
    def test_fit_of_a_reconstruction_with_an_unknown_mode_is_two(self, tmp_path, capsys, key):
        from biphoton import TpwfModel, reconstruct_values, tpwf_eval

        tau = np.linspace(-100e-9, 100e-9, 41)
        psi = tpwf_eval(TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4), tau)
        y = forward_triple(1.2, psi)
        doc = bio.recon_to_dict(reconstruct_values(tau, *y, *(np.rint(1e4 * v) for v in y)))
        recon, fits = tmp_path / "reconstruction.json", tmp_path / "fits.json"
        bio.write_json(recon, doc)
        assert main(["fit", "--recon", str(recon), "--output", str(fits)]) == 0
        fits.unlink()
        bio.write_json(recon, {**doc, key: "foo"})
        assert main(["fit", "--recon", str(recon), "--output", str(fits)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and f"unknown {key} 'foo'" in err
        assert not fits.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("gamma", -1.0, "gamma must be >= 0 on valid bins", id="gamma-negative"),
            pytest.param("tau_s", math.nan, "tau must be finite", id="tau_s-nan"),
            pytest.param("tau_s", math.inf, "tau must be finite", id="tau_s-inf"),
            pytest.param("sigma_re", -0.1, "must not be negative", id="sigma_re-negative"),
            pytest.param("re_psi", math.nan, "finite on valid bins", id="re_psi-nan"),
        ],
    )
    def test_fit_of_a_reconstruction_that_breaks_its_rules_is_two(self, tmp_path, capsys, key,
                                                                  value, message):
        # One entry of a valid bin edited; invalid bins carry NaNs anyway.
        from biphoton import TpwfModel, reconstruct_values, tpwf_eval

        tau = np.linspace(-100e-9, 100e-9, 41)
        psi = tpwf_eval(TpwfModel(amplitude=0.8, corr_time=30e-9, phase=0.4), tau)
        y = forward_triple(1.2, psi)
        doc = bio.recon_to_dict(reconstruct_values(tau, *y, *(np.rint(1e4 * v) for v in y)))
        edited = doc[key].copy()
        edited[np.flatnonzero(doc["valid"])[0]] = value
        recon, fits = tmp_path / "reconstruction.json", tmp_path / "fits.json"
        bio.write_json(recon, {**doc, key: edited})
        assert main(["fit", "--recon", str(recon), "--output", str(fits)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and message in err
        assert not fits.exists()

    def test_zero_gamma_is_one(self, tmp_path):
        config = write_config(tmp_path, {"gamma": 0})
        assert main(["pipeline", "--config", config, "--output-dir", str(tmp_path / "o")]) == 1

    def test_histogram_counts_beyond_the_singles_product_are_two(self, tmp_path, capsys):
        # 3 * 2**62 summed in int64 reads -2**62, below 10 * 10.
        for k in range(3):
            hist = phase_histogram([3, 5, 4], 1.0, 10, k, tau_min_ps=-6000)
            doc = bio.histogram_to_dict(hist)
            doc["counts"] = [2**62] * 3
            bio.write_json(tmp_path / f"hist_phi{k}.json", doc)
        assert main(["reconstruct", "--input-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and "exceed singles_a * singles_b" in err
        assert not (tmp_path / "reconstruction.json").exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"counts": [30, 2**63, 40, 20]}, "counts must be", id="counts"),
        pytest.param({"singles_a": 2**63}, "singles_a must be", id="singles-2**63"),
        # This one ended in an OverflowError traceback from the g2 scale.
        pytest.param({"singles_a": 10**400, "singles_b": 10**400}, "singles_a must be",
                     id="singles-10**400"),
    ])
    def test_histogram_integers_beyond_int64_are_two(self, tmp_path, capsys, edit, message):
        for k in range(3):
            doc = bio.histogram_to_dict(phase_histogram([30, 50, 40, 20], 1.0, 1000, k))
            bio.write_json(tmp_path / f"hist_phi{k}.json", {**doc, **edit})
        assert main(["reconstruct", "--input-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error") and message in err and "Traceback" not in err
        assert not (tmp_path / "reconstruction.json").exists()

    def test_output_in_a_missing_directory_names_the_target(self, tmp_path, capsys):
        # The document goes to a temp file beside the target first; the
        # message names the target, not that file, whether the temp file
        # cannot be made (a missing directory) or not renamed (onto an
        # existing directory).
        for k in range(3):
            hist = phase_histogram([30, 50, 40, 20], 1.0, 1000, k)
            bio.write_json(tmp_path / f"hist_phi{k}.json", bio.histogram_to_dict(hist))
        existing = tmp_path / "isdir" / "r.json"
        existing.mkdir(parents=True)
        for target in (tmp_path / "no" / "such" / "r.json", existing):
            assert main(["reconstruct", "--input-dir", str(tmp_path), "--output", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("i/o error") and str(target) in err and ".tmp-" not in err
        assert os.listdir(existing) == [] and os.listdir(existing.parent) == ["r.json"]

    @pytest.mark.parametrize(
        "command, bin_width_ns",
        [("pipeline", "3"), ("simulate", "0"), ("simulate", "0.0001")],
    )
    def test_bad_binning_is_one_before_any_file(self, tmp_path, command, bin_width_ns):
        config = write_config(tmp_path)  # tau_max_ns 200
        out = tmp_path / "o"
        args = [command, "--config", config, "--output-dir", str(out), "--bin-width-ns", bin_width_ns]
        assert main(args) == 1
        assert not out.exists()

    def test_degenerate_fit_is_three_after_writing_fits(self, tmp_path):
        # The default config cut to 0.5 s at 2 ns bins, pooled: the
        # envelope fit ends at a 0.22 ns FWHM, below one bin, on a flat
        # direction of its normal matrix, which has no covariance.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sim": {"duration_s": 0.5}, "reconstruct": {"gamma_mode": "pooled"}}))
        config = str(config)
        out = tmp_path / "o"
        args = ["pipeline", "--config", config, "--seed", "7", "--bin-width-ns", "2"]
        assert main([*args, "--output-dir", str(out)]) == 3
        envelope = json.loads((out / "fits.json").read_text())["fits"]["envelope"]
        assert envelope["converged"] is False
        assert envelope["message"].startswith("singular covariance at optimum")
        assert envelope["params"]["fwhm"] < 2e-9
        assert math.isnan(envelope["sigmas"]["fwhm"])

    def test_non_utf8_document_is_two(self, tmp_path):
        recon = tmp_path / "recon.json"
        recon.write_bytes(b'{"format": "\xff\xfe"}')
        assert main(["fit", "--recon", str(recon), "--output", str(tmp_path / "fit.json")]) == 2

    def test_non_object_document_is_two(self, tmp_path):
        recon = tmp_path / "recon.json"
        recon.write_text("[1, 2]")
        assert main(["fit", "--recon", str(recon), "--output", str(tmp_path / "fit.json")]) == 2
        for k in range(3):
            (tmp_path / f"hist_phi{k}.json").write_text("[1, 2]")
        assert main(["reconstruct", "--input-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, names, text, code",
        [
            ("correlate", ["config.json"], "[" * 200_000, 1),
            ("correlate", ["config.json"], "{bad", 1),
            ("correlate", [MANIFEST_NAME], "[" * 200_000, 2),
            ("reconstruct", [f"hist_phi{k}.json" for k in range(3)], "[" * 200_000, 2),
            ("fit", ["reconstruction.json"], '{"a": ' * 100_000 + "1" + "}" * 100_000, 2),
            # Past the interpreter's limit of 4300 digits for int().
            ("simulate", ["config.json"], '{"seed": ' + "1" * 5000 + "}", 1),
            ("reconstruct", [f"hist_phi{k}.json" for k in range(3)],
             '{"singles_a": ' + "1" * 5000 + "}", 2),
        ],
        ids=["deep-config", "unparseable-config", "deep-manifest", "deep-histogram",
             "deep-reconstruction", "long-integer-config", "long-integer-histogram"],
    )
    def test_deep_or_unparseable_json_exits_without_a_traceback(self, tmp_path, command, names,
                                                               text, code):
        for name in names:
            (tmp_path / name).write_text(text)
        args = {
            "simulate": ["--output-dir", str(tmp_path / "out")],
            "correlate": ["--input-dir", str(tmp_path)],
            "reconstruct": ["--input-dir", str(tmp_path)],
            "fit": ["--recon", str(tmp_path / "reconstruction.json"),
                    "--output", str(tmp_path / "fits.json")],
        }[command]
        if names == ["config.json"]:
            args += ["--config", str(tmp_path / "config.json")]
        done = run_cli([command, *args])
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: config file:" if code == 1 else "data error")

    @pytest.mark.parametrize("command", ["correlate", "fit"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_missing_or_directory_config_is_one(self, tiny_run, tmp_path, command, kind):
        # Reading a config file that is not there, or is a directory,
        # is a configuration error, like a config that cannot be parsed.
        run_dir, _ = tiny_run
        config = tmp_path / ("nowhere.json" if kind == "missing" else "somedir")
        if kind == "directory":
            config.mkdir()
        out = tmp_path / "out"
        args = {
            "correlate": ["--input-dir", str(run_dir)],
            "fit": ["--recon", str(tmp_path / "x.json"), "--output", str(out / "fits.json")],
        }[command]
        before = sorted(os.listdir(run_dir))
        done = run_cli([command, "--config", str(config), *args])
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: config file:")
        assert "Traceback" not in done.stderr
        assert sorted(os.listdir(run_dir)) == before
        assert not out.exists()

    def test_too_many_bins_is_one_before_any_file(self, tiny_run):
        # 1 ps bins over +-10 ms are 2e10 bins: refused at load, not in
        # allocating their counts.
        run_dir, _ = tiny_run
        before = sorted(os.listdir(run_dir))
        done = run_cli(["correlate", "--input-dir", str(run_dir),
                        "--bin-width-ns", "0.001", "--tau-max-ns", "1e7"])
        assert done.returncode == 1
        assert done.stderr == (
            "error: correlate.bin_width_ns = 0.001, correlate.tau_max_ns = 10000000.0: "
            "bin_width and tau_max give 20000000000 bins, more than the 1048576 allowed\n")
        assert sorted(os.listdir(run_dir)) == before

    def test_missing_file_is_two(self, tmp_path):
        assert main(["correlate", "--input-dir", str(tmp_path / "nowhere")]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out
