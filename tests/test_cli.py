"""Command-line contracts: pipeline composition, reproducibility from the
manifest, flag/config precedence, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import io as bio
from biphoton.cli import MANIFEST_NAME, PipelineConfig, main

README = Path(__file__).resolve().parents[1] / "README.md"

MISSING = object()

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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(obj=config_dicts())
    def test_any_json_dict_loads_or_raises_config_error(self, obj):
        from biphoton import ConfigError

        try:
            config = PipelineConfig.from_dict(obj)
        except ConfigError:
            return
        assert isinstance(config, PipelineConfig)


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

    def test_over_budget_is_one_before_any_tag_file(self, tmp_path):
        config = write_config(tmp_path, {"sim.pair_rate_hz": 1e8})
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 1
        assert not out.exists() or os.listdir(out) == []

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

    def test_numerical_failure_is_three(self, tmp_path):
        # all-zero-signal histograms with nonzero counts in y0 only make
        # every bin fail the radicand check
        from biphoton import CoincidenceHistogram
        from biphoton.model import AnalyzerSetting, RECONSTRUCTION_PHASES

        out = tmp_path
        for k, phi in enumerate(RECONSTRUCTION_PHASES):
            counts = np.full(20, 50 if k == 0 else 0, dtype=np.int64)
            hist = CoincidenceHistogram(
                bin_width_ps=4000,
                tau_min_ps=-40_000,
                counts=counts,
                acquisition_time=1.0,
                singles_a=1000,
                singles_b=1000,
                setting=AnalyzerSetting.balanced(phi),
            )
            bio.write_json(out / f"hist_phi{k}.json", bio.histogram_to_dict(hist))
        assert main(["reconstruct", "--input-dir", str(out)]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("settings", MISSING, id="settings-missing"),
            pytest.param("tags_a", MISSING, id="tags_a-missing"),
            pytest.param("duration_s", "abc", id="duration_s-str"),
            pytest.param("theta_rad", "x", id="theta_rad-str"),
            pytest.param("tags_a", 5, id="tags_a-int"),
            pytest.param("exposure_s", "q", id="exposure_s-str"),
            pytest.param("index", [1], id="index-list"),
            pytest.param("index", 3, id="index-3"),
            pytest.param("index", True, id="index-bool"),
            pytest.param("phi_rad", 4.0, id="phi_rad-out-of-range"),
            pytest.param("duration_s", -1.0, id="duration_s-negative"),
            pytest.param("duration_s", 5e6, id="duration_s-above-2**62-ps"),
            pytest.param("exposure_s", 60.0, id="exposure_s-above-duration"),
        ],
    )
    def test_malformed_manifest_is_two(self, tmp_path, key, value):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", config, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        target = manifest if key == "settings" else manifest["settings"][1]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
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

    def test_zero_gamma_is_one(self, tmp_path):
        config = write_config(tmp_path, {"gamma": 0})
        assert main(["pipeline", "--config", config, "--output-dir", str(tmp_path / "o")]) == 1

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
        # envelope fit ends at a 0.22 ns FWHM.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sim": {"duration_s": 0.5}, "reconstruct": {"gamma_mode": "pooled"}}))
        config = str(config)
        out = tmp_path / "o"
        args = ["pipeline", "--config", config, "--seed", "7", "--bin-width-ns", "2"]
        assert main([*args, "--output-dir", str(out)]) == 3
        envelope = json.loads((out / "fits.json").read_text())["fits"]["envelope"]
        assert envelope["converged"] is False
        assert "below one bin spacing" in envelope["message"]

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

    def test_missing_file_is_two(self, tmp_path):
        assert main(["correlate", "--input-dir", str(tmp_path / "nowhere")]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out
