"""Command-line driver: subcommand behavior, exit codes and stderr format."""

import json
import os

import numpy as np
import pytest

from fgmae import cli
from fgmae import data as D
from fgmae import optim as O

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def sar_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "data")
    D.synthesize_dataset(out, "SAR", n_locations=4, seed=3, looks=1, size=32)
    return out


def _pretrain_config(tmp_path, manifest, **overrides):
    cfg = {
        "model": {"image_size": 32, "patch_size": 8, "in_channels": 2,
                  "enc_width": 32, "enc_depth": 1, "enc_heads": 4,
                  "dec_width": 32, "dec_depth": 1, "dec_heads": 4,
                  "mask_ratio": 0.7},
        "feature": {"variant": "hog", "hog": {"cell_size": 4}},
        "augment": {"scale_min": 0.5, "scale_max": 1.0, "out_size": 32},
        "epochs": 2, "batch_size": 2, "base_lr": 1e-3, "warmup_epochs": 1,
        "seed": 5, "manifest": manifest,
    }
    cfg.update(overrides)
    path = str(tmp_path / "pretrain.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


@pytest.fixture(scope="module")
def demo_checkpoint(tmp_path_factory, sar_dataset):
    """The demo pretrain config (HOG cell size 4) cut to one epoch."""
    raw = json.load(open(os.path.join(DEMOS, "pretrain_config.json")))
    raw.update(epochs=1, warmup_epochs=0,
               manifest=os.path.join(sar_dataset, "manifest.csv"))
    tmp = tmp_path_factory.mktemp("demo")
    cfg = str(tmp / "pretrain.json")
    json.dump(raw, open(cfg, "w"))
    out = str(tmp / "run")
    code = cli.main(["pretrain", "--config", cfg, "--out", out])
    assert code == 0
    return os.path.join(out, "checkpoint")


def _raise_non_finite(*args, **kwargs):
    raise FloatingPointError("non-finite gradient for parameter 'w'")


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code, stdout, _ = run_cli(["synth", "--modality", "SAR", "--out", out,
                                   "--n", "2", "--seed", "1", "--size", "32"],
                                  capsys)
        assert code == 0
        assert "manifest" in stdout
        assert len(D.read_manifest(os.path.join(out, "manifest.csv"))) == 8

    def test_bad_n_exits_config(self, tmp_path, capsys):
        code, _, err = run_cli(["synth", "--modality", "SAR",
                                "--out", str(tmp_path / "x"), "--n", "0"],
                               capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error[config]")

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FGMAE_SEED", "7")
        o1, o2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli(["synth", "--modality", "SAR", "--out", o1, "--n", "1",
                 "--size", "32"], capsys)
        run_cli(["synth", "--modality", "SAR", "--out", o2, "--n", "1",
                 "--seed", "7", "--size", "32"], capsys)
        e1 = D.read_manifest(os.path.join(o1, "manifest.csv"))
        a = D.read_tensor(os.path.join(o1, e1[0].path))
        b = D.read_tensor(os.path.join(o2, e1[0].path))
        np.testing.assert_array_equal(a, b)


class TestExtract:
    def test_ndi_roundtrip(self, tmp_path, capsys):
        img = np.random.default_rng(0).random((13, 16, 16)).astype(np.float32)
        src = str(tmp_path / "in.fgmr")
        dst = str(tmp_path / "out.fgmr")
        D.write_tensor(src, img)
        code, stdout, _ = run_cli(["extract", "--feature", "ndi",
                                   "--in", src, "--out", dst], capsys)
        assert code == 0 and "dims" in stdout
        assert D.read_tensor(dst).shape == (3, 16, 16)

    def test_missing_input_exits_io(self, tmp_path, capsys):
        code, _, err = run_cli(["extract", "--feature", "ndi",
                                "--in", str(tmp_path / "nope.fgmr"),
                                "--out", str(tmp_path / "o.fgmr")], capsys)
        assert code == cli.EXIT_IO
        assert err.startswith("error[io]")

    def test_geometry_error_exit(self, tmp_path, capsys):
        img = np.random.default_rng(1).random((2, 16, 16)).astype(np.float32)
        src = str(tmp_path / "sar.fgmr")
        D.write_tensor(src, img)
        code, _, err = run_cli(["extract", "--feature", "ndi", "--in", src,
                                "--out", str(tmp_path / "o.fgmr")], capsys)
        assert code == cli.EXIT_GEOMETRY
        assert err.startswith("error[feature]")

    def test_bad_band_map(self, tmp_path, capsys):
        img = np.zeros((13, 16, 16), dtype=np.float32)
        src = str(tmp_path / "ms.fgmr")
        D.write_tensor(src, img)
        code, _, err = run_cli(["extract", "--feature", "ndi", "--in", src,
                                "--out", str(tmp_path / "o.fgmr"),
                                "--band-map", "1,2"], capsys)
        assert code == cli.EXIT_CONFIG


class TestPretrain:
    def test_runs_and_reports_digest(self, tmp_path, capsys, sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"))
        code, stdout, _ = run_cli(["pretrain", "--config", cfg,
                                   "--out", str(tmp_path / "run")], capsys)
        assert code == 0
        assert "config_digest=" in stdout and "final step=" in stdout
        assert os.path.exists(tmp_path / "run" / "checkpoint" / "index.json")

    def test_unknown_config_key_rejected(self, tmp_path, capsys, sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"),
                               learning_rate=1.0)  # not a field
        code, _, err = run_cli(["pretrain", "--config", cfg,
                                "--out", str(tmp_path / "run")], capsys)
        assert code == cli.EXIT_CONFIG
        assert "learning_rate" in err

    def test_malformed_json(self, tmp_path, capsys):
        p = str(tmp_path / "broken.json")
        open(p, "w").write("{nope")
        code, _, err = run_cli(["pretrain", "--config", p,
                                "--out", str(tmp_path / "run")], capsys)
        assert code == cli.EXIT_CONFIG

    def test_missing_manifest_key(self, tmp_path, capsys, sar_dataset):
        cfg_path = _pretrain_config(tmp_path,
                                    os.path.join(sar_dataset, "manifest.csv"))
        raw = json.load(open(cfg_path))
        raw.pop("manifest")
        open(cfg_path, "w").write(json.dumps(raw))
        code, _, err = run_cli(["pretrain", "--config", cfg_path,
                                "--out", str(tmp_path / "run")], capsys)
        assert code == cli.EXIT_CONFIG

    def test_flag_overrides_logged(self, tmp_path, capsys, sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"))
        code, stdout, err = run_cli(["pretrain", "--config", cfg,
                                     "--out", str(tmp_path / "run"),
                                     "--seed", "42"], capsys)
        assert code == 0
        assert "flag overrides" in err and "42" in err

    def test_same_config_same_final_loss(self, tmp_path, capsys, sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"))
        _, out1, _ = run_cli(["pretrain", "--config", cfg,
                              "--out", str(tmp_path / "r1")], capsys)
        _, out2, _ = run_cli(["pretrain", "--config", cfg,
                              "--out", str(tmp_path / "r2")], capsys)
        final1 = [l for l in out1.splitlines() if l.startswith("final")]
        final2 = [l for l in out2.splitlines() if l.startswith("final")]
        assert final1 == final2

    def test_divergence_exit_code(self, tmp_path, capsys, sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"),
                               base_lr=1e18, warmup_epochs=0, epochs=30)
        with np.errstate(all="ignore"):
            code, _, err = run_cli(["pretrain", "--config", cfg,
                                    "--out", str(tmp_path / "run")], capsys)
        if code != 0:  # divergence may surface within the step budget
            assert code == cli.EXIT_DIVERGED
            assert err.startswith("error[loss]")


class TestProbeCommand:
    def test_probe_after_pretrain(self, tmp_path, capsys, sar_dataset):
        manifest = os.path.join(sar_dataset, "manifest.csv")
        cfg = _pretrain_config(tmp_path, manifest)
        run_cli(["pretrain", "--config", cfg, "--out", str(tmp_path / "run")],
                capsys)
        probe_cfg = str(tmp_path / "probe.json")
        json.dump({"task": "singlelabel", "epochs": 1, "batch_size": 4,
                   "lr": 0.05}, open(probe_cfg, "w"))
        report_csv = str(tmp_path / "report.csv")
        code, stdout, _ = run_cli(["probe", "--config", probe_cfg,
                                   "--checkpoint",
                                   str(tmp_path / "run" / "checkpoint"),
                                   "--manifest", manifest,
                                   "--out", report_csv], capsys)
        assert code == 0
        assert "OA=" in stdout
        assert open(report_csv).readline() == "metric,value\n"

    def test_bad_checkpoint_exits_io(self, tmp_path, capsys, sar_dataset):
        probe_cfg = str(tmp_path / "probe.json")
        json.dump({"task": "singlelabel"}, open(probe_cfg, "w"))
        code, _, err = run_cli(["probe", "--config", probe_cfg,
                                "--checkpoint", str(tmp_path / "missing"),
                                "--manifest",
                                os.path.join(sar_dataset, "manifest.csv")],
                               capsys)
        assert code == cli.EXIT_IO


class TestMetricsCommand:
    def test_miou_hand_example(self, tmp_path, capsys):
        pred = np.array([[0, 0], [1, 1]], dtype=np.float32)
        label = np.array([[0, 1], [1, 1]], dtype=np.float32)
        pp, lp = str(tmp_path / "p.fgmr"), str(tmp_path / "l.fgmr")
        D.write_tensor(pp, pred)
        D.write_tensor(lp, label)
        code, stdout, _ = run_cli(["metrics", "--task", "miou", "--pred", pp,
                                   "--label", lp, "--n-classes", "2"], capsys)
        assert code == 0
        assert "mIoU=0.583333" in stdout

    def test_singlelabel(self, tmp_path, capsys):
        pp, lp = str(tmp_path / "p.fgmr"), str(tmp_path / "l.fgmr")
        D.write_tensor(pp, np.array([0.0, 1.0, 1.0], dtype=np.float32))
        D.write_tensor(lp, np.array([0.0, 1.0, 0.0], dtype=np.float32))
        code, stdout, _ = run_cli(["metrics", "--task", "singlelabel",
                                   "--pred", pp, "--label", lp], capsys)
        assert code == 0 and "OA=0.666667" in stdout


class TestRenderCommand:
    def test_sar_composite(self, tmp_path, capsys):
        img = np.random.default_rng(0).random((2, 16, 16)).astype(np.float32)
        src = str(tmp_path / "s.fgmr")
        dst = str(tmp_path / "s.ppm")
        D.write_tensor(src, img)
        code, _, _ = run_cli(["render", "--mode", "sar", "--in", src,
                              "--out", dst], capsys)
        assert code == 0
        assert open(dst, "rb").read(2) == b"P6"

    def test_render_byte_stable(self, tmp_path, capsys):
        img = np.random.default_rng(1).random((2, 16, 16)).astype(np.float32)
        src = str(tmp_path / "s.fgmr")
        D.write_tensor(src, img)
        d1, d2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        run_cli(["render", "--mode", "sar", "--in", src, "--out", d1], capsys)
        run_cli(["render", "--mode", "sar", "--in", src, "--out", d2], capsys)
        assert open(d1, "rb").read() == open(d2, "rb").read()

    def test_hog_uses_checkpoint_cell_size(self, tmp_path, capsys, sar_dataset,
                                           demo_checkpoint):
        # cell 4 on 8-px patches: an 8x8 grid of cells, 16 px per glyph
        scene = D.read_manifest(os.path.join(sar_dataset, "manifest.csv"))[0]
        dst = str(tmp_path / "hog.ppm")
        code, _, _ = run_cli(["render", "--mode", "hog",
                              "--in", os.path.join(sar_dataset, scene.path),
                              "--out", dst, "--checkpoint", demo_checkpoint],
                             capsys)
        assert code == 0
        assert open(dst, "rb").read().startswith(b"P5\n128 128\n255\n")

    def test_ndi_requires_checkpoint(self, tmp_path, capsys):
        src = str(tmp_path / "s.fgmr")
        D.write_tensor(src, np.zeros((13, 32, 32), dtype=np.float32))
        code, _, err = run_cli(["render", "--mode", "ndi", "--in", src,
                                "--out", str(tmp_path / "o.ppm")], capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error[config]")


class TestAblateCommand:
    def test_tiny_ablation(self, tmp_path, capsys, sar_dataset):
        manifest = os.path.join(sar_dataset, "manifest.csv")
        raw = json.load(open(_pretrain_config(tmp_path, manifest)))
        raw["specs"] = ["hog", "raw"]
        raw["seeds"] = [0]
        raw["probe"] = {"task": "singlelabel", "epochs": 1, "batch_size": 4,
                        "lr": 0.05}
        cfg = str(tmp_path / "ablate.json")
        json.dump(raw, open(cfg, "w"))
        out = str(tmp_path / "ablation")
        code, stdout, _ = run_cli(["ablate", "--config", cfg,
                                   "--manifest", manifest, "--out", out],
                                  capsys)
        assert code == 0
        lines = open(os.path.join(out, "ablation.csv")).read().splitlines()
        assert lines[0] == "spec,seed,metric,value"
        tags = {l.split(",")[0] for l in lines[1:]}
        assert tags == {"hog", "raw"}

    def test_missing_specs_rejected(self, tmp_path, capsys, sar_dataset):
        manifest = os.path.join(sar_dataset, "manifest.csv")
        cfg = _pretrain_config(tmp_path, manifest)
        code, _, err = run_cli(["ablate", "--config", cfg,
                                "--manifest", manifest,
                                "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_CONFIG


class TestNonFiniteGradients:
    """A finite loss with non-finite gradients exits 5 with one error line."""

    @pytest.fixture(autouse=True)
    def _bad_optimizer(self, monkeypatch):
        monkeypatch.setattr(O, "adamw_step", _raise_non_finite)
        monkeypatch.setattr(O, "sgd_step", _raise_non_finite)

    def _assert_diverged(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_DIVERGED
        assert err.startswith("error[loss]") and len(err.splitlines()) == 1

    def test_pretrain(self, tmp_path, capsys, sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"))
        self._assert_diverged(["pretrain", "--config", cfg,
                               "--out", str(tmp_path / "run")], capsys)

    @pytest.mark.parametrize("command", ["probe", "finetune"])
    def test_probe_and_finetune(self, tmp_path, capsys, sar_dataset,
                                demo_checkpoint, command):
        probe_cfg = str(tmp_path / "probe.json")
        json.dump({"task": "singlelabel", "epochs": 1, "batch_size": 4,
                   "lr": 0.05}, open(probe_cfg, "w"))
        self._assert_diverged([command, "--config", probe_cfg,
                               "--checkpoint", demo_checkpoint, "--manifest",
                               os.path.join(sar_dataset, "manifest.csv")],
                              capsys)

    def test_ablate(self, tmp_path, capsys, sar_dataset):
        manifest = os.path.join(sar_dataset, "manifest.csv")
        raw = json.load(open(_pretrain_config(tmp_path, manifest)))
        raw.update(specs=["hog", "raw"], seeds=[0])
        cfg = str(tmp_path / "ablate.json")
        json.dump(raw, open(cfg, "w"))
        self._assert_diverged(["ablate", "--config", cfg, "--manifest", manifest,
                               "--out", str(tmp_path / "ablation")], capsys)
