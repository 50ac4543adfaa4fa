"""Command-line driver: subcommand behavior, exit codes and stderr format."""

import json
import os
import shutil

import numpy as np
import pytest

from fgmae import cli
from fgmae import data as D
from fgmae import optim as O
from fgmae import pretrain as P

from oracles import render_reference

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


@pytest.fixture(scope="module")
def ms_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_ms") / "data")
    D.synthesize_dataset(out, "MS", n_locations=2, seed=4, looks=1, size=32)
    return out


_MODEL = {"image_size": 32, "patch_size": 8, "in_channels": 2,
          "enc_width": 32, "enc_depth": 1, "enc_heads": 4,
          "dec_width": 32, "dec_depth": 1, "dec_heads": 4, "mask_ratio": 0.7}


def _pretrain_config(tmp_path, manifest, **overrides):
    cfg = {
        "model": _MODEL,
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


@pytest.fixture(scope="module")
def dual_checkpoint(tmp_path_factory, ms_dataset):
    """A one-epoch hog+ndi run on 13-band scenes, the heads weighted."""
    tmp = tmp_path_factory.mktemp("dual")
    cfg = _pretrain_config(tmp, os.path.join(ms_dataset, "manifest.csv"),
                           epochs=1, warmup_epochs=0,
                           model={**_MODEL, "in_channels": 13},
                           feature={"variant": "hog+ndi",
                                    "hog": {"cell_size": 4}},
                           head_weights={"hog": 2.0, "ndi": 0.5})
    assert cli.main(["pretrain", "--config", cfg, "--out", str(tmp / "run")]) == 0
    return str(tmp / "run" / "checkpoint")


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
        assert code == cli.EXIT_DIVERGED
        assert err.startswith("error[loss]") and len(err.splitlines()) == 1

    def test_fewer_bands_are_zero_padded(self, tmp_path, capsys, sar_dataset):
        # a 13-channel model trains on 2-band SAR scenes, the rest zeros
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"),
                               model={**_MODEL, "in_channels": 13}, epochs=1,
                               warmup_epochs=0)
        code, out, err = run_cli(["pretrain", "--config", cfg,
                                  "--out", str(tmp_path / "run")], capsys)
        assert code == 0, err
        loss = float(out.strip().splitlines()[-1].rsplit("loss=", 1)[1])
        assert np.isfinite(loss)


class TestConfigChecks:
    """A config that contradicts itself is one error[config] line, exit 2,
    before any training starts."""

    CASES = {"out-size": ({"augment": {"out_size": 64}},
                          "augmentation output size"),
             "hog-cell": ({"feature": {"variant": "hog", "hog": {"cell_size": 3}}},
                          "HOG cell size"),
             "ndi-on-2-bands": ({"feature": {"variant": "hog+ndi"}}, "band map")}

    def _assert_config_error(self, argv, match, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error[config]") and len(err.splitlines()) == 1
        assert match in err

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_inconsistent_config_exits_config(self, tmp_path, capsys,
                                              sar_dataset, command, case):
        overrides, match = self.CASES[case]
        manifest = os.path.join(sar_dataset, "manifest.csv")
        if command == "ablate":
            overrides = {**overrides, "specs": ["hog", "raw"], "seeds": [0]}
        cfg = _pretrain_config(tmp_path, manifest, **overrides)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        if command == "ablate":
            argv += ["--manifest", manifest]
        self._assert_config_error(argv, match, capsys)
        assert not os.path.exists(tmp_path / "out")

    def test_inconsistent_ablation_arm_exits_config(self, tmp_path, capsys,
                                                    sar_dataset):
        manifest = os.path.join(sar_dataset, "manifest.csv")
        cfg = _pretrain_config(tmp_path, manifest, specs=["hog", "hog+ndi"],
                               seeds=[0])
        self._assert_config_error(["ablate", "--config", cfg, "--manifest",
                                   manifest, "--out", str(tmp_path / "out")],
                                  "band map", capsys)
        assert not os.path.exists(tmp_path / "out")

    WRONG_TYPES = {"str-for-float": ({"base_lr": "0.001"}, "config.base_lr"),
                   "float-for-int": ({"model": {**_MODEL, "enc_depth": 2.5}},
                                     "config.model.enc_depth"),
                   "str-head-weight": ({"head_weights": {"hog": "2"}},
                                       "head_weights")}

    @pytest.mark.parametrize("case", list(WRONG_TYPES))
    def test_wrong_value_type_exits_config(self, tmp_path, capsys, sar_dataset,
                                           case):
        overrides, match = self.WRONG_TYPES[case]
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"),
                               **overrides)
        self._assert_config_error(["pretrain", "--config", cfg,
                                   "--out", str(tmp_path / "out")],
                                  match, capsys)
        assert not os.path.exists(tmp_path / "out")

    def test_unknown_head_weight_exits_config(self, tmp_path, capsys,
                                              sar_dataset):
        cfg = _pretrain_config(tmp_path, os.path.join(sar_dataset, "manifest.csv"),
                               head_weights={"ndi": 0.5})
        self._assert_config_error(["pretrain", "--config", cfg,
                                   "--out", str(tmp_path / "out")],
                                  "ndi", capsys)


class TestBadValues:
    """Configs, manifests and inputs that ended in a traceback: each is one
    error[kind] line and the documented exit code."""

    # case -> (command, config overrides, manifest damage, kind, match);
    # overrides that are not a dict are the whole config file
    CASES = {
        "epochs-0": ("pretrain", {"epochs": 0, "warmup_epochs": 0}, None,
                     "config", "epochs"),
        # 16 patches: 0.0 masks none, 0.95 leaves none visible
        "pretrain-mask-ratio-0": ("pretrain",
                                  {"model": {**_MODEL, "mask_ratio": 0.0}},
                                  None, "config", "keeps 16 of 16 patches"),
        "ablate-mask-ratio-0.95": ("ablate",
                                   {"model": {**_MODEL, "mask_ratio": 0.95}},
                                   None, "config", "keeps 0 of 16 patches"),
        "pretrain-config-a-list": ("pretrain", [1, 2], None, "config",
                                   "JSON object"),
        "ablate-config-a-list": ("ablate", [1, 2], None, "config",
                                 "JSON object"),
        "ablate-one-spec": ("ablate", {"specs": ["hog"]}, None, "config",
                            "two feature specs"),
        "pretrain-manifest-a-list": ("pretrain", {"manifest": ["a.csv"]}, None,
                                     "config", "manifest path"),
        "probe-batch-size-0": ("probe", {"batch_size": 0}, None,
                               "config", "batch size"),
        "probe-eval-every-n-0": ("probe", {"eval_every_n": 0}, None,
                                 "config", "eval_every_n"),
        "probe-epochs-0": ("probe", {"epochs": 0}, None, "config",
                           "epochs must be >= 1"),
        # out-of-range sizes, counts and depths: each ended in a traceback
        "pretrain-patch-size-0": ("pretrain", {"model": {**_MODEL,
                                                         "patch_size": 0}},
                                  None, "config", "patch_size must be >= 1"),
        "pretrain-enc-heads-0": ("pretrain", {"model": {**_MODEL,
                                                        "enc_heads": 0}},
                                 None, "config", "enc_heads must be >= 1"),
        "pretrain-enc-width-negative": ("pretrain",
                                        {"model": {**_MODEL, "enc_width": -8}},
                                        None, "config", "enc_width must be >= 1"),
        "pretrain-image-size-negative": ("pretrain",
                                         {"model": {**_MODEL,
                                                    "image_size": -32}},
                                         None, "config",
                                         "image_size must be >= 1"),
        "pretrain-enc-depth-negative": ("pretrain",
                                        {"model": {**_MODEL, "enc_depth": -1}},
                                        None, "config", "enc_depth must be >= 0"),
        "pretrain-hog-cell-0": ("pretrain", {"feature": {
            "variant": "hog", "hog": {"cell_size": 0}}}, None, "config",
            "cell_size must be >= 1"),
        "pretrain-canny-kernel-0": ("pretrain", {"feature": {
            "variant": "canny", "canny": {"kernel_size": 0}}}, None, "config",
            "kernel_size must be >= 1"),
        **{f"pretrain-sift-{key}-0": ("pretrain", {"feature": {
            "variant": "sift", "sift": {key: 0}}}, None, "config",
            f"{key} must be >= 1")
           for key in ("stride", "support", "spatial_bins",
                       "orientation_bins")},
        # descriptor windows larger than the 32-px image
        "pretrain-canny-kernel-33": ("pretrain", {"feature": {
            "variant": "canny", "canny": {"kernel_size": 33}}}, None, "config",
            "Canny kernel_size 33 is larger than the 32-px image"),
        "pretrain-sift-support-64": ("pretrain", {"feature": {
            "variant": "sift", "sift": {"support": 64}}}, None, "config",
            "SIFT support 64 is larger than the 32-px image"),
        "finetune-scale-min-0": ("finetune", {"scale_min": 0.0}, None,
                                 "config", "scale_min"),
        "finetune-negative-mixup": ("finetune", {"mixup_alpha": -0.5}, None,
                                    "config", "mixup_alpha"),
        "ablate-empty-specs": ("ablate", {"specs": []}, None, "config", "specs"),
        "ablate-specs-a-string": ("ablate", {"specs": "hog"}, None,
                                  "config", "specs"),
        "ablate-spec-not-a-string": ("ablate", {"specs": ["hog", 3]}, None,
                                     "config", "specs"),
        "ablate-seed-not-an-int": ("ablate", {"seeds": ["a"]}, None,
                                   "config", "seeds"),
        "ablate-seeds-not-a-list": ("ablate", {"seeds": 0}, None,
                                    "config", "seeds"),
        "ablate-random-init-not-a-bool": ("ablate", {"include_random_init": "yes"},
                                          None, "config", "include_random_init"),
        "pretrain-no-season": ("pretrain", {}, "no-season", "io", "'season'"),
        "pretrain-bad-season": ("pretrain", {}, "bad-season", "io", "season"),
        "pretrain-empty-manifest": ("pretrain", {}, "empty", "io", "no rows"),
        "probe-empty-manifest": ("probe", {}, "empty", "io", "no rows"),
        "ablate-no-season": ("ablate", {}, "no-season", "io", "'season'"),
        "probe-bad-label": ("probe", {}, "bad-label", "io", "label 'x'"),
        # single-label classes are 0..5: MS labels run to 7, and -1 is none
        "probe-singlelabel-on-ms": ("probe", {}, "ms", "io", "label 7"),
        "finetune-negative-label": ("finetune", {}, "label--1", "io",
                                    "label -1"),
        "probe-missing-scene": ("probe", {}, "missing-scene", "io",
                                "No such file"),
        "finetune-missing-scene": ("finetune", {}, "missing-scene", "io",
                                   "No such file"),
        "finetune-truncated-scene": ("finetune", {}, "truncated-scene", "io",
                                     "truncated payload"),
        # the channel policy: more bands than the model's input channels
        "pretrain-2-bands-into-1": ("pretrain",
                                    {"model": {**_MODEL, "in_channels": 1}},
                                    None, "geometry", "2 bands"),
        "pretrain-13-bands-into-2": ("pretrain", {}, "ms", "geometry",
                                     "13 bands"),
        "probe-13-bands-into-2": ("probe", {"task": "multilabel"}, "ms",
                                  "geometry", "13 bands"),
        "finetune-13-bands-into-2": ("finetune", {"task": "multilabel"}, "ms",
                                     "geometry", "13 bands"),
    }
    CODES = {"config": cli.EXIT_CONFIG, "io": cli.EXIT_IO,
             "geometry": cli.EXIT_GEOMETRY}

    @staticmethod
    def _manifest(tmp_path, data_dir, damage):
        source = os.path.join(data_dir, "manifest.csv")
        if damage is None:
            return source
        rows = open(source).read().splitlines()
        cells = [r.split(",") for r in rows]
        for c in cells[1:]:
            c[3] = os.path.join(data_dir, c[3])
        if damage == "no-season":
            cells = [c[:1] + c[2:] for c in cells]
        elif damage == "bad-season":
            cells[2][1] = "spring"
        elif damage == "bad-label":
            cells[2][4] = "x"
        elif damage == "label--1":
            cells[1][4] = "-1"  # location 0: held out from training
        elif damage == "empty":
            cells = cells[:1]
        else:  # the last scene, one of the probe's training scenes
            bad = cells[-1][3] = str(tmp_path / "scene.fgmr")
            if damage == "truncated-scene":
                D.write_tensor(bad, np.ones((2, 32, 32), np.float32))
                os.truncate(bad, os.path.getsize(bad) - 4)
        path = str(tmp_path / "manifest.csv")
        open(path, "w").write("\n".join(",".join(c) for c in cells) + "\n")
        return path

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_error_line_and_exit_code(self, tmp_path, capsys, sar_dataset,
                                          ms_dataset, demo_checkpoint, case):
        command, overrides, damage, kind, match = self.CASES[case]
        if damage == "ms":
            manifest = os.path.join(ms_dataset, "manifest.csv")
        else:
            manifest = self._manifest(tmp_path, sar_dataset, damage)
        out = str(tmp_path / "out")
        if command in ("probe", "finetune"):
            cfg = str(tmp_path / "probe.json")
            json.dump({"task": "singlelabel", "epochs": 1, "batch_size": 4,
                       **overrides}, open(cfg, "w"))
            argv = [command, "--config", cfg, "--checkpoint", demo_checkpoint,
                    "--manifest", manifest]
        else:
            if not isinstance(overrides, dict):
                cfg = str(tmp_path / "pretrain.json")
                json.dump(overrides, open(cfg, "w"))
            else:
                if command == "ablate":
                    overrides = {"specs": ["hog", "raw"], "seeds": [0],
                                 **overrides}
                cfg = _pretrain_config(tmp_path,
                                       **{"manifest": manifest, **overrides})
            argv = [command, "--config", cfg, "--out", out]
            if command == "ablate":
                argv += ["--manifest", manifest]
        code, _, err = run_cli(argv, capsys)
        assert code == self.CODES[kind]
        assert err.startswith(f"error[{kind}]") and len(err.splitlines()) == 1
        assert "Traceback" not in err and match in err
        assert not os.path.exists(out)

    METRICS = ["metrics", "--pred", "{tmp}/pred.fgmr",
               "--label", "{tmp}/label.fgmr", "--task"]
    # case -> (argv, tensors written to {tmp}/<name>.fgmr, kind, match)
    INPUTS = {
        "synth-looks-0": (["synth", "--modality", "SAR", "--out", "{tmp}/out",
                           "--n", "1", "--looks", "0"], {}, "config",
                          "--looks"),
        "synth-sar-size-0": (["synth", "--modality", "SAR", "--out",
                              "{tmp}/out", "--n", "1", "--size", "0"], {},
                             "config", "--size must be >= 1"),
        "synth-ms-size-2": (["synth", "--modality", "MS", "--out",
                             "{tmp}/out", "--n", "1", "--size", "2"], {},
                            "config", "--size must be >= 3"),
        "synth-seed--1": (["synth", "--modality", "SAR", "--out", "{tmp}/out",
                           "--n", "1", "--seed", "-1"], {}, "config",
                          "--seed must be >= 0"),
        # a leading NAME=value sets that environment variable
        "synth-env-seed-abc": (["FGMAE_SEED=abc", "synth", "--modality", "SAR",
                                "--out", "{tmp}/out", "--n", "1"], {},
                               "config", "FGMAE_SEED must be an integer"),
        "render-env-seed-abc": (["FGMAE_SEED=abc", "render", "--mode", "hog",
                                 "--in", "{tmp}/scene.fgmr", "--out",
                                 "{tmp}/out", "--checkpoint", "{ckpt}"],
                                {"scene": np.ones((2, 32, 32))}, "config",
                                "FGMAE_SEED must be an integer"),
        "metrics-miou-sizes-disagree": (
            METRICS + ["miou"], {"pred": np.zeros((2, 2)), "label": np.zeros(3)},
            "geometry", "sizes disagree"),
        "metrics-miou-all-ignored": (
            METRICS + ["miou", "--ignore-index", "1"],
            {"pred": np.ones(4), "label": np.ones(4)}, "geometry",
            "no valid pixels"),
        "metrics-singlelabel-empty": (
            METRICS + ["singlelabel"], {"pred": np.zeros(0), "label": np.zeros(0)},
            "geometry", "empty"),
        "metrics-singlelabel-sizes-disagree": (
            METRICS + ["singlelabel"], {"pred": np.zeros(3), "label": np.zeros(2)},
            "geometry", "disagree"),
        "metrics-multilabel-1-d": (
            METRICS + ["multilabel"], {"pred": np.zeros(4), "label": np.ones(4)},
            "geometry", "2-D"),
        "metrics-multilabel-shapes-disagree": (
            METRICS + ["multilabel"],
            {"pred": np.zeros((4, 3)), "label": np.ones((4, 2))},
            "geometry", "(4, 3) and (4, 2)"),
        "metrics-multilabel-no-positive": (
            METRICS + ["multilabel"],
            {"pred": np.zeros((4, 3)), "label": np.zeros((4, 3))},
            "geometry", "positive"),
        "render-sar-1-band": (["render", "--mode", "sar", "--in",
                               "{tmp}/scene.fgmr", "--out", "{tmp}/out"],
                              {"scene": np.ones((1, 16, 16))}, "geometry",
                              "2 bands"),
        "probe-out-missing-dir": (["probe", "--config", "{tmp}/probe.json",
                                   "--checkpoint", "{ckpt}", "--manifest",
                                   "{manifest}", "--out", "{tmp}/no/out"],
                                  {}, "io", "No such file"),
    }

    @pytest.mark.parametrize("case", list(INPUTS))
    def test_bad_input_one_error_line(self, tmp_path, capsys, monkeypatch,
                                      sar_dataset, demo_checkpoint, case):
        argv, tensors, kind, match = self.INPUTS[case]
        if "=" in argv[0]:
            monkeypatch.setenv(*argv[0].split("=", 1))
            argv = argv[1:]
        for name, array in tensors.items():
            D.write_tensor(str(tmp_path / f"{name}.fgmr"),
                           array.astype(np.float32))
        json.dump({"task": "singlelabel", "epochs": 1, "batch_size": 4},
                  open(tmp_path / "probe.json", "w"))
        argv = [a.format(tmp=tmp_path, ckpt=demo_checkpoint,
                         manifest=os.path.join(sar_dataset, "manifest.csv"))
                for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == self.CODES[kind]
        assert err.startswith(f"error[{kind}]") and len(err.splitlines()) == 1
        assert "Traceback" not in err and match in err
        assert not os.path.exists(tmp_path / "out")
        # checked before any work: no probe ran to print its metrics
        assert out == ""


class TestErrorTable:
    """``main`` alone turns an exception into an error kind and exit code."""

    RAISED = {"config": (P.ConfigError("bad value"), 2),
              "loss-diverged": (O.TrainingDiverged(3, 0.1, float("nan")), 5),
              "loss-non-finite-grad": (FloatingPointError("non-finite"), 5),
              "geometry": (D.ChannelError("13 bands"), 4),
              "io-os": (FileNotFoundError(2, "No such file", "x"), 3),
              "io-container": (D.ContainerError("truncated payload"), 3),
              "io-checkpoint": (P.CheckpointError("no index.json"), 3)}

    @pytest.mark.parametrize("case", list(RAISED))
    def test_kind_and_exit_code(self, monkeypatch, capsys, case):
        exc, code = self.RAISED[case]

        def stub(args):
            raise exc
        monkeypatch.setattr(cli, "cmd_metrics", stub)
        got, out, err = run_cli(["metrics", "--task", "miou", "--pred", "p",
                                 "--label", "l"], capsys)
        kind = case.split("-")[0]
        assert (got, out, err) == (code, "", f"error[{kind}] {exc}\n")

    def test_other_types_keep_their_traceback(self, monkeypatch):
        def stub(args):
            raise KeyError("a bug")
        monkeypatch.setattr(cli, "cmd_metrics", stub)
        with pytest.raises(KeyError):
            cli.main(["metrics", "--task", "miou", "--pred", "p", "--label", "l"])


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

    def test_divergence_exit_code(self, tmp_path, capsys, sar_dataset,
                                  demo_checkpoint):
        probe_cfg = str(tmp_path / "probe.json")
        json.dump({"task": "singlelabel", "epochs": 2, "batch_size": 4,
                   "lr": 1e18}, open(probe_cfg, "w"))
        with np.errstate(all="ignore"):
            code, _, err = run_cli(["finetune", "--config", probe_cfg,
                                    "--checkpoint", demo_checkpoint,
                                    "--manifest",
                                    os.path.join(sar_dataset, "manifest.csv")],
                                   capsys)
        assert code == cli.EXIT_DIVERGED
        assert err.startswith("error[loss]") and len(err.splitlines()) == 1

    def test_bad_checkpoint_exits_io(self, tmp_path, capsys, sar_dataset):
        probe_cfg = str(tmp_path / "probe.json")
        json.dump({"task": "singlelabel"}, open(probe_cfg, "w"))
        code, _, err = run_cli(["probe", "--config", probe_cfg,
                                "--checkpoint", str(tmp_path / "missing"),
                                "--manifest",
                                os.path.join(sar_dataset, "manifest.csv")],
                               capsys)
        assert code == cli.EXIT_IO


class TestCheckpointIndex:
    """A checkpoint whose index.json is of another format, cut short or
    short of a key, or whose run config does not parse or does not fit its
    tensors, is one error[io] line, exit 3."""

    @pytest.mark.parametrize("command", ["probe", "finetune", "render"])
    @pytest.mark.parametrize("damage", ["v0", "truncated", "missing-key",
                                        "config-unparsable",
                                        "config-out-of-range",
                                        "config-disagrees"])
    def test_bad_index_exits_io(self, tmp_path, capsys, sar_dataset,
                                demo_checkpoint, command, damage):
        ckpt = str(tmp_path / "ckpt")
        shutil.copytree(demo_checkpoint, ckpt)
        path = os.path.join(ckpt, "index.json")
        text = open(path).read()
        index = json.loads(text)
        if damage == "v0":
            text = json.dumps({**index, "format": "fgmae-checkpoint-v0"})
        elif damage == "missing-key":
            text = json.dumps({k: v for k, v in index.items() if k != "config"})
        elif damage == "config-out-of-range":
            index["config"]["model"]["enc_heads"] = 0  # heads must be >= 1
            text = json.dumps(index)
        elif damage.startswith("config"):
            model = index["config"]["model"]
            model.update(enc_width=2 * model["enc_width"])
            if damage == "config-unparsable":
                model.update(enc_heads=3)
            text = json.dumps(index)
        else:
            text = text[:len(text) // 2]
        open(path, "w").write(text)
        manifest = os.path.join(sar_dataset, "manifest.csv")
        if command == "render":
            scene = D.read_manifest(manifest)[0]
            argv = ["render", "--mode", "hog", "--out", str(tmp_path / "o.ppm"),
                    "--in", os.path.join(sar_dataset, scene.path)]
        else:
            probe_cfg = str(tmp_path / "probe.json")
            json.dump({"task": "singlelabel", "epochs": 1, "batch_size": 4},
                      open(probe_cfg, "w"))
            argv = [command, "--config", probe_cfg, "--manifest", manifest]
        code, _, err = run_cli(argv + ["--checkpoint", ckpt], capsys)
        assert code == cli.EXIT_IO
        assert err.startswith("error[io]") and len(err.splitlines()) == 1


class TestDualHeadRender:
    """hog+ndi is the only run whose second head is read at inference."""

    def test_renders_both_heads(self, tmp_path, capsys, ms_dataset,
                                dual_checkpoint):
        manifest = os.path.join(ms_dataset, "manifest.csv")
        scene = os.path.join(ms_dataset, D.read_manifest(manifest)[0].path)
        # NDI: a 32x32 false-colour image; HOG: 8x8 cells of 16 px glyphs
        for mode, header, size in (("ndi", b"P6\n32 32\n255\n", 3 * 32 * 32),
                                   ("hog", b"P5\n128 128\n255\n", 128 * 128)):
            renders = []
            for k in range(2):
                dst = str(tmp_path / f"{mode}{k}.ppm")
                code, _, _ = run_cli(["render", "--mode", mode, "--in", scene,
                                      "--out", dst, "--checkpoint",
                                      dual_checkpoint], capsys)
                assert code == 0
                renders.append(open(dst, "rb").read())
            assert renders[0].startswith(header)
            assert len(renders[0]) == len(header) + size
            assert renders[0] == renders[1]

    def test_ndi_from_hog_only_checkpoint_is_feature_error(
            self, tmp_path, capsys, ms_dataset, demo_checkpoint):
        scene = D.read_manifest(os.path.join(ms_dataset, "manifest.csv"))[0]
        code, _, err = run_cli(["render", "--mode", "ndi",
                                "--in", os.path.join(ms_dataset, scene.path),
                                "--out", str(tmp_path / "ndi.ppm"),
                                "--checkpoint", demo_checkpoint], capsys)
        assert code == cli.EXIT_GEOMETRY
        assert err.startswith("error[feature]")


class TestRenderReference:
    """render writes the bytes of its reference (tests/oracles.py), which
    makes the evaluation view image by image."""

    @pytest.mark.parametrize("mode", ["sar", "hog", "ndi"])
    def test_same_bytes(self, tmp_path, capsys, sar_dataset, ms_dataset,
                        demo_checkpoint, dual_checkpoint, mode):
        data, ckpt = {"sar": (sar_dataset, None),
                      "hog": (sar_dataset, demo_checkpoint),
                      "ndi": (ms_dataset, dual_checkpoint)}[mode]
        scene = os.path.join(data, D.read_manifest(
            os.path.join(data, "manifest.csv"))[1].path)
        argv = ["render", "--mode", mode, "--in", scene, "--seed", "3",
                "--out", str(tmp_path / "new.ppm")]
        assert run_cli(argv + (["--checkpoint", ckpt] if ckpt else []),
                       capsys)[0] == 0
        D.write_ppm(str(tmp_path / "ref.ppm"), render_reference(
            mode, D.read_tensor(scene), ckpt, 3))
        new = open(tmp_path / "new.ppm", "rb").read()
        assert new == open(tmp_path / "ref.ppm", "rb").read()


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

    def test_hog_on_non_hog_checkpoint_is_feature_error(self, tmp_path, capsys,
                                                        sar_dataset):
        manifest = os.path.join(sar_dataset, "manifest.csv")
        cfg = _pretrain_config(tmp_path, manifest, epochs=1, warmup_epochs=0,
                               feature={"variant": "canny"})
        out = str(tmp_path / "run")
        assert cli.main(["pretrain", "--config", cfg, "--out", out]) == 0
        scene = D.read_manifest(manifest)[0]
        code, _, err = run_cli(["render", "--mode", "hog",
                                "--in", os.path.join(sar_dataset, scene.path),
                                "--out", str(tmp_path / "hog.ppm"),
                                "--checkpoint", os.path.join(out, "checkpoint")],
                               capsys)
        assert code == cli.EXIT_GEOMETRY
        assert err.startswith("error[feature]")

    def test_more_bands_than_the_model_is_geometry_error(
            self, tmp_path, capsys, ms_dataset, demo_checkpoint):
        scene = D.read_manifest(os.path.join(ms_dataset, "manifest.csv"))[0]
        code, _, err = run_cli(["render", "--mode", "hog",
                                "--in", os.path.join(ms_dataset, scene.path),
                                "--out", str(tmp_path / "hog.ppm"),
                                "--checkpoint", demo_checkpoint], capsys)
        assert code == cli.EXIT_GEOMETRY
        assert err.startswith("error[geometry]") and "13 bands" in err
        assert len(err.splitlines()) == 1

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

    def _config(self, tmp_path, manifest):
        raw = json.load(open(_pretrain_config(tmp_path, manifest)))
        raw.update(specs=["hog", "raw"], seeds=[0],
                   probe={"task": "singlelabel", "epochs": 1, "batch_size": 4})
        if manifest is None:
            del raw["manifest"]
        cfg = str(tmp_path / "ablate.json")
        json.dump(raw, open(cfg, "w"))
        return ["ablate", "--config", cfg, "--out", str(tmp_path / "out")]

    def test_manifest_from_config(self, tmp_path, capsys, sar_dataset):
        # as in pretrain: the config's manifest key, unless --manifest
        argv = self._config(tmp_path, os.path.join(sar_dataset, "manifest.csv"))
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0 and "hog,mean,OA," in stdout

    def test_manifest_named_nowhere(self, tmp_path, capsys, sar_dataset):
        argv = self._config(tmp_path, str(tmp_path / "nowhere.csv"))
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_IO
        assert err.startswith("error[io]") and "nowhere.csv" in err
        assert not os.path.exists(tmp_path / "out")
        # --manifest wins over the key
        argv += ["--manifest", os.path.join(sar_dataset, "manifest.csv")]
        assert run_cli(argv, capsys)[0] == 0

    def test_no_manifest_anywhere(self, tmp_path, capsys):
        code, _, err = run_cli(self._config(tmp_path, None), capsys)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error[config]") and "manifest" in err
        assert len(err.splitlines()) == 1

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
