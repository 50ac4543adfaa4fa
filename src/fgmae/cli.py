"""Command-line entry point.

One binary, subcommands for the whole pipeline: data synthesis, feature
extraction, pretraining, probing / fine-tuning, metrics, the ablation study
and reconstruction rendering. Exit codes: 2 bad config/flags, 3 I/O
failure, 4 feature/geometry mismatch, 5 non-finite loss; every failure
prints one machine-parsable ``error[kind] reason`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as D
from . import evaluate as E
from . import features as F
from . import model as M
from . import pretrain as P
from .rng import Rng
from .tensor import Tensor

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_GEOMETRY = 4
EXIT_DIVERGED = 5

# a finite loss with non-finite gradients raises FloatingPointError in optim
_DIVERGED = (P.TrainingDiverged, FloatingPointError)


class CliError(Exception):
    def __init__(self, kind, message, code):
        super().__init__(message)
        self.kind = kind
        self.code = code


def _fail(kind, message, code):
    raise CliError(kind, message, code)


# ---------------------------------------------------------------------------
# config parsing with unknown-key rejection


def _from_dict(cls, d, path="config"):
    if not isinstance(d, dict):
        _fail("config", f"{path} must be an object", EXIT_CONFIG)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        _fail("config", f"unknown key(s) {sorted(unknown)} in {path}", EXIT_CONFIG)
    kwargs = {}
    for name, value in d.items():
        ftype = fields[name].type
        if isinstance(value, dict) and name in _NESTED.get(cls, {}):
            kwargs[name] = _from_dict(_NESTED[cls][name], value, f"{path}.{name}")
        elif name in ("head_weights", "adam_betas") and isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        _fail("config", f"invalid {path}: {exc}", EXIT_CONFIG)


_NESTED = {
    P.PretrainConfig: {"model": M.ModelConfig, "feature": F.FeatureSpec,
                       "augment": D.AugmentationConfig},
    F.FeatureSpec: {"hog": F.HogParams, "canny": F.CannyParams,
                    "sift": F.SiftParams, "bands": F.BandMap},
}


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        _fail("io", f"cannot read config {path}: {exc}", EXIT_IO)
    except json.JSONDecodeError as exc:
        _fail("config", f"malformed JSON in {path}: {exc}", EXIT_CONFIG)


def _default_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FGMAE_SEED")
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    if args.n < 1:
        _fail("config", "--n must be >= 1", EXIT_CONFIG)
    try:
        manifest = D.synthesize_dataset(args.out, args.modality, args.n,
                                        _default_seed(args), looks=args.looks,
                                        size=args.size)
    except OSError as exc:
        _fail("io", f"cannot write dataset: {exc}", EXIT_IO)
    print(f"wrote {args.n * 4} scenes, manifest {manifest}")
    return 0


def cmd_extract(args):
    try:
        image = D.read_tensor(args.infile)
    except (OSError, D.ContainerError) as exc:
        _fail("io", f"cannot read {args.infile}: {exc}", EXIT_IO)
    if image.ndim == 3:
        image = image[None]
    bands = F.BandMap()
    if args.band_map:
        try:
            nir, red, green, swir = (int(x) for x in args.band_map.split(","))
            bands = F.BandMap(nir=nir, red=red, green=green, swir=swir)
        except ValueError:
            _fail("config", "--band-map wants four comma-separated indices",
                  EXIT_CONFIG)
    try:
        if args.feature == "ndi":
            out = F.compute_ndi(image, bands)
        elif args.feature == "hog":
            out = F.compute_hog(image)
        elif args.feature == "canny":
            out = F.compute_canny(image)
        else:
            out = F.compute_dense_sift(image)
    except ValueError as exc:
        _fail("feature", str(exc), EXIT_GEOMETRY)
    out = out[0] if out.shape[0] == 1 else out
    try:
        D.write_tensor(args.out, out.astype(np.float32))
    except OSError as exc:
        _fail("io", f"cannot write {args.out}: {exc}", EXIT_IO)
    print(f"dims {tuple(out.shape)}")
    return 0


def _pretrain_config(args):
    raw = _load_json(args.config)
    manifest = raw.pop("manifest", None)
    cfg = _from_dict(P.PretrainConfig, raw)
    if getattr(args, "manifest", None):
        manifest = args.manifest
    if manifest is None:
        _fail("config", "no manifest given (config key or --manifest)", EXIT_CONFIG)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        overrides["epochs"] = args.epochs
    if getattr(args, "deterministic", False):
        overrides["deterministic"] = True
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
        print(f"flag overrides: {overrides}", file=sys.stderr)
    return cfg, manifest


def cmd_pretrain(args):
    cfg, manifest = _pretrain_config(args)
    print(f"config_digest={cfg.digest()}")
    try:
        trainer = P.pretrain_run(cfg, manifest, args.out)
    except _DIVERGED as exc:
        _fail("loss", str(exc), EXIT_DIVERGED)
    except OSError as exc:
        _fail("io", str(exc), EXIT_IO)
    final = trainer.loss_log[-1]
    print(f"final step={final[0]} lr={final[1]:.6e} loss={final[2]:.6f}")
    return 0


def _probe_setup(args):
    raw = _load_json(args.config)
    pcfg = _from_dict(E.ProbeConfig, raw)
    if getattr(args, "seed", None) is not None:
        pcfg = dataclasses.replace(pcfg, seed=args.seed)
        print(f"flag overrides: seed={args.seed}", file=sys.stderr)
    try:
        model = P.load_model(args.checkpoint)
        entries = D.read_manifest(args.manifest)
    except (OSError, P.CheckpointError, D.ContainerError) as exc:
        _fail("io", str(exc), EXIT_IO)
    data_dir = os.path.dirname(os.path.abspath(args.manifest))
    return model, entries, data_dir, pcfg


def _report_out(report, out):
    lines = [f"{k}={v:.6f}" for k, v in report.values.items()]
    print(" ".join(lines))
    if out:
        with open(out, "w") as f:
            f.write("metric,value\n")
            for k, v in report.values.items():
                f.write(f"{k},{v!r}\n")


def _train_and_report(train, args):
    model, entries, data_dir, pcfg = _probe_setup(args)
    try:
        report = train(model, entries, data_dir, pcfg)
    except _DIVERGED as exc:
        _fail("loss", str(exc), EXIT_DIVERGED)
    _report_out(report, args.out)
    return 0


def cmd_probe(args):
    return _train_and_report(E.linear_probe_train, args)


def cmd_finetune(args):
    return _train_and_report(E.fine_tune, args)


def cmd_ablate(args):
    raw = _load_json(args.config)
    spec_names = raw.pop("specs", None)
    seeds = raw.pop("seeds", [0, 1, 2])
    probe_raw = raw.pop("probe", {})
    include_random = raw.pop("include_random_init", False)
    raw.pop("manifest", None)
    if not spec_names:
        _fail("config", "ablation config needs a 'specs' list", EXIT_CONFIG)
    base_cfg = _from_dict(P.PretrainConfig, raw)
    probe_cfg = _from_dict(E.ProbeConfig, probe_raw)
    specs = []
    for name in spec_names:
        try:
            specs.append(dataclasses.replace(base_cfg.feature, variant=name))
        except ValueError as exc:
            _fail("config", str(exc), EXIT_CONFIG)
    print(f"config_digest={base_cfg.digest()}")
    try:
        rows = E.feature_ablation_study(base_cfg, specs, seeds, args.manifest,
                                        args.out, probe_cfg,
                                        include_random_init=include_random)
    except _DIVERGED as exc:
        _fail("loss", str(exc), EXIT_DIVERGED)
    except OSError as exc:
        _fail("io", str(exc), EXIT_IO)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "ablation.csv")
    E.write_ablation_csv(csv_path, rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def cmd_metrics(args):
    try:
        pred = D.read_tensor(args.pred)
        label = D.read_tensor(args.label)
    except (OSError, D.ContainerError) as exc:
        _fail("io", str(exc), EXIT_IO)
    if args.task == "miou":
        oa, aa, miou = E.metric_miou(pred.astype(np.int64), label.astype(np.int64),
                                     args.n_classes, args.ignore_index)
        print(f"OA={oa:.6f} AA={aa:.6f} mIoU={miou:.6f}")
    elif args.task == "multilabel":
        mAP, _ = E.metric_map(pred, label)
        f1, _ = E.metric_f1((pred >= 0.5).astype(int), label.astype(int))
        print(f"mAP={mAP:.6f} macro_f1={f1:.6f}")
    else:
        oa, aa = E.metric_oa_aa(pred.astype(np.int64).ravel(),
                                label.astype(np.int64).ravel())
        print(f"OA={oa:.6f} AA={aa:.6f}")
    return 0


def cmd_render(args):
    try:
        image = D.read_tensor(args.infile)
    except (OSError, D.ContainerError) as exc:
        _fail("io", str(exc), EXIT_IO)
    if image.ndim == 3:
        image = image[None]
    if args.mode == "sar":
        rgb = M.render_sar_composite(image)[0]
    elif args.mode in ("ndi", "hog"):
        if not args.checkpoint:
            _fail("config", f"--checkpoint required for mode {args.mode}",
                  EXIT_CONFIG)
        try:
            model, _, _, _, run_cfg, _ = P.load_checkpoint(args.checkpoint)
        except (OSError, P.CheckpointError, D.ContainerError) as exc:
            _fail("io", str(exc), EXIT_IO)
        cfg = model.config
        if image.shape[-1] != cfg.image_size:
            image = np.stack([D._bilinear_resize(im, cfg.image_size, cfg.image_size)
                              for im in image])
        image = np.stack([D.zero_pad_channels(im, cfg.in_channels) for im in image])
        gen = Rng(_default_seed(args)).child("render").at(0)
        plan = M.random_masking_plan(image.shape[0], cfg.n_patches,
                                     cfg.mask_ratio, gen)
        pred = model.forward(Tensor(image.astype(np.float32)), plan)
        if args.mode == "ndi":
            ndi_pred = pred[1] if isinstance(pred, tuple) else pred
            if ndi_pred.shape[-1] != cfg.patch_size ** 2 * 3:
                _fail("feature", "checkpoint head does not predict NDI",
                      EXIT_GEOMETRY)
            rgb = M.render_ndi_false_color(ndi_pred, cfg.image_size,
                                           cfg.patch_size)[0]
        else:
            hog_pred = pred[0] if isinstance(pred, tuple) else pred
            hog = F.HogParams(**run_cfg["feature"]["hog"])
            cells = cfg.patch_size // hog.cell_size
            nb = hog.n_bins
            c = hog_pred.shape[-1] // (cells * cells * nb)
            grid = cfg.grid
            arr = hog_pred.data.reshape(image.shape[0], grid, grid, c,
                                        cells, cells, nb)
            field = arr[0].transpose(2, 0, 3, 1, 4, 5).reshape(
                c, grid * cells, grid * cells, nb)
            rgb = M.render_hog_glyphs(np.clip(field[0], 0.0, None))
    else:
        _fail("config", f"unknown render mode {args.mode!r}", EXIT_CONFIG)
    try:
        D.write_ppm(args.out, rgb)
    except OSError as exc:
        _fail("io", str(exc), EXIT_IO)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(prog="fgmae",
                                     description="masked-feature pretraining toolkit")
    parser.add_argument("--deterministic", action="store_true",
                        help="force single-threaded deterministic execution")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--modality", choices=["MS", "SAR"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--looks", type=int, default=1)
    p.add_argument("--size", type=int, default=264)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="compute one feature map")
    p.add_argument("--feature", choices=["hog", "ndi", "canny", "sift"],
                   required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band-map", dest="band_map")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pretrain", help="run FG-MAE pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_pretrain)

    for name, fn, hlp in (("probe", cmd_probe, "linear probe a checkpoint"),
                          ("finetune", cmd_finetune, "fine-tune a checkpoint")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.set_defaults(func=fn)

    p = sub.add_parser("ablate", help="feature ablation study")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("metrics", help="evaluate stored predictions")
    p.add_argument("--task", choices=["miou", "multilabel", "singlelabel"],
                   required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--n-classes", type=int, default=6)
    p.add_argument("--ignore-index", type=int, default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("render", help="render inputs or reconstructions as PPM")
    p.add_argument("--mode", choices=["ndi", "hog", "sar"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error[{exc.kind}] {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
