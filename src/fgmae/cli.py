"""Command-line entry point.

One binary, subcommands for the whole pipeline: data synthesis, feature
extraction, pretraining, probing / fine-tuning, metrics, the ablation study
and reconstruction rendering. Every failure prints one machine-parsable
``error[kind] reason`` line on stderr and exits with its kind's code:
config 2, io 3, feature and geometry 4, loss 5. ``main`` alone decides
both, from the exception's type (``ERRORS``) or a ``CliError``'s kind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as D
from . import evaluate as E
from . import features as F
from . import model as M
from . import optim as O
from . import pretrain as P
from .rng import Rng
from .tensor import Tensor, no_grad

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_GEOMETRY = 4
EXIT_DIVERGED = 5
EXIT_CODES = {"config": EXIT_CONFIG, "io": EXIT_IO, "feature": EXIT_GEOMETRY,
              "geometry": EXIT_GEOMETRY, "loss": EXIT_DIVERGED}
# exception type -> error kind, first match wins; any other type is a bug
ERRORS = {P.ConfigError: "config", O.TrainingDiverged: "loss",
          FloatingPointError: "loss", D.ChannelError: "geometry",
          OSError: "io", D.ContainerError: "io", P.CheckpointError: "io"}


class CliError(Exception):
    """A failure whose kind the command names itself."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def _fail(kind, message):
    raise CliError(kind, message)


# ---------------------------------------------------------------------------
# configs


def _load_json(path):
    """The JSON object in ``path``; other JSON is a config error."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            _fail("config", f"malformed JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        _fail("config", f"{path} must hold a JSON object, not a "
              f"{type(raw).__name__}")
    return raw


def _default_seed(args):
    """--seed, else the FGMAE_SEED environment variable, else 0."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FGMAE_SEED") or "0"
    try:
        return int(env)
    except ValueError:
        _fail("config", f"FGMAE_SEED must be an integer, got {env!r}")


def _manifest(raw, args):
    """The manifest path: --manifest, else the config's ``manifest`` key,
    which is taken out of ``raw`` either way."""
    manifest = raw.pop("manifest", None)
    manifest = args.manifest or manifest
    if not isinstance(manifest, str):
        _fail("config", "no manifest path given (config key or --manifest), "
              f"got {manifest!r}")
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    args.seed = _default_seed(args)
    for flag, low in (("n", 1), ("looks", 1), ("seed", 0),
                      ("size", D.MIN_SCENE_SIZE[args.modality])):
        if getattr(args, flag) < low:
            _fail("config", f"--{flag} must be >= {low}")
    manifest = D.synthesize_dataset(args.out, args.modality, args.n,
                                    args.seed, looks=args.looks,
                                    size=args.size)
    print(f"wrote {args.n * 4} scenes, manifest {manifest}")
    return 0


def cmd_extract(args):
    image = D.read_tensor(args.infile)
    if image.ndim == 3:
        image = image[None]
    bands = F.BandMap()
    if args.band_map:
        try:
            nir, red, green, swir = (int(x) for x in args.band_map.split(","))
            bands = F.BandMap(nir=nir, red=red, green=green, swir=swir)
        except ValueError:
            _fail("config", "--band-map wants four comma-separated indices")
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
        _fail("feature", str(exc))
    out = out[0] if out.shape[0] == 1 else out
    D.write_tensor(args.out, out.astype(np.float32))
    print(f"dims {tuple(out.shape)}")
    return 0


def _parse(cls, raw, args, flags):
    """``cls`` from ``raw`` with the given flags' values merged in; the
    flags set are logged once the whole config has parsed."""
    overrides = {k: getattr(args, k) for k in flags
                 if getattr(args, k) is not None}
    cfg = P.from_dict(cls, {**raw, **overrides})
    if overrides:
        print(f"flag overrides: {overrides}", file=sys.stderr)
    return cfg


def cmd_pretrain(args):
    raw = _load_json(args.config)
    manifest = _manifest(raw, args)
    cfg = _parse(P.PretrainConfig, raw, args, ("seed", "epochs"))
    print(f"config_digest={cfg.digest()}")
    trainer = P.pretrain_run(cfg, manifest, args.out)
    final = trainer.loss_log[-1]
    print(f"final step={final[0]} lr={final[1]:.6e} loss={final[2]:.6f}")
    return 0


def cmd_transfer(args):
    """Probe or fine-tune (``args.train``) a checkpoint; report metrics."""
    pcfg = _parse(E.ProbeConfig, _load_json(args.config), args, ("seed",))
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        _fail("io", f"No such file or directory for --out {args.out}")
    model = P.load_model(args.checkpoint)
    entries = D.read_manifest(args.manifest)
    data_dir = os.path.dirname(os.path.abspath(args.manifest))
    report = args.train(model, entries, data_dir, pcfg)
    print(" ".join(f"{k}={v:.6f}" for k, v in report.values.items()))
    if args.out:
        with open(args.out, "w") as f:
            f.write("metric,value\n")
            for k, v in report.values.items():
                f.write(f"{k},{v!r}\n")
    return 0


def cmd_ablate(args):
    raw = _load_json(args.config)
    spec_names = raw.pop("specs", None)
    seeds = raw.pop("seeds", [0, 1, 2])
    probe_raw = raw.pop("probe", {})
    include_random = raw.pop("include_random_init", False)
    manifest = _manifest(raw, args)
    if not (isinstance(spec_names, list) and spec_names
            and all(isinstance(s, str) for s in spec_names)):
        _fail("config", "ablation config needs 'specs', a non-empty list of "
              f"variant names, got {spec_names!r}")
    if not (isinstance(seeds, list) and all(type(s) is int for s in seeds)):
        _fail("config", f"'seeds' must be a list of integers, got {seeds!r}")
    if not isinstance(include_random, bool):
        _fail("config", "'include_random_init' must be true or false, got "
              f"{include_random!r}")
    base_cfg = P.from_dict(P.PretrainConfig, raw)
    probe_cfg = P.from_dict(E.ProbeConfig, probe_raw, "config.probe")
    feature = raw.get("feature", {})
    specs = [P.from_dict(P.PretrainConfig, {**raw, "feature": {
        **feature, "variant": name}}).feature for name in spec_names]
    print(f"config_digest={base_cfg.digest()}")
    rows = E.feature_ablation_study(base_cfg, specs, seeds, manifest,
                                    args.out, probe_cfg,
                                    include_random_init=include_random)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "ablation.csv")
    E.write_ablation_csv(csv_path, rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def cmd_metrics(args):
    if args.n_classes < 1:
        _fail("config", "--n-classes must be >= 1")
    pred = D.read_tensor(args.pred)
    label = D.read_tensor(args.label)
    try:
        if args.task == "miou":
            oa, aa, miou = E.metric_miou(pred.astype(np.int64),
                                         label.astype(np.int64),
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
    except ValueError as exc:
        _fail("geometry", f"cannot score {args.pred} against {args.label}: "
              f"{exc}")
    return 0


def cmd_render(args):
    image = D.read_tensor(args.infile)
    if image.ndim == 3:
        image = image[None]
    if args.mode == "sar":
        if image.ndim != 4 or image.shape[1] < 2:
            _fail("geometry", f"{args.infile} holds {image.shape[-3:]}; a "
                  "SAR composite needs 2 bands (VV, VH)")
        rgb = M.render_sar_composite(image)[0]
    else:  # ndi or hog: a reconstruction by one of the checkpoint's heads
        if not args.checkpoint:
            _fail("config", f"--checkpoint required for mode {args.mode}")
        run_cfg, model, *_ = P.load_checkpoint(args.checkpoint, moments=False)
        if args.mode not in model.heads:
            _fail("feature", f"checkpoint has no {args.mode} head")
        cfg = model.config
        image = D.view_batch(image, cfg.in_channels, cfg.image_size)
        gen = Rng(_default_seed(args)).child("render").at(0)
        plan = M.random_masking_plan(image.shape[0], cfg.n_patches,
                                     cfg.mask_ratio, gen)
        with no_grad():
            pred = model.forward(Tensor(image), plan)[args.mode]
        if args.mode == "ndi":
            rgb = M.render_ndi_false_color(pred, cfg.image_size,
                                           cfg.patch_size)[0]
        else:
            field = F.unpatchify_hog(pred.data, run_cfg.feature.hog,
                                     cfg.image_size, cfg.image_size,
                                     cfg.patch_size)
            rgb = M.render_hog_glyphs(np.clip(field[0, 0], 0.0, None))
    D.write_ppm(args.out, rgb)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(prog="fgmae",
                                     description="masked-feature pretraining toolkit")
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

    for name, fn, hlp in (("probe", E.linear_probe_train,
                           "linear probe a checkpoint"),
                          ("finetune", E.fine_tune, "fine-tune a checkpoint")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.set_defaults(func=cmd_transfer, train=fn)

    p = sub.add_parser("ablate", help="feature ablation study")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *ERRORS) as exc:
        kind = exc.kind if isinstance(exc, CliError) else next(
            k for t, k in ERRORS.items() if isinstance(exc, t))
        print(f"error[{kind}] {exc}", file=sys.stderr)
        return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
