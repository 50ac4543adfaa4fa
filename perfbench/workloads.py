"""The workloads: set-up from the seed, and one session each.

A session is what a user of the workload does once, timed phase by phase
through the public entry points only:

  pretrain-*  Trainer(...) -> k train steps -> Trainer.save ->
              Trainer.load -> j more steps
  probe-*     save the pretrained model -> load_model -> linear probe ->
              load_model -> fine-tune

Sessions of one run use the same seed, so they must repeat bitwise; each
returns the facts the correctness gates in gates.py check. Imports fgmae,
so it runs in the child process only.

Every time a session returns is at reference speed: the phase's seconds
times REF_S over what a fixed speed kernel took right after it (see
speed_sample). On a shared machine the host's speed swings by up to 1.6x
in spells of five to fifteen seconds; the kernel slows with it, so the
ratio stays put. Raw seconds are returned next to them under "raw".
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import os
import statistics
import time

import numpy as np

from fgmae import data as D
from fgmae import evaluate as E
from fgmae import features as F
from fgmae import model as M
from fgmae import optim as O
from fgmae import pretrain as P

clock = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Size:
    locations: int       # synthetic locations, 4 seasons each
    steps_before: int    # train steps before the checkpoint
    steps_after: int     # train steps after resuming
    min_sessions: int    # measured sessions even past the time budget
    probe_epochs: int = 0
    finetune_epochs: int = 0
    fixture_steps: int = 0
    loads: int = 1      # times startup and resume are timed per session


SMOKE = Size(locations=8, steps_before=1, steps_after=1, min_sessions=1,
             probe_epochs=1, finetune_epochs=1, fixture_steps=1)
SIZES = {
    "pretrain-sar-hog": Size(24, 30, 30, 3, loads=5),
    "pretrain-ms-canny": Size(24, 8, 8, 3, loads=5),
    "probe-finetune-sar": Size(24, 0, 0, 3, probe_epochs=30,
                               finetune_epochs=10, fixture_steps=12, loads=5),
    "pretrain-vits-resume": Size(24, 3, 3, 3, loads=3),
}
SETUP_REPEATS = 9
SCENE_SIZE = 64

# The speed kernel's nominal time: its median on the 2-core VM the
# benchmark was built on. Times at reference speed are scaled to it.
REF_S = 0.2e-3
_KERNEL_A = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def _speed_kernel():
    s = 0
    for i in range(1000):
        s += i * i
    b = _KERNEL_A
    for _ in range(12):
        b = (b @ _KERNEL_A) * 0.01 + 1.0
    return s, b


_recent = collections.deque(maxlen=15)  # runs of the last five samples


def speed_sample():
    """Seconds the speed kernel takes now: three runs of it, and the median
    of those and the last four samples' runs, so that one slow run does
    not skew a phase. The kernel mixes a Python loop with small numpy ops,
    as a training step does; it reads no fgmae code and no random state."""
    for _ in range(3):
        t = clock()
        _speed_kernel()
        _recent.append(clock() - t)
    return statistics.median(_recent)


def at_ref_speed(seconds, kernel_s):
    return seconds * REF_S / kernel_s


def demo_config(**model_overrides):
    """demos/pretrain_config.json as of the benchmark's first version: 32 px
    crops of 64 px scenes, ViT width 64 with 2+2 blocks, batch 8, HOG cell
    4. Spelled out here so that editing the demo does not move the
    benchmark."""
    model = M.ModelConfig(image_size=32, patch_size=8, in_channels=2,
                          enc_width=64, enc_depth=2, enc_heads=4,
                          dec_width=64, dec_depth=2, dec_heads=4,
                          mask_ratio=0.7)
    return P.PretrainConfig(
        model=model.with_(**model_overrides),
        feature=F.FeatureSpec("hog", hog=F.HogParams(cell_size=4)),
        augment=D.AugmentationConfig(scale_min=0.2, scale_max=1.0, out_size=32),
        epochs=375, batch_size=8, base_lr=2e-3, warmup_epochs=31,
        weight_decay=0.05, seed=0)


def configs(workload, size):
    """The configs a workload runs; their digest goes into the provenance."""
    if workload == "pretrain-ms-canny":
        cfg = demo_config(in_channels=13)
        return {"pretrain": dataclasses.replace(
            cfg, feature=F.FeatureSpec("canny"))}
    if workload == "pretrain-vits-resume":
        vits = M.ModelConfig.preset("vit-s", image_size=32, patch_size=8,
                                    in_channels=2)
        return {"pretrain": dataclasses.replace(demo_config(), model=vits)}
    if workload == "probe-finetune-sar":
        # demos/probe_config.json; fine-tune as the paper: AdamW, layer
        # decay 0.75 (the default) and mixup
        probe = E.ProbeConfig(task="singlelabel", epochs=size.probe_epochs,
                              batch_size=8, lr=0.1, seed=0, eval_every_n=4)
        finetune = dataclasses.replace(probe, epochs=size.finetune_epochs,
                                       lr=1e-3, weight_decay=0.05,
                                       mixup_alpha=0.8)
        return {"pretrain": demo_config(), "probe": probe,
                "finetune": finetune}
    return {"pretrain": demo_config()}


def config_digest(cfgs):
    blob = repr(sorted((k, repr(v)) for k, v in cfgs.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def setup(workload, size, seed, work_dir):
    """Synthesize the dataset from the seed (and, for the probe workload,
    pretrain the encoder it starts from). Returns the session context."""
    cfgs = configs(workload, size)
    modality = "MS" if workload == "pretrain-ms-canny" else "SAR"
    manifest = D.synthesize_dataset(os.path.join(work_dir, "data"), modality,
                                    n_locations=size.locations, seed=seed,
                                    looks=1, size=SCENE_SIZE)
    ctx = {"workload": workload, "size": size, "cfgs": cfgs,
           "entries": D.read_manifest(manifest),
           "data_dir": os.path.dirname(manifest), "work_dir": work_dir,
           "sessions": 0}
    if workload == "probe-finetune-sar":
        fixture = P.Trainer(cfgs["pretrain"], ctx["entries"], ctx["data_dir"])
        for _ in range(size.fixture_steps):
            fixture.train_step()
        ctx["fixture"] = fixture
    return ctx


def quiesce():
    """Flush dirty pages and garbage before a timed phase. Saves and set-ups
    create hundreds of files; timed while earlier writes are still being
    flushed, they read two to five times slower than on an idle disk."""
    os.sync()
    gc.collect()


def session(ctx):
    """One timed session in a fresh checkpoint directory. Checkpoints are
    only deleted once the run is over: deleting files while timing slows
    the file system down (it discards the freed blocks on each commit)."""
    quiesce()
    ckpt = os.path.join(ctx["work_dir"], f"ckpt{ctx['sessions']}")
    ctx["sessions"] += 1
    if ctx["workload"] == "probe-finetune-sar":
        return _probe_session(ctx, ckpt)
    return _pretrain_session(ctx, ckpt)


class Phases:
    """Raw and reference-speed seconds of one session's timed phases."""

    def __init__(self):
        self.raw, self.ref = {}, {}
        self.timed_s = 0.0  # raw seconds inside the timed calls, all told

    def time(self, key, fn, *args):
        """fn(*args), timed under key; the speed kernel runs after it."""
        t = clock()
        out = fn(*args)
        raw = clock() - t
        self.timed_s += raw
        self.add(key, raw, speed_sample())
        return out

    def add(self, key, raw, kernel_s):
        self.raw.setdefault(key, []).append(raw)
        self.ref.setdefault(key, []).append(at_ref_speed(raw, kernel_s))

    def result(self, wall, images):
        """The seconds of every timed phase, by phase; wall_s, the steps
        plus the median of each other phase named in `wall`; and the images
        the steps trained on. Raw seconds alike under "raw"."""
        out = {}
        for kind, table in (("ref", self.ref), ("raw", self.raw)):
            d = dict(table, images=images)
            d["wall_s"] = sum(sum(d[k]) if k == "step_s"
                              else statistics.median(d[k]) for k in wall)
            out[kind] = d
        out["raw"]["timed_s"] = self.timed_s
        return dict(out["ref"], raw=out["raw"])


def _pretrain_session(ctx, ckpt):
    cfg, size = ctx["cfgs"]["pretrain"], ctx["size"]
    entries, data_dir = ctx["entries"], ctx["data_dir"]
    phases = Phases()
    for _ in range(size.loads):
        trainer = None  # free the previous one before timing the next
        trainer = phases.time("startup_s", P.Trainer, cfg, entries, data_dir)
    for _ in range(size.steps_before):
        phases.time("step_s", trainer.train_step)
    phases.time("ckpt_save_s", trainer.save, ckpt)
    before = trainer_digest(trainer)
    del trainer
    for _ in range(size.loads):
        resumed = None
        resumed = phases.time("resume_s", P.Trainer.load, ckpt, entries,
                              data_dir)
    after = trainer_digest(resumed)
    for _ in range(size.steps_after):
        phases.time("step_s", resumed.train_step)
    log = resumed.loss_log
    return dict(phases.result(
        ("startup_s", "step_s", "ckpt_save_s", "resume_s"),
        images(resumed, size.steps_before + size.steps_after)),
        losses=[loss for _, _, loss in log],
        log=[x for row in log for x in row],
        state_digests=[before, after], unit_metrics=[])


def images(trainer, n_steps):
    """Images the first n_steps train steps of a trainer consumed."""
    n, b = len(trainer.locations), trainer.cfg.batch_size
    return sum(min(b, n - (s % trainer.steps_per_epoch) * b)
               for s in range(n_steps))


def _probe_session(ctx, ckpt):
    cfgs, fixture, size = ctx["cfgs"], ctx["fixture"], ctx["size"]
    entries, data_dir = ctx["entries"], ctx["data_dir"]
    phases = Phases()
    phases.time("ckpt_save_s", fixture.save, ckpt)
    for _ in range(size.loads):
        model = phases.time("startup_s", P.load_model, ckpt)
    digests = [params_digest(fixture.model), params_digest(model)]
    probe = _loop(phases, "probe_s", E.linear_probe_train, model, entries,
                  data_dir, cfgs["probe"])
    for _ in range(size.loads):
        model = None
        model = phases.time("resume_s", P.load_model, ckpt)
    digests.append(params_digest(model))
    tuned = _loop(phases, "finetune_s", E.fine_tune, model, entries, data_dir,
                  cfgs["finetune"])
    unit = [v for report in (probe, tuned) for _, v in sorted(report.values.items())]
    losses = [loss for _, _, loss in fixture.loss_log]
    result = phases.result(("ckpt_save_s", "startup_s", "probe_s",
                            "resume_s", "finetune_s"),
                           cfgs["probe"].batch_size * len(phases.raw["step_s"]))
    return dict(result, losses=losses, log=losses + unit, state_digests=digests,
                unit_metrics=unit)


def _loop(phases, key, fn, *args):
    """fn(*args), a probe or fine-tune loop: its optimizer steps go to
    step_s and the whole call to key, both without the speed kernel's runs."""
    steps = StepClock(phases)
    with steps:
        t = clock()
        out = fn(*args)
        raw = clock() - t
    phases.timed_s += raw
    phases.add(key, raw - steps.paused, statistics.median(steps.samples))
    return out


class StepClock:
    """Times every optimizer step taken inside a `with` block, from the end
    of one to the end of the next, to time the steps of the probe and
    fine-tune loops from outside. After a step, the speed kernel runs again
    once its last sample is SAMPLE_EVERY_S old; its runs are left out of
    the steps and counted in `paused`."""

    SAMPLE_EVERY_S = 0.05

    def __init__(self, phases):
        self.phases = phases

    def __enter__(self):
        self.samples = [speed_sample()]
        self.paused = 0.0
        self.sampled = self.last = clock()
        self._saved = (O.sgd_step, O.adamw_step)
        O.sgd_step = self._marking(O.sgd_step)
        O.adamw_step = self._marking(O.adamw_step)
        return self

    def __exit__(self, *exc):
        O.sgd_step, O.adamw_step = self._saved

    def _marking(self, fn):
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = clock()
            # the first step also covers the loop's own set-up
            self.phases.add("step_s", end - self.last, self.samples[-1])
            self.last = end
            if end - self.sampled >= self.SAMPLE_EVERY_S:
                self.samples.append(speed_sample())
                self.sampled = self.last = clock()
                self.paused += self.last - end
            return out
        return step


def params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


def trainer_digest(trainer):
    """Parameters, both Adam moments, step counters and the loss log."""
    h = hashlib.sha256(params_digest(trainer.model).encode())
    for store in (trainer.opt.m, trainer.opt.v):
        for name in sorted(store):
            h.update(name.encode())
            h.update(store[name].tobytes())
    h.update(repr((trainer.opt.t, trainer.step, trainer.loss_log)).encode())
    return h.hexdigest()
