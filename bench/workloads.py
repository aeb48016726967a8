"""The three benchmark workloads: set-up, one timed pipeline pass, and the
output checks of that pass. Each pass is a closed loop with one caller:
every phase starts when the previous one returns."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from zsat import cli, config, experiments, protocol


@dataclass
class Outcome:
    """One timed pass: stage times, quality, and the checks that failed."""
    wall_s: float = 0.0
    pretrain_s: float = 0.0
    pretrain_clips: int = 0
    projection_eval_s: float = 0.0
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _check_losses(what: str, losses, out: Outcome) -> None:
    if not losses or not all(math.isfinite(v) for v in losses):
        out.problems.append(f"{what}: missing or non-finite loss {losses}")


def _check_quality(result: dict, out: Outcome) -> None:
    out.quality = {k: result.get(k) for k in
                   ("mean_ap", "accuracy", "random_mean_ap", "random_accuracy")}
    for k in ("mean_ap", "accuracy"):
        v = result.get(k)
        if v is None or not 0.0 <= v <= 1.0:
            out.problems.append(f"{k} = {v} is not in [0, 1]")


def _pretrain_clips(records, train_ids, cfg, epochs_done: int) -> int:
    """Clips seen by pretraining: steps per epoch times batch size, with the
    step count `backbones.pretrain_backbone` derives from the corpus."""
    train = set(train_ids)
    n = sum(1 for r in records if r.split == "train" and any(t in train for t in r.tags))
    batch = cfg.pretrain.batch_size
    return epochs_done * max(1, n // batch) * batch


class InProcess:
    """`load_corpus` -> `run_pretrain` -> `run_projection` ->
    `evaluate_zero_shot`, called in-process on a synthesized corpus."""

    setup_repeats = 3

    def __init__(self, overrides: dict, passes: int):
        self.cfg = config.resolve_config("toy", overrides)
        self.passes = passes

    def setup(self, work: Path, seed: int) -> None:
        shutil.rmtree(work / "corpus", ignore_errors=True)
        protocol.generate_synthetic_corpus(self.cfg.synthetic, work / "corpus", seed)

    def run(self, work: Path, seed: int, span) -> Outcome:
        cfg, out = self.cfg, Outcome()
        t0 = time.perf_counter()
        corpus = experiments.load_corpus(work / "corpus", cfg.mel)
        t1 = time.perf_counter()
        model, _, history = experiments.run_pretrain(cfg, corpus, seed)
        t2 = time.perf_counter()
        proj, report = experiments.run_projection(cfg, corpus, model, seed)
        result = experiments.evaluate_zero_shot(corpus, model, proj)
        t3 = time.perf_counter()
        out.wall_s, out.pretrain_s, out.projection_eval_s = t3 - t0, t2 - t1, t3 - t2
        out.pretrain_clips = _pretrain_clips(corpus.records, corpus.train_ids, cfg,
                                             len(history))
        _check_losses("pretrain", history, out)
        _check_losses("projection", report["per_epoch_loss"], out)
        _check_quality(result, out)
        return out


class Cli:
    """Set-up synthesizes a corpus and runs a short `zsat pretrain`; the
    timed pass is `zsat train-projection` then `zsat evaluate`, called
    through `zsat.cli.main` in-process. Each command reloads the corpus."""

    setup_repeats = 2   # each set-up pretrains, so fewer repeats fit a run

    def __init__(self, overrides: dict, passes: int):
        self.overrides = {"preset": "toy", **overrides}
        self.cfg = config.resolve_config("toy", overrides)
        self.passes = passes
        self.pretrain_s: list[float] = []   # one per set-up
        self.pretrain_clips = 0

    def _main(self, argv: list, out: Outcome) -> float:
        """Run and time one `zsat` command; its console output is kept only
        for the failure message."""
        log = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        took = time.perf_counter() - t0
        if code != 0:
            out.problems.append(f"zsat {argv[0]} exited {code}: {log.getvalue()}")
        return took

    def _common(self, work: Path, seed: int) -> list:
        return ["--config", str(work / "config.json"), "--seed", str(seed),
                "--corpus", str(work / "corpus")]

    def setup(self, work: Path, seed: int) -> None:
        for name in ("corpus", "bb.ckpt"):
            shutil.rmtree(work / name, ignore_errors=True)
        (work / "config.json").write_text(json.dumps(self.overrides))
        out = Outcome()
        self._main(["synth", "--config", str(work / "config.json"),
                    "--seed", str(seed), "--out", str(work / "corpus")], out)
        took = self._main(["pretrain", *self._common(work, seed),
                           "--out", str(work / "bb.ckpt")], out)
        if not out.problems:
            info = json.loads((work / "bb.ckpt.json").read_text())
            _check_losses("pretrain", info["loss_history"], out)
            records = protocol.load_manifest(work / "corpus" / "manifest.jsonl")
            self.pretrain_s.append(took)
            self.pretrain_clips = _pretrain_clips(records, info["train_classes"],
                                                  self.cfg, info["epochs_done"])
        if out.problems:
            raise RuntimeError("; ".join(out.problems))

    def run(self, work: Path, seed: int, span) -> Outcome:
        out = Outcome()
        for name in ("proj.ckpt", "proj.ckpt.json", "report.json"):
            (work / name).unlink(missing_ok=True)
        common = [*self._common(work, seed), "--backbone", str(work / "bb.ckpt")]
        with span("cli.train-projection"):
            t_proj = self._main(["train-projection", *common,
                                 "--out", str(work / "proj.ckpt")], out)
        with span("cli.evaluate"):
            t_eval = self._main(["evaluate", *common,
                                 "--projection", str(work / "proj.ckpt"),
                                 "--out", str(work / "report.json")], out)
        out.wall_s = out.projection_eval_s = t_proj + t_eval
        # pretraining runs in set-up here: `zsat pretrain`, corpus load included
        out.pretrain_s = statistics.median(self.pretrain_s)
        out.pretrain_clips = self.pretrain_clips
        if out.problems:
            return out
        selection = json.loads((work / "proj.ckpt.json").read_text())["selection"]
        _check_losses("projection", selection["per_epoch_loss"], out)
        report = json.loads((work / "report.json").read_text())
        runs = report.get("per_seed", [])
        if len(runs) != 1 or runs[0].get("n_test_clips", 0) < 1:
            out.problems.append(f"incomplete evaluation report: {report}")
            return out
        _check_quality(runs[0], out)
        return out


# name -> factory; each run builds its own workload object. `passes` is the
# number of timed passes in a 20-second run: the transformer's phases last
# 1-2 s, so it needs more passes than the others to average out the drift
# of a shared box.
WORKLOADS = {
    "train-transformer": lambda: InProcess({"pretrain": {"epochs": 2}}, passes=7),
    "train-cnn14": lambda: InProcess({"backbone": "cnn14", "pretrain": {"epochs": 1}},
                                     passes=2),
    "cli-zero-shot": lambda: Cli({"backbone": "vggish",
                                  "synthetic": {"clips_per_class": 36},
                                  "pretrain": {"epochs": 1}}, passes=2),
}
