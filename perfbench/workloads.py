"""The three benchmark workloads, each a closed loop of edue CLI commands.

One client issues one ``edue.cli.main(argv)`` call after another in this
process; nothing runs concurrently.  A run has five phases:

- setup: inputs the loop needs (datasets, and for desk-eval the
  checkpoints), built ``setup_reps`` times into fresh directories.  The
  repetitions must produce identical datasets and losses; ``setup_s`` is
  their median.
- warm-up: one untimed train at the loop's shapes where setup trained
  nothing, so the loop's first cycle does not pay for first-touch memory.
- loop: the workload's cycle of commands, repeated until ``--seconds``
  have passed.  Each cycle draws fresh inputs from the workload seed.
- post: commands run once after the loop (desk-train's qc).
- reference: a fixed-seed pass whose outputs are compared with
  ``reference.json``.

Warm-up and reference timings feed no metric.

Times are calibrated: a shared host's speed drifts by 10-40 % over
seconds, so every command is bracketed by a fixed numpy and Python
kernel at the workload's shapes, and its wall time is divided by the
kernel's time as a share of the kernel's reference time.  A slow period
stretches both and cancels out; a slower program does not.
"""

from __future__ import annotations

import io
import json
import statistics
import time
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

REFERENCE_SEED = 20240324
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DESK = {"preset": "desk", "epochs": 1}
RIGA = {"preset": "riga-like", "epochs": 1, "batch_size": 2, "de_members": 2}
DESK_REF = {"preset": "desk", "epochs": 2}
RIGA_REF = {"preset": "riga-like", "epochs": 2, "batch_size": 4, "head_skip": 3}

OOD_FRACTIONS = (0.0, 0.5, 1.0)
RIGA_OOD_FRACTIONS = (0.5,)
# riga-like's own head_skip (5) leaves no head to aggregate on a 5-head
# model (eval exits 2), so the fullscale loop trains with this valid skip.
RIGA_EVAL_HEAD_SKIP = 3

E2E_KEYS = {
    ("gen", None): "gen_img_per_s",
    ("train", "edue"): "edue_train_img_per_s",
    ("train", "le"): "le_train_img_per_s",
    ("train", "de"): "de_train_img_per_s",
    ("eval", "edue"): "edue_eval_img_per_s",
    ("eval", "de"): "de_eval_img_per_s",
    ("ood", "edue"): "ood_img_per_s",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``tiny`` keeps the smoke test fast."""
    desk_train: int = 32
    desk_test: int = 32
    eval_train: int = 64
    eval_test: int = 32
    riga_train: int = 2
    riga_test: int = 4  # eval needs four images for its correlations
    riga_size: tuple = (256, 256)
    setup_reps: int = 5


SCALES = {
    "full": Scale(),
    "tiny": Scale(desk_train=16, desk_test=8, eval_train=16, eval_test=8,
                  riga_size=(64, 64), setup_reps=2),
}


def derive(seed: int, *tags: int) -> int:
    """A distinct 31-bit seed per (workload seed, purpose, cycle)."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0] >> 1)


@dataclass
class Op:
    phase: str
    kind: str
    arm: str | None
    argv: list
    images: int
    seconds: float = 0.0
    rc: int | None = None
    error: str = ""
    problems: list = field(default_factory=list)
    result: object = None
    calib: float = 0.0  # kernel time just before and after, over ref_s; 0 when traced

    @property
    def calibrated_seconds(self) -> float:
        return self.seconds / self.calib if self.calib else self.seconds

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)

    def summary(self, root: Path) -> dict:
        command = "edue " + " ".join(self.argv)
        return {"phase": self.phase, "command": command.replace(f"{root}/", ""),
                "rc": self.rc, "seconds": self.seconds, "calib": self.calib,
                "error": self.error, "problems": self.problems[:5]}


@dataclass(frozen=True)
class Kernel:
    """A calibration kernel at one workload's shapes: an im2col-sized
    float32 matmul, an elementwise map and a reduction on an
    activation-sized array, and a Python loop of numpy calls on a tiny
    array, the interpreter-bound share of scene generation and the tape."""
    rows: int  # conv output channels
    depth: int  # conv input channels x 3 x 3
    cols: int  # output pixels
    act: tuple  # activation shape
    loop: int  # iterations of the Python loop
    reps: int  # matmul, map and loop passes per run
    ref_s: float  # one run's median on the reference machine


# ref_s: medians on a 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS, 2 threads).
DESK_KERNEL = Kernel(64, 288, 1024, (8, 32, 32, 32), loop=400, reps=4, ref_s=0.006)
RIGA_KERNEL = Kernel(16, 144, 16384, (2, 16, 128, 128), loop=400, reps=3, ref_s=0.009)


class Calibration:
    """Times a Kernel.  A call returns the median of three runs as a share
    of ``ref_s``, so a hiccup of a few milliseconds does not count."""

    def __init__(self, kernel: Kernel):
        rng = np.random.default_rng(0)
        self.kernel = kernel
        self.cols = rng.standard_normal((kernel.depth, kernel.cols), dtype=np.float32)
        self.w = rng.standard_normal((kernel.rows, kernel.depth), dtype=np.float32)
        self.x = rng.standard_normal(kernel.act, dtype=np.float32)
        self.small = rng.standard_normal((8, 8), dtype=np.float32)
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:  # page faults, BLAS start-up
            self.once()

    def once(self) -> float:
        start = time.perf_counter()
        total = 0
        for _ in range(self.kernel.reps):
            y = self.w @ self.cols
            z = np.maximum(self.x, 0.0)
            z -= z.mean(axis=(2, 3), keepdims=True)
            total += int(y[0, 0] > 0) + int(z[0, 0, 0, 0] > 0)
            for i in range(self.kernel.loop):
                s = self.small * 0.5 + self.small
                total += int(s[i & 7, 0] > 0)
        return time.perf_counter() - start

    def __call__(self) -> float:
        return statistics.median(self.once() for _ in range(3)) / self.kernel.ref_s


class Bench:
    """Issues CLI commands, times them, checks their outputs."""

    def __init__(self, edue: dict, work: Path, scale: Scale, seed: int, tracer=None):
        self.edue = edue
        self.work = work
        self.scale = scale
        self.seed = seed
        self.tracer = tracer
        self.ops: list[Op] = []
        self.problems: list[str] = []
        self.setup_seconds: list[float] = []
        self.cycle_seconds: list[float] = []
        self.traced_cycle_seconds: list[float] = []
        self.calibrate = None
        self._calib_after = None

    def use_calibration(self, kernel: Kernel) -> None:
        """Times every later command with kernel; traced runs do not."""
        if self.tracer is None:
            self.calibrate = Calibration(kernel)

    def config(self, name: str, doc: dict) -> str:
        path = self.work / "configs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def run(self, phase: str, kind: str, argv: list, images: int,
            arm: str | None = None, check=None) -> Op:
        op = Op(phase, kind, arm, [str(a) for a in argv], images)
        if "--out" in op.argv:  # eval, qc and ood expect the directory to exist
            Path(op.argv[op.argv.index("--out") + 1]).parent.mkdir(parents=True,
                                                                   exist_ok=True)
        self.ops.append(op)
        tracing = self.tracer is not None and self.tracer.enabled
        if tracing:
            self.tracer.begin_op(len(self.ops), {"kind": kind, "arm": arm,
                                                 "images": images})
        if self.calibrate is not None:
            before = self._calib_after or self.calibrate()
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stderr(stderr):
                op.rc = self.edue["cli"].main(op.argv)
        except Exception:  # an uncaught crash is a failed op, not a dead run
            op.rc = -1
            stderr.write(traceback.format_exc())
        op.seconds = time.perf_counter() - start
        if self.calibrate is not None:
            self._calib_after = self.calibrate()
            op.calib = (before + self._calib_after) / 2
        if op.rc != 0:
            lines = stderr.getvalue().strip().splitlines()
            op.error = lines[-1] if lines else f"exit code {op.rc}"
        elif check is not None:
            if tracing:
                self.tracer.enabled = False
            try:
                op.problems, op.result = check()
            except Exception as exc:  # unreadable output fails the check
                op.problems = [f"output check raised {type(exc).__name__}: {exc}"]
            finally:
                if tracing:
                    self.tracer.enabled = True
        return op

    # -- one method per CLI command -----------------------------------------

    def gen(self, phase, config, seed, n, out, image_shape, n_structures, n_raters):
        load = self.edue["storage"].load_dataset
        return self.run(phase, "gen", ["gen-data", "--config", config, "--seed", seed,
                                       "--n", n, "--out", out], n,
                        check=lambda: checks.check_dataset(load, out, n, image_shape,
                                                           n_structures, n_raters))

    def train(self, phase, config, data, arm, seed, out, n, epochs=1, members=1):
        out = Path(out)
        return self.run(phase, "train", ["train", "--config", config, "--data", data,
                                         "--arm", arm, "--seed", seed, "--out", out],
                        n * epochs * members, arm=arm,
                        check=lambda: checks.final_losses(out, members, epochs))

    def eval(self, phase, arm, model, data, n, out):
        out = Path(out)
        return self.run(phase, "eval", ["eval", "--model", model, "--data", data,
                                        "--out", out], n, arm=arm,
                        check=lambda: (checks.check_eval(out, n), checks.eval_digest(out)))

    def qc(self, phase, arm, model, data, n, out, dice_threshold=0.7):
        out = Path(out)
        return self.run(phase, "qc", ["qc", "--model", model, "--data", data,
                                      "--out", out, "--dice-threshold", dice_threshold],
                        n, arm=arm,
                        check=lambda: (checks.check_qc(out), checks.qc_digest(out)))

    def ood(self, phase, arm, model, data, n, out, fractions, seed):
        out = Path(out)
        return self.run(phase, "ood", ["ood", "--model", model, "--data", data,
                                       "--out", out, "--kind", "gauss_noise",
                                       "--fractions", ",".join(map(str, fractions)),
                                       "--seed", seed], n * len(fractions), arm=arm,
                        check=lambda: (checks.check_ood(out, n, fractions),
                                       checks.ood_digest(out)))

    # -- phases ----------------------------------------------------------------

    def setup(self, build) -> Path:
        """Runs build(dir) setup_reps times; outputs must repeat exactly."""
        results = []
        for rep in range(self.scale.setup_reps):
            first = len(self.ops)
            build(self.work / f"setup{rep}")
            ops = self.ops[first:]
            self.setup_seconds.append(sum(op.calibrated_seconds for op in ops))
            results.append([op.result for op in ops])
        for rep, result in enumerate(results[1:], start=1):
            if result != results[0]:
                self.problems.append(f"setup repetition {rep} produced different "
                                     f"datasets or losses than repetition 0")
        return self.work / f"setup{self.scale.setup_reps - 1}"

    def loop(self, seconds: float, cycle, traced: bool) -> None:
        """Whole cycles until `seconds` pass; a traced run traces the second half."""
        start = time.perf_counter()
        halves = [(seconds / 2, False), (seconds, True)] if traced else [(seconds, False)]
        c = 0
        for deadline, trace_this in halves:
            if trace_this:
                self.tracer.enabled = True
            target = self.traced_cycle_seconds if trace_this else self.cycle_seconds
            first_cycle = True
            while first_cycle or time.perf_counter() - start < deadline:
                first = len(self.ops)
                cycle(c)
                target.append(sum(op.seconds for op in self.ops[first:]))
                c += 1
                first_cycle = False
            if trace_this:
                self.tracer.enabled = False

    # -- results ---------------------------------------------------------------

    def rates(self, calibrated: bool = True) -> dict[str, list]:
        """Images per second of each successful timed command, by metric."""
        rates: dict[str, list] = {}
        for op in self.ops:
            if op.phase in ("warmup", "reference") or op.failed:
                continue
            key = E2E_KEYS.get((op.kind, None)) or E2E_KEYS.get((op.kind, op.arm))
            if key:
                seconds = op.calibrated_seconds if calibrated else op.seconds
                rates.setdefault(key, []).append(op.images / seconds)
        return rates

    def end_to_end(self, peak_rss_mb: float) -> dict:
        rates = self.rates()
        metrics = {name: {"value": statistics.median(rates[name]) if name in rates
                          else 0.0, "unit": "img/s"}
                   for name in E2E_KEYS.values()}
        metrics["setup_s"] = {"value": statistics.median(self.setup_seconds), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        return metrics


# ---------------------------------------------------------------------------
# workloads


def desk_train(b: Bench, seconds: float, traced: bool) -> None:
    """Training at desk shapes: per-op overhead, small matmuls, Adam's loop."""
    s, cfg = b.scale, b.config("desk", DESK)
    shape = (1, 32, 32)
    b.use_calibration(DESK_KERNEL)

    def build(d: Path) -> None:
        b.gen("setup", cfg, derive(b.seed, 2), s.desk_test, d / "test", shape, 1, 4)

    test = b.setup(build) / "test"
    loop = b.work / "loop"
    b.train("warmup", cfg, test, "edue", derive(b.seed, 7), b.work / "warmup", s.desk_test)

    def cycle(c: int) -> None:
        seed = derive(b.seed, 3, c)
        b.gen("loop", cfg, seed, s.desk_train, loop / "train", shape, 1, 4)
        b.train("loop", cfg, loop / "train", "edue", seed, loop / "edue", s.desk_train)
        b.train("loop", cfg, loop / "train", "le", seed, loop / "le", s.desk_train)
        b.train("loop", cfg, loop / "train", "de", seed, loop / "de", s.desk_train,
                members=3)
        b.eval("loop", "edue", loop / "edue", test, s.desk_test, loop / "eval_edue.json")
        b.eval("loop", "de", loop / "de", test, s.desk_test, loop / "eval_de.json")
        b.ood("loop", "edue", loop / "edue", test, s.desk_test, loop / "ood.json",
              OOD_FRACTIONS, seed)

    b.loop(seconds, cycle, traced)
    b.qc("post", "edue", loop / "edue", test, s.desk_test, b.work / "post" / "qc.json")
    desk_reference(b)


def desk_eval(b: Bench, seconds: float, traced: bool) -> None:
    """The read path: forward passes, loads, metrics and harness only."""
    s, cfg = b.scale, b.config("desk", DESK)
    shape = (1, 32, 32)
    arms = {"edue": 1, "le": 1, "de": 3}
    b.use_calibration(DESK_KERNEL)

    def build(d: Path) -> None:
        b.gen("setup", cfg, derive(b.seed, 1), s.eval_train, d / "train", shape, 1, 4)
        for arm, members in arms.items():
            b.train("setup", cfg, d / "train", arm, derive(b.seed, 4), d / arm,
                    s.eval_train, members=members)

    ckpt = b.setup(build)
    loop = b.work / "loop"

    def cycle(c: int) -> None:
        test, seed = loop / "test", derive(b.seed, 3, c)
        b.gen("loop", cfg, seed, s.eval_test, test, shape, 1, 4)
        for arm in ("edue", "le", "de"):
            b.eval("loop", arm, ckpt / arm, test, s.eval_test, loop / f"eval_{arm}.json")
        b.qc("loop", "edue", ckpt / "edue", test, s.eval_test, loop / "qc.json")
        b.ood("loop", "edue", ckpt / "edue", test, s.eval_test, loop / "ood.json",
              OOD_FRACTIONS, seed)

    b.loop(seconds, cycle, traced)
    desk_reference(b)


def fullscale_train(b: Bench, seconds: float, traced: bool) -> None:
    """riga-like shapes: conv2d on 256x256 maps and 256x256 scene generation."""
    s = b.scale
    size = list(s.riga_size)
    cfg = b.config("riga_eval", {**RIGA, "input_size": size,
                                 "head_skip": RIGA_EVAL_HEAD_SKIP})
    shape = (3, *s.riga_size)
    n, n_test = s.riga_train, s.riga_test
    b.use_calibration(RIGA_KERNEL)

    def build(d: Path) -> None:
        b.gen("setup", cfg, derive(b.seed, 2), n_test, d / "test", shape, 2, 6)

    ready = b.setup(build) / "test"
    loop = b.work / "loop"
    b.train("warmup", cfg, ready, "edue", derive(b.seed, 7), b.work / "warmup", n_test)

    def cycle(c: int) -> None:
        # A fresh test set each cycle: scene generation's cost and eval's
        # vary with scene content, so more scenes per run steady both.
        seed, test = derive(b.seed, 3, c), loop / "test"
        b.gen("loop", cfg, seed, n, loop / "train", shape, 2, 6)
        b.gen("loop", cfg, derive(b.seed, 5, c), n_test, test, shape, 2, 6)
        b.train("loop", cfg, loop / "train", "edue", seed, loop / "edue", n)
        b.eval("loop", "edue", loop / "edue", test, n_test, loop / "eval_edue.json")
        b.ood("loop", "edue", loop / "edue", test, n_test, loop / "ood.json",
              RIGA_OOD_FRACTIONS, seed)
        b.train("loop", cfg, loop / "train", "le", seed, loop / "le", n)
        b.train("loop", cfg, loop / "train", "de", seed, loop / "de", n, members=2)
        b.eval("loop", "de", loop / "de", test, n_test, loop / "eval_de.json")

    b.loop(seconds, cycle, traced)
    riga_reference(b)


WORKLOADS = {
    "desk-train": desk_train,
    "fullscale-train": fullscale_train,
    "desk-eval": desk_eval,
}


# ---------------------------------------------------------------------------
# fixed-seed reference pass


def _compare_reference(b: Bench, shape_name: str, got: dict, record: bool) -> dict:
    """Checks got against reference.json, unless recording it; returns got."""
    if record:
        return got
    doc = json.loads(REFERENCE_PATH.read_text())
    want = doc[shape_name]
    for key, value in got.items():
        if key not in want:
            b.problems.append(f"reference.json has no {shape_name}.{key}")
        elif key.endswith("masks_sha256"):
            if value != want[key]:
                b.problems.append(f"{shape_name}.{key}: rater masks differ from reference")
        else:
            b.problems += checks.compare(f"{shape_name}.{key}", value, want[key],
                                         doc["tolerances"][key.split(".")[0]])
    return got


TOLERANCES = {
    # Splitting the conv2d matmul's sum in two (a float32 reordering) moved
    # losses by 9e-6 relative and the de eval values by up to 4e-4
    # relative (ncc, a correlation of small variance maps, by 8e-4
    # absolute); the limits leave about ten times that.  Dropping a kernel
    # row from conv2d's backward, or a term from channel_norm's, moves the
    # losses by 5e-3 or more.  qc and ood are rank and threshold based: one
    # image crossing a cutoff moves them by a step.
    "loss": {"rel": 1e-3, "abs": 1e-6},
    "eval": {"soft_dice": {"rel": 1e-3, "abs": 1e-4},
             "nll": {"rel": 1e-3, "abs": 1e-4},
             "sv_model": {"rel": 4e-3, "abs": 1e-4},
             "ncc": {"abs": 1e-2}},
    "qc": {"abs": 0.05},
    "ood": {"abs": 0.01},
}


def _result(op: Op, what: str, b: Bench):
    if op.failed:
        b.problems.append(f"reference {what} failed: {op.error or op.problems}")
        return None
    return op.result


def desk_reference(b: Bench, record: bool = False) -> dict:
    cfg = b.config("desk_ref", DESK_REF)
    ref, seed = b.work / "reference", REFERENCE_SEED
    shape, n_train, n_test, epochs = (1, 32, 32), 32, 16, 2
    got = {}
    got["masks_sha256"] = _result(
        b.gen("reference", cfg, seed, n_train, ref / "train", shape, 1, 4), "gen", b)
    b.gen("reference", cfg, seed + 1, n_test, ref / "test", shape, 1, 4)
    for arm, members in (("edue", 1), ("le", 1), ("de", 3)):
        got[f"loss.{arm}"] = _result(
            b.train("reference", cfg, ref / "train", arm, seed, ref / arm, n_train,
                    epochs=epochs, members=members), f"train {arm}", b)
    for arm in ("edue", "de"):
        got[f"eval.{arm}"] = _result(
            b.eval("reference", arm, ref / arm, ref / "test", n_test,
                   ref / f"eval_{arm}.json"), f"eval {arm}", b)
    # The briefly trained reference model scores Dice 0.3 to 0.5; a 0.4
    # threshold splits its images so the curve depends on the ranking.
    got["qc.edue"] = _result(b.qc("reference", "edue", ref / "edue", ref / "test",
                                  n_test, ref / "qc.json", dice_threshold=0.4), "qc", b)
    got["ood.edue"] = _result(b.ood("reference", "edue", ref / "edue", ref / "test",
                                    n_test, ref / "ood.json", OOD_FRACTIONS, seed),
                              "ood", b)
    return _compare_reference(b, "desk", got, record)


def riga_reference(b: Bench, record: bool = False) -> dict:
    cfg = b.config("riga_ref", RIGA_REF)
    ref, seed = b.work / "reference", REFERENCE_SEED
    shape = (3, 256, 256)
    got = {}
    got["masks_sha256"] = _result(
        b.gen("reference", cfg, seed, 1, ref / "train", shape, 2, 6), "gen", b)
    b.gen("reference", cfg, seed + 1, 4, ref / "test", shape, 2, 6)
    got["loss.edue"] = _result(b.train("reference", cfg, ref / "train", "edue", seed,
                                       ref / "edue", 1, epochs=2), "train edue", b)
    got["eval.edue"] = _result(b.eval("reference", "edue", ref / "edue", ref / "test", 4,
                                      ref / "eval_edue.json"), "eval edue", b)
    return _compare_reference(b, "riga", got, record)

