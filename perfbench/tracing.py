"""Outside-in tracer for the edue package.

The tracer never edits the program.  It replaces public functions in every
``edue.*`` module namespace that binds them (``cli``, ``harness`` and
``disagreement`` import names directly, so patching only the defining
module would miss their calls), wraps ``Tape.record`` so each backward
closure is timed and labelled with its op and model block, and wraps the
``Tape`` and ``Adam`` methods.  Patches are undone by ``uninstall``.

Spans are kept in memory as ``(id, name, start, end, parent, run, block)``
and written out at the end.  A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the program
is single-threaded.  FLOPs and bytes for conv2d are computed from shapes,
not measured.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Public functions timed per module: (module, function, span name).
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("model", "forward", "model.forward"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("disagreement", "train", "disagreement.train"),
    ("disagreement", "total_loss", "disagreement.total_loss"),
    ("disagreement", "gt_heatmap", "disagreement.gt_heatmap"),
    ("disagreement", "sample_labels", "disagreement.sampler"),
    ("disagreement", "majority_labels", "disagreement.sampler"),
    ("raters", "generate_dataset", "raters.generate_dataset"),
    ("raters", "distort", "raters.distort"),
    ("metrics", "evaluate_predictions", "metrics.evaluate_predictions"),
    ("harness", "evaluate_arm", "harness.evaluate_arm"),
    ("harness", "quality_control", "harness.quality_control"),
    ("harness", "ood_experiment", "harness.ood_experiment"),
    ("harness", "agreement_score", "harness.agreement_score"),
    ("storage", "save_dataset", "storage.save_dataset"),
    ("storage", "load_dataset", "storage.load_dataset"),
    ("storage", "save_checkpoint_dir", "storage.save_checkpoint_dir"),
    ("storage", "load_checkpoint_dir", "storage.load_checkpoint_dir"),
]

# Tape ops whose forward and backward are timed separately.
AUTODIFF_OPS = ("conv2d", "channel_norm", "upsample_nearest", "relu", "sigmoid",
                "concat_channels", "bce_loss", "variance_along_first_axis",
                "stack_first")

# conv2d blocks the traced loops execute: the desk and riga-like multi-head
# nets plus the desk single-head member (which adds dec3.conv).
CONV_BLOCKS = ([f"enc{i}.{part}" for i in range(6) for part in ("conv", "down")]
               + [f"dec{j}.conv" for j in range(5)]
               + [f"head{j}.out" for j in range(5)])

SPAN_COLUMNS = ("id", "name", "start", "end", "parent", "run", "block")

SECONDS = {"unit": "s", "better": "lower"}
COUNT = {"unit": "count", "better": "lower"}

# Per-layer metric table: name -> unit and direction.  Every value is per
# workload cycle of the traced half of the loop.
PER_LAYER: dict[str, dict] = {}
for _op in AUTODIFF_OPS:
    PER_LAYER[f"autodiff.{_op}.fwd_s"] = SECONDS
    PER_LAYER[f"autodiff.{_op}.bwd_s"] = SECONDS
    PER_LAYER[f"autodiff.{_op}.calls"] = COUNT
for _block in CONV_BLOCKS:
    PER_LAYER[f"autodiff.conv2d.{_block}.fwd_s"] = SECONDS
    PER_LAYER[f"autodiff.conv2d.{_block}.bwd_s"] = SECONDS
PER_LAYER.update({
    "autodiff.conv2d.gflop": {"unit": "GFLOP", "better": "lower"},
    "autodiff.conv2d.mb_moved": {"unit": "MB", "better": "lower"},
    "autodiff.conv2d.gflop_per_s": {"unit": "GFLOP/s", "better": "higher"},
    "autodiff.tape.backward_s": SECONDS,
    "autodiff.tape.records_per_step": COUNT,
    "autodiff.tape.activation_mb": {"unit": "MB", "better": "lower"},
    "autodiff.adam.step_s": SECONDS,
    "autodiff.adam.zero_grad_s": SECONDS,
    "model.forward.self_s": SECONDS,
    "model.forward.calls_per_image.edue": COUNT,
    "model.forward.calls_per_image.de": COUNT,
    "model.save_checkpoint_s": SECONDS,
    "model.load_checkpoint_s": SECONDS,
    "disagreement.train.self_s": SECONDS,
    "disagreement.sampler_s": SECONDS,
    "disagreement.total_loss.self_s": SECONDS,
    "disagreement.gt_heatmap_s": SECONDS,
    "raters.generate_dataset_s": SECONDS,
    "raters.distort_s": SECONDS,
    "metrics.evaluate_predictions_s": SECONDS,
    "harness.evaluate_arm.self_s": SECONDS,
    "harness.quality_control_s": SECONDS,
    "harness.ood_experiment.self_s": SECONDS,
    "harness.agreement_score_s": SECONDS,
    "storage.save_dataset_s": SECONDS,
    "storage.load_dataset_s": SECONDS,
    "storage.save_checkpoint_dir.self_s": SECONDS,
    "storage.load_checkpoint_dir.self_s": SECONDS,
    "container.save_container_s": SECONDS,
    "container.load_container_s": SECONDS,
    "container.mb_written": {"unit": "MB", "better": "lower"},
    "container.mb_read": {"unit": "MB", "better": "lower"},
    "config.load_config_s": SECONDS,
    "cli.main.self_s": SECONDS,
    "trace.cycle_s": SECONDS,
    "trace.untraced_cycle_s": SECONDS,
    "trace.overhead_pct": {"unit": "%", "better": "lower"},
})


class Tracer:
    def __init__(self, edue_modules: dict):
        self.modules = edue_modules
        self.enabled = False
        self.spans: list[tuple] = []
        self.run = None
        self.run_info: dict[int, dict] = {}
        self._stack: list[tuple] = []
        self._next_id = 0
        self._current_op = None
        self._patches: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name: str, block: str | None = None) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, name, block, parent, time.perf_counter()))

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, block, parent, start = self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.run, block))

    def begin_op(self, run_id: int, info: dict) -> None:
        self.run = run_id
        self.run_info[run_id] = info

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, module_name: str, func_name: str, wrapper) -> None:
        """Replace the function in every edue module that binds it."""
        original = getattr(self.modules[module_name], func_name)
        for module in self.modules.values():
            if getattr(module, func_name, None) is original:
                self._set(module, func_name, wrapper)

    def install(self) -> None:
        for module_name, func_name, span in FUNCTIONS:
            fn = getattr(self.modules[module_name], func_name)
            self._rebind(module_name, func_name, self._timed(span, fn))
        self._install_container()
        self._install_autodiff()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_container(self) -> None:
        container = self.modules["container"]
        tracer = self
        save = container.save_container
        load = container.load_container
        timed_save = self._timed("container.save_container", save)
        timed_load = self._timed("container.load_container", load)

        @functools.wraps(save)
        def save_wrapper(path, tensors):
            timed_save(path, tensors)
            if tracer.enabled:
                tracer.totals["container.bytes_written"] += os.path.getsize(path)

        @functools.wraps(load)
        def load_wrapper(path):
            if tracer.enabled:
                tracer.totals["container.bytes_read"] += os.path.getsize(path)
            return timed_load(path)

        self._rebind("container", "save_container", save_wrapper)
        self._rebind("container", "load_container", load_wrapper)

    def _install_autodiff(self) -> None:
        ad = self.modules["autodiff"]
        tracer = self
        for op in AUTODIFF_OPS:
            self._set(ad, op, self._op_forward(op, getattr(ad, op)))

        record = ad.Tape.record

        @functools.wraps(record)
        def record_wrapper(tape, out, backward):
            if tracer.enabled:
                op, block, counts = tracer._current_op or ("other", None, None)
                backward = tracer._op_backward(op, block, counts, backward)
            return record(tape, out, backward)
        self._set(ad.Tape, "record", record_wrapper)

        backward = ad.Tape.backward
        timed_backward = self._timed("autodiff.tape.backward", backward)

        @functools.wraps(backward)
        def backward_wrapper(tape, root):
            if tracer.enabled:
                tracer.totals["tape.steps"] += 1
                tracer.totals["tape.records"] += len(tape.records)
                held = sum(out.data.nbytes for out, _ in tape.records)
                tracer.totals["tape.activation_bytes_max"] = max(
                    tracer.totals["tape.activation_bytes_max"], held)
            return timed_backward(tape, root)
        self._set(ad.Tape, "backward", backward_wrapper)
        self._set(ad.Adam, "step", self._timed("autodiff.adam.step", ad.Adam.step))
        self._set(ad.Adam, "zero_grad",
                  self._timed("autodiff.adam.zero_grad", ad.Adam.zero_grad))

    def _op_forward(self, op: str, fn):
        tracer = self
        span = f"autodiff.{op}.fwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            block, counts = _conv_block_and_counts(args, kwargs) if op == "conv2d" \
                else (None, None)
            outer = tracer._current_op
            tracer._current_op = (op, block, counts)
            tracer._enter(span, block)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
                tracer._current_op = outer
            if counts is not None:
                tracer.totals["conv.flop"] += counts["fwd_flop"]
                tracer.totals["conv.bytes"] += counts["fwd_bytes"]
            return out
        return wrapper

    def _op_backward(self, op: str, block: str | None, counts: dict | None, fn):
        tracer = self
        span = f"autodiff.{op}.bwd"

        def wrapper(grad):
            if not tracer.enabled:
                return fn(grad)
            tracer._enter(span, block)
            try:
                return fn(grad)
            finally:
                tracer._exit()
                if counts is not None:
                    tracer.totals["conv.flop"] += counts["bwd_flop"]
                    tracer.totals["conv.bytes"] += counts["bwd_bytes"]
        return wrapper

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid]
                for sid, _, start, end, _, _, _ in self.spans}

    def per_layer(self, cycles: int, cycle_s: float, untraced_cycle_s: float) -> dict:
        """Every PER_LAYER metric, per traced workload cycle; 0 where unused."""
        selfs = self.self_times()
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        forwards = defaultdict(int)
        for sid, name, start, end, _, run, block in self.spans:
            total[name] += end - start
            own[name] += selfs[sid]
            calls[name] += 1
            if block is not None:
                total[f"{name}:{block}"] += end - start
            info = self.run_info.get(run, {})
            if name == "model.forward" and info.get("kind") == "eval":
                forwards[info.get("arm")] += 1
        images = defaultdict(int)
        for run, info in self.run_info.items():
            if info["kind"] == "eval":
                images[info["arm"]] += info["images"]

        values: dict[str, float] = {}
        for op in AUTODIFF_OPS:
            values[f"autodiff.{op}.fwd_s"] = total[f"autodiff.{op}.fwd"]
            values[f"autodiff.{op}.bwd_s"] = total[f"autodiff.{op}.bwd"]
            values[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}.fwd"]
        for block in CONV_BLOCKS:
            values[f"autodiff.conv2d.{block}.fwd_s"] = total[f"autodiff.conv2d.fwd:{block}"]
            values[f"autodiff.conv2d.{block}.bwd_s"] = total[f"autodiff.conv2d.bwd:{block}"]
        conv_s = total["autodiff.conv2d.fwd"] + total["autodiff.conv2d.bwd"]
        gflop = self.totals["conv.flop"] / 1e9
        steps = self.totals["tape.steps"]
        values.update({
            "autodiff.conv2d.gflop": gflop,
            "autodiff.conv2d.mb_moved": self.totals["conv.bytes"] / 1e6,
            "autodiff.tape.backward_s": total["autodiff.tape.backward"],
            "autodiff.adam.step_s": total["autodiff.adam.step"],
            "autodiff.adam.zero_grad_s": total["autodiff.adam.zero_grad"],
            "model.forward.self_s": own["model.forward"],
            "model.save_checkpoint_s": total["model.save_checkpoint"],
            "model.load_checkpoint_s": total["model.load_checkpoint"],
            "disagreement.train.self_s": own["disagreement.train"],
            "disagreement.sampler_s": total["disagreement.sampler"],
            "disagreement.total_loss.self_s": own["disagreement.total_loss"],
            "disagreement.gt_heatmap_s": total["disagreement.gt_heatmap"],
            "raters.generate_dataset_s": total["raters.generate_dataset"],
            "raters.distort_s": total["raters.distort"],
            "metrics.evaluate_predictions_s": total["metrics.evaluate_predictions"],
            "harness.evaluate_arm.self_s": own["harness.evaluate_arm"],
            "harness.quality_control_s": total["harness.quality_control"],
            "harness.ood_experiment.self_s": own["harness.ood_experiment"],
            "harness.agreement_score_s": total["harness.agreement_score"],
            "storage.save_dataset_s": total["storage.save_dataset"],
            "storage.load_dataset_s": total["storage.load_dataset"],
            "storage.save_checkpoint_dir.self_s": own["storage.save_checkpoint_dir"],
            "storage.load_checkpoint_dir.self_s": own["storage.load_checkpoint_dir"],
            "container.save_container_s": total["container.save_container"],
            "container.load_container_s": total["container.load_container"],
            "container.mb_written": self.totals["container.bytes_written"] / 1e6,
            "container.mb_read": self.totals["container.bytes_read"] / 1e6,
            "config.load_config_s": total["config.load_config"],
            "cli.main.self_s": own["cli.main"],
        })
        per_cycle = {name: value / cycles for name, value in values.items()}
        # Ratios and per-step figures are not divided by the cycle count.
        per_cycle.update({
            "autodiff.conv2d.gflop_per_s": gflop / conv_s if conv_s else 0.0,
            "autodiff.tape.records_per_step":
                self.totals["tape.records"] / steps if steps else 0.0,
            "autodiff.tape.activation_mb": self.totals["tape.activation_bytes_max"] / 1e6,
            "model.forward.calls_per_image.edue":
                forwards["edue"] / images["edue"] if images["edue"] else 0.0,
            "model.forward.calls_per_image.de":
                forwards["de"] / images["de"] if images["de"] else 0.0,
            "trace.cycle_s": cycle_s,
            "trace.untraced_cycle_s": untraced_cycle_s,
            "trace.overhead_pct": 100.0 * (cycle_s - untraced_cycle_s) / untraced_cycle_s,
        })
        if set(per_cycle) != set(PER_LAYER):
            raise RuntimeError(f"per-layer table mismatch: {set(per_cycle) ^ set(PER_LAYER)}")
        return per_cycle

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": SPAN_COLUMNS, "spans": self.spans,
                       "runs": self.run_info}, fh)


def _conv_block_and_counts(args, kwargs) -> tuple[str | None, dict]:
    """Block label from the kernel's parameter name, FLOPs and bytes from shapes."""
    x, kernel = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    b, cin, h, w = x.data.shape
    cout, _, kh, kw = kernel.data.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    item = x.data.dtype.itemsize
    macs = b * ho * wo * cout * cin * kh * kw
    cols = b * ho * wo * cin * kh * kw * item
    weights = cout * cin * kh * kw * item
    out = b * cout * ho * wo * item
    # Backward always forms dW; dX (another matmul plus a col2im pass over
    # the columns) only when the input needs a gradient.
    dx = 1 if x.requires_grad else 0
    block = kernel.name[:-2] if kernel.name and kernel.name.endswith(".w") else None
    return block, {
        "fwd_flop": 2 * macs,
        "fwd_bytes": cols + weights + out,
        "bwd_flop": 2 * macs * (1 + dx),
        "bwd_bytes": cols + weights + out + dx * cols,
    }
