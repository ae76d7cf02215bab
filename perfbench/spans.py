"""In-memory span tracer installed as class-level wrappers.

Only the traced run installs it.  Each wrapped call records one span
(name, start, end, parent) in this process; ``write_chrome`` dumps the
spans as Chrome trace-event JSON and ``layer_table`` folds them into
per-name call counts, busy time and self time (busy time minus the time
covered by direct child spans).

The process executor's pool workers are forked after the wrappers are
installed, so they inherit them; a wrapper called in any process other
than the one that installed it calls straight through.  Worker-side work
therefore shows only as the parent's wait inside ``train_round``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (layer, call, owner, attribute): ``owner`` is the dotted import path of
# the module or class whose own namespace defines ``attribute`` -- the
# implementations the three workloads run.  Spans are named
# ``<layer>.<call>``; per-layer metric names extend that prefix.
WRAPPED = [
    ("fl.scheduling", "select", "repro.fl.scheduling.selectors.UniformSelector", "select"),
    ("fl.scheduling", "select", "repro.fl.scheduling.selectors.OortSelector", "select"),
    ("fl.scheduling", "straggler.resolve_wave", "repro.fl.scheduling.straggler.DownsizePolicy", "resolve_wave"),
    ("fl.scheduling", "pacing.buffer_k", "repro.fl.scheduling.pacing.QuantilePacing", "buffer_k"),
    ("fl.scheduling", "pacing.deadline_for", "repro.fl.scheduling.pacing.QuantilePacing", "deadline_for"),
    ("fl.scheduling", "pacing.observe_arrival", "repro.fl.scheduling.pacing.QuantilePacing", "observe_arrival"),
    ("fl.scheduling", "fleet.advance", "repro.fl.scheduling.fleet.FleetStore", "advance"),
    ("core.runtime", "assign", "repro.core.runtime.FedTransStrategy", "assign"),
    ("core.runtime", "aggregate", "repro.core.runtime.FedTransStrategy", "aggregate"),
    ("core.aggregator", "aggregate", "repro.core.aggregator.ModelAggregator", "aggregate"),
    ("core.transformer", "observe_round", "repro.core.transformer.ModelTransformer", "observe_round"),
    ("core.transformer", "transform", "repro.core.transformer.ModelTransformer", "transform"),
    ("fl.executor", "train_round", "repro.fl.executor.SerialExecutor", "train_round"),
    ("fl.executor", "train_round", "repro.fl.executor.ProcessPoolRoundExecutor", "train_round"),
    ("fl.executor", "eval_round", "repro.fl.executor.SerialExecutor", "eval_round"),
    ("fl.executor", "logits_round", "repro.fl.executor.SerialExecutor", "logits_round"),
    ("fl.executor", "eval_and_logits_round", "repro.fl.executor.RoundExecutor", "eval_and_logits_round"),
    ("fl.executor", "eval_and_logits_round", "repro.fl.executor.ProcessPoolRoundExecutor", "eval_and_logits_round"),
    ("fl.client", "train", "repro.fl.client.LocalTrainer", "train"),
    ("nn", "model.forward", "repro.nn.model.CellModel", "forward"),
    ("nn", "model.backward", "repro.nn.model.CellModel", "backward"),
    ("nn", "model.clone", "repro.nn.model.CellModel", "clone"),
    ("nn", "model.predict", "repro.nn.model.CellModel", "predict"),
    ("nn", "optim.sgd_step", "repro.nn.optim.SGD", "step"),
    ("nn", "Dense.forward", "repro.nn.layers.Dense", "forward"),
    ("nn", "Dense.backward", "repro.nn.layers.Dense", "backward"),
    ("nn", "Conv2d.forward", "repro.nn.layers.Conv2d", "forward"),
    ("nn", "Conv2d.backward", "repro.nn.layers.Conv2d", "backward"),
    ("nn", "BatchNorm2d.forward", "repro.nn.layers.BatchNorm2d", "forward"),
    ("nn", "BatchNorm2d.backward", "repro.nn.layers.BatchNorm2d", "backward"),
    ("nn", "functional.im2col", "repro.nn.functional", "im2col"),
    ("nn", "functional.col2im", "repro.nn.functional", "col2im"),
    ("fl.transport", "encode_update", "repro.fl.transport.TransportCodec", "encode_update"),
    ("fl.faults", "admit", "repro.fl.faults.UpdateValidator", "admit"),
    ("fl.coordinator", "evaluate", "repro.fl.coordinator.Coordinator", "evaluate"),
    ("fl.checkpoint", "write", "repro.fl.checkpoint.CheckpointWriter", "write"),
]

# Calls whose ``items`` argument (the second after ``self``) is a list of
# work items; the table reports its summed length as ``<name>.items``.
ITEM_COUNTED = {"fl.executor.train_round", "core.runtime.aggregate"}

SPAN_NAMES = sorted({f"{layer}.{call}" for layer, call, _, _ in WRAPPED})


def _resolve(path: str):
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for part in parts[split:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(path)


class Tracer:
    """Records spans from wrapped calls; ``uninstall`` restores the originals."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []  # span name by name id
        self.spans: list[tuple[int, float, float, int]] = []  # name, t0, t1, parent
        self.items: dict[str, int] = {}
        self._stack: list[int] = []  # open spans (indices), innermost last
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for layer, call, owner, attr in WRAPPED:
            obj = _resolve(owner)
            if attr not in vars(obj):
                raise AttributeError(f"{owner} defines no {attr!r}; update perfbench/spans.py")
            original = vars(obj)[attr]
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(f"{layer}.{call}", original))
        return self

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        counted = name in ITEM_COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # a forked pool worker
                return fn(*args, **kwargs)
            stack = tracer._stack
            if counted:
                tracer.items[name] = tracer.items.get(name, 0) + len(args[2])
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append((name_id, 0.0, 0.0, parent))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans[idx] = (name_id, t0, t1, parent)

        return wrapper

    # ------------------------------------------------------------------
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        table = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
        for i, (nid, t0, t1, _) in enumerate(self.spans):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return table

    def top_level_busy(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        base = min((t0 for _, t0, _, _ in self.spans), default=0.0)
        events = [
            {
                "name": self.names[nid],
                "cat": self.names[nid].rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((t0 - base) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": self.pid,
                "tid": 1,
                "args": {"span": i, "parent": parent},
            }
            for i, (nid, t0, t1, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, separators=(",", ":"))
