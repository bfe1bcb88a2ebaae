"""Tracing from outside the program: spans and counts recorded by wrapping
the public functions and methods of the evacnet modules.

Every wrapped name is looked up through its module's globals (or its
class) at call time, so replacing the attribute intercepts every call,
including calls between functions of the same module. Nothing inside the
program changes: the wrappers pass arguments and results through
untouched, so a traced run computes exactly what an untraced one does.

A span is (name, start, end, parent, step): `parent` is the index of the
enclosing span or -1, `step` the forecaster training step it belongs to
(None outside `trainer.train`). Self time is a span's duration minus the
durations of its direct children, which on one thread never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import clock
from evacnet import dataio, dmf, graphs, numcore, rlagent, synth, trainer

# (owner, attribute, span name). Owners are modules or classes.
TRACED = (
    (synth, "generate", "synth.generate"),
    (dataio, "prepare", "dataio.prepare"),
    (dataio, "load_csv", "dataio.load_csv"),
    (dataio, "engineer_features", "dataio.engineer_features"),
    (dataio, "split_and_fit", "dataio.split_and_fit"),
    (dataio, "make_windows", "dataio.make_windows"),
    (graphs, "build_snapshot", "graphs.build_snapshot"),
    (dmf, "forward", "dmf.forward"),
    (dmf, "gcn_layer", "dmf.gcn_layer"),
    (dmf, "attention_fuse", "dmf.attention_fuse"),
    (dmf, "lstm_step", "dmf.lstm_step"),
    (dmf, "predict_head", "dmf.predict_head"),
    (numcore.Tensor, "backward", "numcore.backward"),
    (numcore.Adam, "step", "numcore.Adam.step"),
    (rlagent.Agent, "act", "rlagent.Agent.act"),
    (rlagent.Agent, "observe", "rlagent.Agent.observe"),
    (rlagent.Agent, "learn", "rlagent.Agent.learn"),
    (rlagent, "ddqn_target", "rlagent.ddqn_target"),
    (rlagent.ReplayBuffer, "sample", "rlagent.ReplayBuffer.sample"),
    (trainer, "train", "trainer.train"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "load_checkpoint", "trainer.load_checkpoint"),
    # the benchmark's own calibration runs between epochs, inside
    # trainer.train; its span keeps it out of train's self time
    (clock, "calibrate", "trace.calibrate"),
)

# Span that holds the tracer's own graph walk, so it is not billed as the
# self time of the span that encloses it.
COUNT_SPAN = "trace.count_nodes"


def count_graph_nodes(loss):
    """Distinct tensors reachable from `loss` through autograd parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def snapshot_nbytes(snapshot):
    """Bytes held by the four dense arrays of one graph snapshot."""
    return (snapshot.adj_d.nbytes + snapshot.adj_tt.nbytes
            + snapshot.norm_d.nbytes + snapshot.norm_tt.nbytes)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self._open = []  # indices into spans, innermost last
        self.step = None
        self.counts = defaultdict(int)
        self._originals = []

    # ---- span bookkeeping ----

    def _begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.step])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._open)

    # ---- hooks run around particular calls ----

    def _before(self, name, args):
        if name == "numcore.backward":
            self._begin(COUNT_SPAN)
            nodes = count_graph_nodes(args[0])
            self._end()
            side = "agent" if self._inside("rlagent.Agent.learn") \
                else "forecaster"
            self.counts[f"{side}_backward"] += 1
            self.counts[f"{side}_graph_nodes"] += nodes
        elif name == "trainer.train":
            self.step = 0

    def _after(self, name, args, result):
        if name == "graphs.build_snapshot":
            self.counts["snapshot_bytes"] += snapshot_nbytes(result)
        elif name == "numcore.Adam.step":
            if self.step is not None \
                    and not self._inside("rlagent.Agent.learn"):
                self.step += 1
        elif name == "rlagent.Agent.observe":
            self.counts["buffer_len"] = len(args[0].buffer)
        elif name == "trainer.save_checkpoint":
            self.counts["checkpoint_bytes"] = os.path.getsize(args[2])
        elif name == "trainer.train":
            self.step = None

    def _wrap(self, original, name):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end()
            self._after(name, args, result)
            return result
        return wrapper

    def __enter__(self):
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    # ---- results ----

    def totals(self):
        """name -> {"calls", "s", "self_s"} over every closed span."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[k]
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "step": step}) + "\n")
