"""In-memory span tracer for the traced benchmark run.

The tracer wraps twinrec's public functions at the names where the
program looks them up (``twinrec.model.twin_forward``,
``twinrec.encoder.conv_branch``, ``SequentialRecommender.forward``, ...),
so no file of the program changes. Each call records a span: id, parent
span, name, request id, start and end. The cyclic garbage collector's
pauses are recorded as ``gc.gen<N>`` child spans of whatever span was open,
through ``gc.callbacks``, in a list of their own: a collection can start
inside ``_open`` or ``_close``, and must not shift the ids of the spans
being opened. A span's self time is its duration minus the
time its child spans cover, so collector pauses never count as a layer's
own work.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from contextlib import contextmanager

import twinrec.data
import twinrec.embedding
import twinrec.encoder
import twinrec.model
import twinrec.training
from twinrec.autodiff import Tensor
from twinrec.model import SequentialRecommender
from twinrec.training import Adam

# (span name, owner, attribute): the owner is the module or class through
# which the program resolves the name at call time.
TARGETS = [
    ("data.ingest", twinrec.data, "ingest"),
    ("data.build_sequences", twinrec.data, "build_sequences"),
    ("data.context_vocab", twinrec.data, "build_context_vocab"),
    ("data.windows", twinrec.data, "generate_training_samples"),
    ("embedding.embed", twinrec.embedding, "embed_sequence"),
    ("embedding.lookup", twinrec.embedding, "lookup_bases"),
    ("embedding.fuse", twinrec.embedding, "fuse_dynamic"),
    ("embedding.context", twinrec.embedding, "contextualize"),
    ("encoder.twin", twinrec.model, "twin_forward"),
    ("encoder.conv", twinrec.encoder, "conv_branch"),
    ("encoder.attn", twinrec.encoder, "attn_branch"),
    ("model.forward", SequentialRecommender, "forward"),
    ("model.forward_scores", SequentialRecommender, "forward_scores"),
    ("model.predict_topk", SequentialRecommender, "predict_topk"),
    ("model.training_loss", SequentialRecommender, "training_loss"),
    ("autodiff.backward", Tensor, "backward"),
    ("training.adam", Adam, "step"),
    ("training.rank", twinrec.training, "rank_of"),
]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []     # [id, parent, name, request, start, end]
        self.gc_spans = []  # [parent, name, request, start, end]
        self._stack = []
        self._gc_open = None
        self.request = None

    # -- recording ------------------------------------------------------

    # A span is open from its start stamp to its end stamp. It is on the
    # stack for longer: pushed before the start is stamped and popped after
    # the end is, so a collection that runs in between is still charged to
    # the innermost span whose interval holds it.

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                self.request, None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[4] = time.perf_counter()
        return span[0]

    def _close(self, sid):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def _innermost_open(self):
        for sid in reversed(self._stack):
            span = self.spans[sid]
            if span[4] is not None and span[5] is None:
                return sid
        return -1

    @contextmanager
    def span(self, name, request):
        """A span opened by the benchmark's own code around a call into the program."""
        self.request = request
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_open = (self._innermost_open(), time.perf_counter())
        elif self._gc_open is not None:
            parent, start = self._gc_open
            self.gc_spans.append([parent, f"gc.gen{info['generation']}", self.request,
                                  start, time.perf_counter()])
            self._gc_open = None

    # -- patching -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target and listen to the collector; undo both on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TARGETS]
        for (name, _, _), (owner, attr, original) in zip(TARGETS, saved):
            setattr(owner, attr, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def all_spans(self):
        """The program's spans, then the collector's, numbered after them."""
        n = len(self.spans)
        return self.spans + [[n + i, *gc_span] for i, gc_span in enumerate(self.gc_spans)]

    def summary(self, root):
        """Per-name totals under every span named ``root``.

        Returns {name: {"calls", "total", "self"}} in seconds, where self
        time excludes the time covered by child spans.
        """
        spans = self.all_spans()
        child_time = [0.0] * len(spans)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        under = [False] * len(spans)
        out = {}
        for sid, parent, name, _, start, end in spans:
            # a parent's id is below its children's, so it is visited first
            under[sid] = name == root or (parent >= 0 and under[parent])
            if not under[sid]:
                continue
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[sid]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"columns": ["id", "parent", "name", "request", "start", "end"],
                       "spans": self.all_spans()}, f, separators=(",", ":"))
