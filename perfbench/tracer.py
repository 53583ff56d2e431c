"""In-memory spans around recdro's public calls, patched in from outside.

A span is ``(span_id, parent_id, name, start, end, run_id, work)``. Spans
stay in memory while the benchmark runs and are written out when it ends.
Self time is a span's duration minus the time its child spans cover, minus
the time the recorder itself spent inside the span (the bookkeeping around
child spans and the counter hooks), so the recorder's cost is charged to
nobody's layer; it shows up only as the traced-minus-untraced wall time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

#: Patch levels: ENTRY wraps only the public entry points a user calls
#: (dataset build, train, evaluate, cli.main); they are a handful of spans
#: per workload iteration and give the end-to-end numbers. LAYER adds a span
#: at every layer boundary for the per-layer numbers.
ENTRY, LAYER = 0, 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run_id = "idle"
        self._stack: list[int] = []
        self._excluded: dict[int, float] = defaultdict(float)
        self._next_id = 0

    def count(self, key: str, value: float) -> None:
        self.counters[self.run_id][key] += value

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording a span per call; ``hook(out, args)`` may
        count work and returns the span's work figure (or None)."""
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            work = hook(out, args) if hook is not None else None
            tracer.spans.append((sid, parent, name, start, end, tracer.run_id, work))
            if parent is not None:
                tracer._excluded[parent] += (start - enter) + (perf_counter() - end)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] - self._excluded[sid]
                for sid, _, _, start, end, _, _ in self.spans}

    def write(self, path) -> None:
        """One JSON array per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _patch_table(tracer: Tracer):
    """(owner, attribute, span name, level, hook) for every patched call.

    ``model``, ``evaluate`` and ``cli`` bind ``sample_negatives``,
    ``bsl_loss``, ``score_all_items``, ``evaluate``, ``train``,
    ``load_dataset`` and ``save_checkpoint`` by name at import, so each is
    rebound in the module that calls it. ``recdro.evaluate`` is reached
    through ``sys.modules`` because the package re-exports a function of the
    same name.
    """
    import numpy as np

    data = sys.modules["recdro.data"]
    losses = sys.modules["recdro.losses"]
    model = sys.modules["recdro.model"]
    evaluate = sys.modules["recdro.evaluate"]
    cli = sys.modules["recdro.cli"]

    def on_train(out, args):
        ds, cfg = args[0], args[1]
        return ds.n_train_interactions * cfg.epochs

    def on_evaluate(out, args):
        return out.n_eval_users

    def on_sample(out, args):
        ds, user, n = args[1], args[2], args[3]
        pos = ds.train_pos[user]
        tracer.count("sampling.draws", n)
        if pos.size:
            at = np.minimum(np.searchsorted(pos, out), pos.size - 1)
            tracer.count("sampling.false_negatives", int(np.count_nonzero(pos[at] == out)))
        return n

    def on_sampled_grads(out, args):
        tracer.count("model.unique_items", out[3].size)
        return None

    def on_adam(out, args):
        tracer.count("model.adam_rows", len(args[2]) + len(args[4]))
        return None

    def on_score(out, args):
        emb = args[0]
        tracer.count("model.score_all_items.bytes_computed", emb.n_items * emb.d * 8)
        return None

    def on_checkpoint(out, args):
        tracer.count("model.save_checkpoint.bytes", os.path.getsize(args[0]))
        return None

    table = [
        (data.Dataset, "from_positive_lists", "data.dataset_build", ENTRY, None),
        (data, "load_dataset", "data.dataset_build", ENTRY, None),
        (cli, "load_dataset", "data.dataset_build", ENTRY, None),
        (model, "train", "model.train", ENTRY, on_train),
        (cli, "train", "model.train", ENTRY, on_train),
        (evaluate, "evaluate", "evaluate.evaluate", ENTRY, on_evaluate),
        (cli, "evaluate", "evaluate.evaluate", ENTRY, on_evaluate),
        (cli, "main", "cli.main", ENTRY, None),
        (model, "sample_negatives", "sampling.sample_negatives", LAYER, on_sample),
        (model, "bsl_loss", "losses", LAYER, None),
        (model, "sampled_batch_grads", "model.sampled_batch_grads", LAYER, on_sampled_grads),
        (model, "inbatch_batch_grads", "model.inbatch_batch_grads", LAYER, None),
        (model.AdamState, "apply", "model.AdamState.apply", LAYER, on_adam),
        (evaluate, "score_all_items", "model.score_all_items", LAYER, on_score),
        (evaluate, "rank_items", "evaluate.rank_items", LAYER, None),
        (cli, "save_checkpoint", "model.save_checkpoint", LAYER, on_checkpoint),
    ]
    # loss_fn_from_spec closes over the losses module's globals
    for fn in ("bpr_loss", "bce_loss", "mse_loss", "softmax_loss",
               "softmax_loss_no_variance", "bsl_loss"):
        table.append((losses, fn, "losses", LAYER, None))
    return table


class Instrumentation:
    """Context manager that installs the patch table up to ``level``."""

    def __init__(self, tracer: Tracer, level: int):
        self.tracer = tracer
        self.level = level
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, level, hook in _patch_table(self.tracer):
            if level > self.level:
                continue
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.tracer.wrap(name, raw.__func__, hook))
            else:
                new = self.tracer.wrap(name, raw, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False
