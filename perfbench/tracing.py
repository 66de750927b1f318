"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of ``adrtag`` at the attribute
each caller looks up (``adrtag.model.sigmoid`` is the name ``model`` calls,
``adrtag.evaluation.decode_spans`` the one ``evaluate_tagging`` calls). A span
is ``(name, start, end, parent)``; spans stay in a list until the run ends.
A layer's self time is its spans' durations minus the time of their child
spans. Targets that no longer exist are reported as missing instead of
failing, so the benchmark still runs after a refactor renames them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np

# layer -> the attributes whose calls make up its spans
LAYERS = {
    "model.encode": ["adrtag.model:AdrModel.encode_batch"],
    "model.backward": [
        "adrtag.model:AdrModel.backward_drug",
        "adrtag.model:AdrModel.backward_tags",
    ],
    "model.drug_head": [
        "adrtag.model:AdrModel.drug_loss",
        "adrtag.model:AdrModel.predict_drug_batch",
    ],
    "model.tag_head": ["adrtag.model:AdrModel.tag_loss"],
    "model.predict": ["adrtag.model:AdrModel.predict_tags"],
    "numerics.sigmoid": ["adrtag.model:sigmoid"],
    "numerics.softmax": ["adrtag.model:softmax_rows", "adrtag.model:softmax"],
    "training.adam": ["adrtag.training:Adam.step"],
    "training.pad": ["adrtag.training:pad_batch"],
    "training.loop": ["adrtag.training:pretrain", "adrtag.training:train_supervised"],
    "training.checkpoint_save": ["adrtag.training:save_checkpoint"],
    "training.checkpoint_load": ["adrtag.training:load_checkpoint"],
    "text.preprocess": [
        "adrtag.text:normalize",
        "adrtag.text:tokenize",
        "adrtag.text:remove_stopwords",
        "adrtag.text:mask_drug",
        "adrtag.text:normalize_token",
        "adrtag.text:Vocabulary.indices",
    ],
    "text.vocab_build": ["adrtag.text:Vocabulary.build"],
    "text.load_embeddings": ["adrtag.text:load_embeddings"],
    "encoding.read_conll": ["adrtag.encoding:read_conll"],
    "encoding.decode_spans": [
        "adrtag.encoding:decode_spans",
        "adrtag.evaluation:decode_spans",
    ],
    "evaluation.match": ["adrtag.evaluation:approximate_match"],
    "evaluation.evaluate": ["adrtag.evaluation:evaluate_tagging"],
}

# per-layer metric -> (unit, how it is computed)
PER_LAYER = {
    "model.backward_s": ("s", ("self", "model.backward")),
    "model.encode_s": ("s", ("self", "model.encode")),
    "model.encode_calls": ("count", ("calls", "model.encode")),
    "model.real_token_share": ("ratio", ("counter", "model.real_token_share")),
    "model.drug_head_s": ("s", ("self", "model.drug_head")),
    "model.tag_head_s": ("s", ("self", "model.tag_head")),
    "model.predict_s": ("s", ("self", "model.predict")),
    "numerics.sigmoid_s": ("s", ("self", "numerics.sigmoid")),
    "numerics.softmax_s": ("s", ("self", "numerics.softmax")),
    "numerics.calls": ("count", ("calls", "numerics.sigmoid", "numerics.softmax")),
    "training.adam_s": ("s", ("self", "training.adam")),
    "training.adam_calls": ("count", ("calls", "training.adam")),
    "training.pad_s": ("s", ("self", "training.pad")),
    "training.loop_self_s": ("s", ("self", "training.loop")),
    "training.checkpoint_save_s": ("s", ("self", "training.checkpoint_save")),
    "training.checkpoint_load_s": ("s", ("self", "training.checkpoint_load")),
    "text.preprocess_s": ("s", ("self", "text.preprocess")),
    "text.rejected_share": ("ratio", ("counter", "text.rejected_share")),
    "text.vocab_build_s": ("s", ("self", "text.vocab_build")),
    "text.load_embeddings_s": ("s", ("self", "text.load_embeddings")),
    "encoding.read_conll_s": ("s", ("self", "encoding.read_conll")),
    "encoding.decode_spans_s": ("s", ("self", "encoding.decode_spans")),
    "evaluation.match_s": ("s", ("self", "evaluation.match")),
    "evaluation.evaluate_self_s": ("s", ("self", "evaluation.evaluate")),
    "trace_overhead_share": ("ratio", ("counter", "trace_overhead_share")),
}


def _resolve(target):
    """(owner, attribute name, raw attribute) for "module:Attr.path", or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, name, raw


class Tracer:
    """Records spans while installed; ``report`` turns them into metrics."""

    def __init__(self):
        self.names = []
        self.layer_of = []  # name id -> layer, or None for benchmark spans
        self.spans = []  # (name id, start, end, parent span index)
        self.stack = [-1]
        self.counters = {"real_tokens": 0, "positions": 0}
        self.values = {}
        self.missing = []
        self.counting = False
        self._installed = []
        self._targets = []
        for layer, targets in LAYERS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                else:
                    self._targets.append((layer, target, found, self._name_id(target, layer)))

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, name_id, fn, count_tokens):
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_tokens and self.counting:
                try:
                    counters["real_tokens"] += int(np.sum(args[2]))
                    counters["positions"] += int(np.size(args[1]))
                except (IndexError, TypeError, ValueError):
                    counters["uncounted"] = 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        return traced

    def install(self):
        for _, target, (owner, name, raw), name_id in self._targets:
            count = target.endswith("AdrModel.encode_batch")
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(name_id, raw.__func__, count))
            else:
                new = self._wrap(name_id, raw, count)
            setattr(owner, name, new)
            self._installed.append((owner, name, raw))

    def uninstall(self):
        for owner, name, raw in reversed(self._installed):
            setattr(owner, name, raw)
        self._installed = []

    @contextlib.contextmanager
    def traced(self, name, count_tokens=False):
        """A benchmark-level span around one traced piece of work; with
        ``count_tokens`` its ``encode_batch`` calls count toward
        ``model.real_token_share``."""
        self.counting = count_tokens
        self.install()
        name_id = self._name_id(name, None)
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name_id, start, end, -1)
            self.uninstall()
            self.counting = False

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def report(self):
        """Per-layer metrics: {name: {"value": number or None, "unit": unit}}."""
        self_s, calls = {}, {}
        for (name_id, _, _, _), own in zip(self.spans, self._self_times()):
            layer = self.layer_of[name_id]
            if layer is not None:
                self_s[layer] = self_s.get(layer, 0.0) + own
                calls[layer] = calls.get(layer, 0) + 1
        present = {t[0] for t in self._targets}
        counters = dict(self.values)
        if self.counters["positions"] and "uncounted" not in self.counters:
            counters["model.real_token_share"] = (
                self.counters["real_tokens"] / self.counters["positions"]
            )
        out = {}
        for metric, (unit, (kind, *keys)) in PER_LAYER.items():
            if kind == "counter":
                value = counters.get(keys[0])
            elif not any(k in present for k in keys):
                value = None
            elif kind == "self":
                value = sum(self_s.get(k, 0.0) for k in keys)
            else:
                value = sum(calls.get(k, 0) for k in keys)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": self.names[name_id], "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )
