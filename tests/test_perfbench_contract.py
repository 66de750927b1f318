"""The names the benchmark's tracer wraps still exist in adrtag.

perfbench/tracing.py reports a layer whose targets are all gone as a `null`
metric, and a traced result line holding one is refused. These tests read
the tracer's table as it is and fail when a change to adrtag would empty a
layer or stop a traced training run from yielding a number.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

from adrtag import training  # noqa: E402
from adrtag.model import AdrModel  # noqa: E402


@pytest.mark.parametrize("layer", sorted(tracing.LAYERS))
def test_every_layer_has_a_target_the_tracer_finds(layer):
    assert any(tracing._resolve(t) is not None for t in tracing.LAYERS[layer]), (
        f"{layer}: none of {tracing.LAYERS[layer]} exists")


def test_traced_pretraining_reports_padding_metrics():
    """A tiny pretraining run, traced as the benchmark traces one, gives a
    number for the share of real tokens and for the time spent padding."""
    rng = np.random.default_rng(0)
    model = AdrModel(rng.normal(size=(8, 3)), hidden=2, drug_count=2, seed=0)
    examples = [([5, 6, 7][: 1 + i % 3], i % 2, f"t{i}") for i in range(12)]
    tracer = tracing.Tracer()
    with tracer.traced("pretrain", count_tokens=True):
        training.pretrain(examples, model, training.pretrain_config(epochs=1, batch_size=4))
    metrics = tracer.report()
    for name in ("model.real_token_share", "training.pad_s"):
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
    assert 0 < metrics["model.real_token_share"]["value"] <= 1


@pytest.mark.parametrize("phase", ["pretrain", "supervised"])
def test_traced_training_times_the_shared_softmax(phase):
    """Both heads' losses call ``softmax_rows`` through ``adrtag.model``, the
    name the tracer wraps, so a traced training run of either phase counts
    softmax calls and their time."""
    rng = np.random.default_rng(0)
    model = AdrModel(rng.normal(size=(8, 3)), hidden=2, drug_count=2, seed=0)
    ids = [[5, 6, 7][: 1 + i % 3] for i in range(12)]
    tracer = tracing.Tracer()
    with tracer.traced(phase):
        if phase == "pretrain":
            training.pretrain([(x, i % 2, f"t{i}") for i, x in enumerate(ids)], model,
                              training.pretrain_config(epochs=1, batch_size=4))
        else:
            training.train_supervised([(x, [i % 3] * len(x), f"t{i}") for i, x in enumerate(ids)],
                                      model, training.supervised_config(epochs=1, batch_size=4))
    metrics = tracer.report()
    for name in ("numerics.softmax_s", "numerics.calls"):
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert value > 0, (name, value)
