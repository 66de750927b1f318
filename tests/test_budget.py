"""Exact memory budgets: the traced peak of a training step, an inference
chunk and the optimizer's retained state, each above its start, against a
formula over the arrays the design says it holds.

Every budget is counted in float64 arrays (8 bytes an entry) and allows
``MARGIN`` for what no formula names: Python objects, small per-step arrays
and the int64 index arrays of the packing. A unit that starts to hold one
more array of a step's full size, (N, H) or larger, fails here.

A PR that lowers a budget tightens its formula here; a PR that raises one
says why in CHANGES.md.
"""

import copy
import tracemalloc
from functools import partial

import numpy as np
import pytest

from adrtag import evaluation, training
from adrtag.model import AdrModel

MARGIN = 1.05
F = 8  # bytes per float64 entry
# (B, 2, H) arrays live at the peak of a step loop. Forward: tanh(m), and
# sigmoid's four temporaries over the (B, 2, 2H) u and f gates, 1 + 4 x 2.
# BPTT: its six (B, 2, H) scratch arrays, and the iterator buffers of a ufunc
# over three strided gate views, 6 + 3.
STEP_SCRATCH = 9
# The test shapes; E < H, so that the weight-gradient products' gathers,
# (N, H) and (N, E), fit in the (B + N, 2, H) cell states freed before them.
V, E, H = 400, 32, 256


def encoder(B, N):
    """What the forward keeps for BPTT: the (N, 2, 4H) gate activations and
    the (B + N, 2, H) start-and-output states and cell states."""
    return F * (N * 2 * 4 * H + 2 * (B + N) * 2 * H)


def step_scratch(B):
    return F * STEP_SCRATCH * B * 2 * H


def traced(fn):
    """(peak, retained): bytes above the traced memory when ``fn`` starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return peak - base, current - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    return AdrModel(rng.normal(scale=0.5, size=(V, E)), hidden=H, drug_count=20, seed=0)


def run_steps(model, group, loss, backward, batches):
    """One Adam step per batch, as the training loop takes them; the traced
    (peak, retained) of each step."""
    optimizer = training.Adam(group, 0.001)
    return [traced(lambda: optimizer.update(partial(backward, loss(*batch)[1])))
            for batch in batches]


def test_tagging_step_at_batch_one(model):
    """A B=1 tagging step after the first holds the encoder's arrays, the tag
    head's (N, 2H) h from the forward and its gradient dh in the backward,
    and either dh's gathered backward half or the step loop's scratch. Adam
    allocates nothing: its moments, workspace and scratch are the first
    step's."""
    rng = np.random.default_rng(1)
    T = 20
    batch = rng.integers(1, V, size=(1, T)), np.array([T]), rng.integers(0, 3, size=(1, T))
    steps = run_steps(model, model.tag_parameters(), model.tag_loss, model.backward_tags,
                      [batch] * 3)
    held = encoder(1, T) + 2 * F * T * 2 * H
    budget = held + max(F * T * H, step_scratch(1))
    for peak, _ in steps[1:]:
        assert held <= peak <= MARGIN * budget


def test_pretraining_step_over_fixed_lengths(model):
    """A B=16 drug step at one length, after the first, holds the encoder's
    arrays, the head's (B, 2H) pooled states, their gradient and its
    per-direction copy, and the step loop's scratch."""
    rng = np.random.default_rng(2)
    B, T = 16, 20
    batch = rng.integers(1, V, size=(B, T)), np.full(B, T), rng.integers(0, 20, size=B)
    steps = run_steps(model, model.drug_parameters(), model.drug_loss, model.backward_drug,
                      [batch] * 3)
    held = encoder(B, B * T)
    budget = held + 3 * F * B * 2 * H + step_scratch(B)
    for peak, _ in steps[1:]:
        assert held <= peak <= MARGIN * budget


def test_evaluation_chunk(model):
    """One ``evaluate_tagging`` chunk of ``INFERENCE_BATCH`` tweets holds the
    encoder's arrays, then either the step loop's scratch or the (N, 2H) h
    with its gathered backward half."""
    rng = np.random.default_rng(3)
    B = training.INFERENCE_BATCH
    lengths = rng.integers(5, 31, size=B)
    data = [(list(rng.integers(1, V, size=n)), [2] * n, f"t{i}") for i, n in enumerate(lengths)]
    evaluation.evaluate_tagging(model, data)  # warm up one-time allocations
    N = int(lengths.sum())
    held = encoder(B, N)
    budget = held + max(step_scratch(B), F * N * 3 * H)
    peak, _ = traced(lambda: evaluation.evaluate_tagging(model, data))
    assert held <= peak <= MARGIN * budget


@pytest.mark.parametrize("phase", ["pretrain", "supervised"])
def test_first_step_retains_the_optimizer_state(model, phase):
    """After the first step the optimizer holds its two moments, one array
    per parameter each, the gradient workspace of the largest parameter and
    one chunk of update scratch; the step's activations are gone."""
    rng = np.random.default_rng(4)
    T = 20
    ids = rng.integers(1, V, size=(1, T)), np.array([T])
    if phase == "pretrain":
        group, loss, backward = model.drug_parameters(), model.drug_loss, model.backward_drug
        batch = *ids, np.array([3])
    else:
        group, loss, backward = model.tag_parameters(), model.tag_loss, model.backward_tags
        batch = *ids, rng.integers(0, 3, size=(1, T))
    (_, retained), = run_steps(model, group, loss, backward, [batch])
    sizes = [p.value.size for p in group]
    state = F * (2 * sum(sizes) + max(sizes) + min(training.ADAM_CHUNK, max(sizes)))
    assert state <= retained <= MARGIN * state


def test_deep_copy_allocates_only_the_weights():
    """A deep copy shares the frozen table: copying a model whose table
    outweighs its weights allocates the weights and a slack for the copied
    Python objects (about 11 KiB here), not the table."""
    rng = np.random.default_rng(5)
    big = AdrModel(rng.normal(size=(4000, 64)), hidden=8, drug_count=20, seed=0)
    weights = sum(p.value.nbytes for p in big.drug_parameters() + big.tag_head.params())
    slack = 16 * 1024
    copy.deepcopy(big)  # warm up one-time allocations
    peak, _ = traced(lambda: copy.deepcopy(big))
    assert weights <= peak <= weights + slack
    assert weights + slack < big.embeddings.nbytes
