"""Float64 activations and a finite-difference gradient oracle.

Everything here operates on plain numpy float64 arrays. Trainable arrays are
wrapped in :class:`Parameter`, which holds only its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from .errors import NumericalError

PROB_FLOOR = 1e-12


@dataclass
class Parameter:
    """A trainable array. It holds no gradient: a backward pass hands each
    gradient to a sink (:class:`Gradients`, or the optimizer, which applies
    it at once), so a model holds only its weights. Optimizer state, such as
    Adam's moments, is held by the optimizer."""

    name: str
    value: np.ndarray

    def __post_init__(self):
        # C-contiguous, so the flattened arrays the optimizer slices are views.
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)


class Gradients(dict):
    """A gradient sink that keeps each gradient by parameter name, for
    checking a backward pass. A backward pass writes each parameter's
    gradient into :meth:`buffer` and hands it to :meth:`step`, once per
    parameter of its group."""

    def buffer(self, p: Parameter) -> np.ndarray:
        return np.empty_like(p.value)

    def step(self, p: Parameter, g: np.ndarray):
        if p.name in self:
            raise ValueError(f"a second gradient for {p.name}")
        self[p.name] = g


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; ``exp`` only sees ``-|x|``, so it never
    overflows. Its numerator, 1 where ``x >= 0`` and ``e`` elsewhere, is
    ``max(e, x >= 0)`` as ``e <= 1``: no per-element branch on the sign."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def finite_difference_gradient(
    loss_fn: Callable[[], float],
    params: Sequence[Parameter],
    epsilon: float,
) -> Dict[str, np.ndarray]:
    """Central-difference gradient estimate, with step ``epsilon``, for every
    entry of every parameter.

    ``loss_fn`` must be a deterministic closure over ``params``. Parameter
    values are restored before returning.
    """
    grads: Dict[str, np.ndarray] = {}
    for p in params:
        g = np.zeros_like(p.value)
        flat_w = p.value.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_w.size):
            orig = flat_w[i]
            flat_w[i] = orig + epsilon
            lp = loss_fn()
            flat_w[i] = orig - epsilon
            lm = loss_fn()
            flat_w[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericalError(
                    f"non-finite loss while perturbing {p.name}[{i}]"
                )
            flat_g[i] = (lp - lm) / (2.0 * epsilon)
        grads[p.name] = g
    return grads
