"""Float64 activations and a finite-difference gradient oracle.

Everything here operates on plain numpy float64 arrays. Trainable arrays are
wrapped in :class:`Parameter`, which holds its gradient only while training
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from .errors import NumericalError

PROB_FLOOR = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


@dataclass
class Parameter:
    """A trainable array and its gradient. The gradient ``grad`` exists only
    while training uses it, so a model that only predicts, or has finished
    training, holds only its weights. Reading it when it does not exist
    allocates it zero-filled. Optimizer state, such as Adam's moments, is
    held by the optimizer.

    Backward passes write each gradient term into :meth:`buffer` and hand it
    to :meth:`accumulate` (shared encoder weights receive terms from both
    task heads). The optimizer step and :meth:`zero_grad` drop the gradient
    and keep its memory as the ``spare``, which the next :meth:`buffer`
    returns, so a training run writes every step's gradient into the memory
    the last step spent. Nothing reads a spare's contents. :meth:`release`
    drops the gradient and the spare.
    """

    name: str
    value: np.ndarray

    def __post_init__(self):
        # C-contiguous, so the flattened arrays the optimizer slices are views.
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)

    def __getattr__(self, attr):
        # Reached only when ``attr`` is not yet an instance attribute.
        if attr != "grad":
            raise AttributeError(attr)
        self.grad = np.zeros_like(self.value)
        return self.grad

    def buffer(self) -> np.ndarray:
        """An array of the value's shape for the caller to write a gradient
        term into: the spare, which the caller now owns, or a fresh one."""
        spare = vars(self).pop("spare", None)
        return np.empty_like(self.value) if spare is None else spare

    def accumulate(self, g: np.ndarray):
        """Add the gradient term ``g``: a float64 array of the value's shape
        that the caller does not keep, such as one from :meth:`buffer`. With
        no gradient pending, ``g`` itself becomes the gradient, with no zero
        buffer to add it to; otherwise it is added and kept as the spare."""
        if g.shape != self.value.shape or g.dtype != np.float64:
            raise DimensionError(
                f"gradient {g.dtype}{g.shape} does not match {self.name} {self.value.shape}"
            )
        grad = vars(self).get("grad")
        if grad is None:
            self.grad = g
        else:
            grad += g
            self.spare = g

    def zero_grad(self):
        """Drop the gradient, keeping its memory as the spare."""
        grad = vars(self).pop("grad", None)
        if grad is not None:
            self.spare = grad

    def release(self):
        """Drop the gradient and the spare, keeping only the weights."""
        vars(self).pop("grad", None)
        vars(self).pop("spare", None)


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
    epsilon: float = 1e-5,
) -> Dict[str, np.ndarray]:
    """Central-difference gradient estimate for every entry of every parameter.

    ``loss_fn`` must be a deterministic closure over ``params``. Parameter
    values are restored before returning.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
