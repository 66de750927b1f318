"""Float64 activations and a finite-difference gradient oracle.

Everything here operates on plain numpy float64 arrays. Trainable arrays are
wrapped in :class:`Parameter`, which carries the gradient buffer and the Adam
moment buffers alongside the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

import numpy as np

PROB_FLOOR = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where finite math was required."""


@dataclass
class Parameter:
    """A trainable array plus its gradient and Adam moment buffers.

    Gradients accumulate additively into ``grad``; callers must zero it
    between optimizer steps (shared encoder weights receive gradients from
    both task heads).
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    adam_m: np.ndarray = field(init=False)
    adam_v: np.ndarray = field(init=False)

    def __post_init__(self):
        # C-contiguous, so the flattened arrays the optimizer slices are views.
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.adam_m = np.zeros_like(self.value)
        self.adam_v = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; ``exp`` only sees ``-|x|``, so it never
    overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
