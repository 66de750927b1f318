"""Float64 activations and a finite-difference gradient oracle.

Everything here operates on plain numpy float64 arrays. Trainable arrays are
wrapped in :class:`Parameter`, which allocates the gradient buffer and the
Adam moment buffers beside the weights on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

PROB_FLOOR = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where finite math was required."""


_TRAINING_BUFFERS = ("grad", "adam_m", "adam_v")


@dataclass
class Parameter:
    """A trainable array. Its gradient ``grad`` and Adam moments ``adam_m``
    and ``adam_v`` are allocated, zero-filled, the first time they are read,
    so a model that only predicts holds only its weights.

    Gradients accumulate additively into ``grad``; callers must zero it
    between optimizer steps (shared encoder weights receive gradients from
    both task heads).
    """

    name: str
    value: np.ndarray

    def __post_init__(self):
        # C-contiguous, so the flattened arrays the optimizer slices are views.
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)

    def __getattr__(self, attr):
        # Reached only when ``attr`` is not yet an instance attribute.
        if attr not in _TRAINING_BUFFERS:
            raise AttributeError(attr)
        buffer = np.zeros_like(self.value)
        setattr(self, attr, buffer)
        return buffer

    def zero_grad(self):
        if "grad" in vars(self):
            self.grad[...] = 0.0

    def drop_moments(self):
        """Forget the Adam moments; the next read allocates fresh zeros."""
        vars(self).pop("adam_m", None)
        vars(self).pop("adam_v", None)


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
