"""Closed-form proximal operators for the nonsmooth terms r_i.

Supported regularizers: the zero function, a weighted l1 norm, and the
indicator of a box. All three have elementwise proximal maps, so a profile
prox splits across players and coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # prox_profile imports profiles when it runs
    from .profiles import StrategyProfile


@dataclass(frozen=True)
class Zero:
    """r(x) = 0; the prox is the identity."""


@dataclass(frozen=True)
class L1:
    """r(x) = weight * ||x||_1; the prox is soft thresholding."""

    weight: float

    def __post_init__(self):
        if not (self.weight >= 0.0 and np.isfinite(self.weight)):
            raise ValueError(f"l1 weight must be finite and >= 0, got {self.weight}")


@dataclass(frozen=True, eq=False)
class BoxIndicator:
    """r(x) = indicator of [lo, hi]; the prox is the clip to the box."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite (compact strategy set)")
        if (lo > hi).any():
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def corner_norm(self) -> float:
        """max_{x in box} ||x||_2, attained at the componentwise larger corner;
        exact for a 1-D box, else inf, without a warning, past about
        1.3e154."""
        if self.lo.size == 1:  # where a 2-norm's square could leave the range
            return max(abs(float(self.lo[0])), abs(float(self.hi[0])))
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(np.maximum(np.abs(self.lo),
                                                   np.abs(self.hi))))


Regularizer = Union[Zero, L1, BoxIndicator]


def prox_apply(reg: Regularizer, x, alpha: float) -> np.ndarray:
    """Evaluate prox_{alpha r}(x) in closed form.

    alpha > 0 is the prox step. For Zero the map is the identity, for L1 it is
    soft thresholding at level alpha*weight, for BoxIndicator the projection.
    """
    x = np.array(x, dtype=float)
    return compiled_prox((reg,), (x.size,), alpha)(x.ravel()).reshape(x.shape)


def prox_pieces(regs, dims, step: float):
    """prox_{step r} of a stacked profile vector in per-coordinate form
    (lo, hi, t, shrink): soft thresholding at t where shrink is set, else
    the clip to [lo, hi] (infinite off the boxes, so Zero coordinates pass
    unchanged)."""
    if not (step > 0.0 and np.isfinite(step)):
        raise ValueError(f"prox step must be finite and > 0, got {step}")
    if len(regs) != len(dims):
        raise ValueError(f"{len(regs)} regularizers for {len(dims)} players")
    offsets = np.cumsum((0,) + tuple(dims)).tolist()
    lo, hi = np.full(offsets[-1], -np.inf), np.full(offsets[-1], np.inf)
    t, shrink = np.zeros(offsets[-1]), np.zeros(offsets[-1], dtype=bool)
    for reg, a, b in zip(regs, offsets[:-1], offsets[1:]):
        if isinstance(reg, BoxIndicator):
            if reg.lo.shape != (b - a,):
                raise ValueError(f"point of shape {(b - a,)} does not match "
                                 f"box of shape {reg.lo.shape}")
            lo[a:b], hi[a:b] = reg.lo, reg.hi
        elif isinstance(reg, L1):
            t[a:b], shrink[a:b] = step * reg.weight, True
        elif not isinstance(reg, Zero):
            raise TypeError(f"unknown regularizer {type(reg).__name__}")
    return lo, hi, t, shrink


def compiled_prox(regs, dims, step: float):
    """prox_{step r} of a stacked profile vector as one elementwise map
    built from prox_pieces, with the same arithmetic on each coordinate as
    prox_apply on its block: soft thresholding (all l1), the clip, a copy
    (all zero), or both branches selected by np.where (mixed)."""
    lo, hi, t, shrink = prox_pieces(regs, dims, step)
    zeros = np.zeros_like(t)  # as 0.0, without converting it per call
    soft = lambda v: np.sign(v) * np.maximum(abs(v) - t, zeros)
    clip = lambda v: np.minimum(np.maximum(v, lo), hi)
    if shrink.all():
        return soft
    if shrink.any():
        return lambda v: np.where(shrink, soft(v), clip(v))
    return np.copy if np.isneginf(lo).all() else clip


def prox_profile(regs, x: StrategyProfile, alpha: float) -> StrategyProfile:
    """Blockwise prox across players: one composite prox evaluation."""
    from .profiles import StrategyProfile

    out = compiled_prox(regs, x.dims, alpha)(x.vector)
    return StrategyProfile.from_vector(out, x.dims)
