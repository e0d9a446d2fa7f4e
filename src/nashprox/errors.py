"""Exception types shared across the solver suite.

Validation failures (bad assumptions, bad parameters) derive from ValueError;
runtime failures of iterative procedures derive from RuntimeError.
"""

from __future__ import annotations


class NotStronglyMonotone(ValueError):
    """The game's gradient map is not strongly monotone (eta <= 0)."""


class InvalidStep(ValueError):
    """Step size yields a contraction factor >= 1."""


class NoGeometricMixing(ValueError):
    """Weight matrix does not mix geometrically (second largest eigenvalue modulus >= 1)."""


class ConfigError(ValueError):
    """Experiment configuration document was rejected."""


class NonConvergence(RuntimeError):
    """Deterministic fixed-point solve exhausted its iteration budget."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class Divergence(RuntimeError):
    """Iterates became non-finite."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class InnerSolveFailure(RuntimeError):
    """Best-response subproblem solver exhausted its iteration budget or
    reached a NaN iterate."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
