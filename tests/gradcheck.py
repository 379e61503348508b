"""Finite-difference gradient check for autodiff tapes, and the reducer the checks share."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from sdvsum.autodiff import Node, linear


def bilinear(x: Node, u=None, c=None) -> Node:
    """uᵀ X c of an r x k node X, as the 1 x 1 node ``backward`` takes.

    Two ``linear`` ops: the first takes X as its weight operand, so its
    backward gives dX = u (g cᵀ). ``u`` and ``c`` are scalars or vectors of
    length r and k. By default they are fixed ramps of order 1, u descending
    and c ascending, so no two rows or columns weigh alike and each entry's
    gradient u_i c_j is of order 1, where ``grad_check``'s relative error is
    sharpest.
    """
    r, k = x.shape
    if u is None:
        u = (np.arange(r - 1, -1, -1) + r / 2) / r
    if c is None:
        c = (np.arange(k) + k / 2) / k
    t = x.tape
    u = np.broadcast_to(np.reshape(u, (1, -1)), (1, r))
    c = np.broadcast_to(np.reshape(c, (-1, 1)), (k, 1))
    row = linear(t.constant(u), x, t.constant(np.zeros((1, k))))
    return linear(row, t.constant(c), t.constant(np.zeros((1, 1))))


@dataclass
class GradCheckReport:
    """Per-parameter worst relative error between analytic and numeric gradients."""

    errors: dict[str, float]
    tol: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"grad_check {state}: max relative error {self.max_error:.3e} (tol {self.tol:.1e})"


def grad_check(
    f: Callable[[dict[str, np.ndarray]], Node],
    params: dict[str, np.ndarray],
    eps: float = 1e-3,
    tol: float = 1e-3,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must build a fresh tape, register every array in ``params`` via
    ``tape.param`` under the same name, and return the scalar loss node. It is
    evaluated twice up front; any disagreement means ``f`` is not
    deterministic (e.g. live dropout) and is rejected.

    The relative error for one gradient entry is |a - n| / max(1, |a|, |n|),
    i.e. it degrades to an absolute tolerance where both gradients are small,
    which is the honest resolution limit of float32 forward passes.
    """
    if not 1e-5 <= eps <= 1e-2:
        raise ValueError(f"eps must be in [1e-5, 1e-2], got {eps}")

    loss = f(params)
    loss_again = f(params)
    if loss.value[0, 0] != loss_again.value[0, 0]:
        raise ValueError(
            "f is not deterministic: two forward passes disagree "
            f"({loss.item()} vs {loss_again.item()}); freeze dropout masks first"
        )
    analytic = loss.tape.backward(loss)

    errors: dict[str, float] = {}
    for name, theta in params.items():
        ana = analytic[name].astype(np.float64)
        num = np.zeros(theta.shape, dtype=np.float64)
        flat = theta.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + np.float32(eps)
            hi = float(f(params).value[0, 0])
            hi_theta = float(flat[i])
            flat[i] = orig - np.float32(eps)
            lo = float(f(params).value[0, 0])
            lo_theta = float(flat[i])
            flat[i] = orig
            # use the actually-representable step, not the nominal eps
            num.reshape(-1)[i] = (hi - lo) / (hi_theta - lo_theta)
        denom = np.maximum(1.0, np.maximum(np.abs(ana), np.abs(num)))
        errors[name] = float(np.max(np.abs(ana - num) / denom))
    return GradCheckReport(errors=errors, tol=tol)
