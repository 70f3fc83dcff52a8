"""Thresholded greedy forward selection.

At each step every unselected covariate is scored by its incremental
loss reduction against the current working model; the argmax among the
scores strictly exceeding the threshold t enters the model, and the loop
stops when no score qualifies. The final coefficients come from a fresh
least-squares refit on the selected support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core_linalg import (
    COLLINEAR_TOL,
    Dataset,
    OrthoState,
    _residualize,
    en_dot,
    initial_state,
    is_standardized,
    least_squares_on_support,
    ortho_extend,
)
from .errors import NotStandardized


@dataclass(frozen=True)
class SelectionStep:
    index: int
    gain: float
    loss_after: float


@dataclass(frozen=True)
class SelectionTrace:
    """Ordered record of the selection loop: every gain strictly exceeds
    the threshold and the working loss drops by exactly that gain."""

    steps: tuple[SelectionStep, ...]


@dataclass(frozen=True)
class FitResult:
    trace: SelectionTrace
    theta_hat: np.ndarray
    support: tuple[int, ...]
    loss: float
    pred_error_norm: Optional[float] = None
    l2_error: Optional[float] = None
    l1_error: Optional[float] = None

    @property
    def s_hat(self) -> int:
        return len(self.support)


def score_all(state: OrthoState, ds: Dataset) -> np.ndarray:
    """Gain -Delta_j l(S) for every candidate column.

    Entry j is (E_n[x~_ij r_i])^2 / E_n[x~_ij^2] where x~_j is column j
    residualized against the current basis and r the current residual.
    Since r is orthogonal to the basis, x~_j'r = x_j'r, so the numerators
    are the carried ``state.corr`` and the denominators the carried
    ``state.col_norm2``: a call costs O(p), and X is not read. Already-
    selected and collinear columns get a -inf sentinel.
    """
    num = state.corr
    denom = state.col_norm2
    scores = np.full(ds.p, -np.inf)
    usable = denom > COLLINEAR_TOL
    scores[usable] = num[usable] ** 2 / denom[usable]
    if state.support:
        scores[list(state.support)] = -np.inf
    return scores


def forward_regression(ds: Dataset, t: float) -> FitResult:
    """Run the greedy selection loop at threshold t, then refit.

    Ties in the computed scores break toward the lowest column index.
    This holds for ties in floating point; an algebraic tie, such as the
    step that reaches s_hat = n - 1 in a saturated fit (every remaining
    column then has the same gain), is settled by rounding. Stopping is
    strict: a gain equal to t exactly is not selected. The leader's gain
    is recomputed from its exactly residualized column before it is
    accepted, since the carried norms lose digits near collinearity; if
    that moves the leader, the argmax is taken again. Selected columns
    score -inf, so the loop ends within p steps.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"threshold t must be finite and positive, got {t}")
    if not is_standardized(ds.x):
        raise NotStandardized("columns must be centered with unit second moment")

    state = initial_state(ds)
    steps: list[SelectionStep] = []
    while True:
        scores = score_all(state, ds)
        exact: set[int] = set()
        best = int(np.argmax(scores))
        while best not in exact and scores[best] > -np.inf:
            c = _residualize(state.basis, ds.x[:, best])
            norm2 = en_dot(c, c)
            usable = norm2 > COLLINEAR_TOL
            scores[best] = en_dot(c, state.residual) ** 2 / norm2 if usable else -np.inf
            exact.add(best)
            best = int(np.argmax(scores))
        if not scores[best] > t:
            break
        state = ortho_extend(state, best, ds)
        steps.append(SelectionStep(best, float(scores[best]), state.residual_loss))

    support = tuple(sorted(s.index for s in steps))
    theta_hat, loss = least_squares_on_support(ds, support)

    pred = l2 = l1 = None
    if ds.theta0 is not None:
        l2, l1, pred = parameter_errors(ds, theta_hat, ds.theta0)

    return FitResult(
        trace=SelectionTrace(steps=tuple(steps)),
        theta_hat=theta_hat,
        support=support,
        loss=loss,
        pred_error_norm=pred,
        l2_error=l2,
        l1_error=l1,
    )


def parameter_errors(
    ds: Dataset, theta_hat: np.ndarray, theta0: np.ndarray
) -> tuple[float, float, float]:
    """l2 and l1 coefficient errors plus the prediction error norm
    E_n[(x_i'(theta0 - theta_hat))^2]^{1/2}."""
    d = np.asarray(theta0, dtype=float) - theta_hat
    if d.shape[0] != ds.p:
        raise ValueError("theta0 length must match the number of covariates")
    fit_gap = ds.x @ d
    pred = float(np.sqrt((fit_gap * fit_gap).mean()))
    return float(np.linalg.norm(d)), float(np.abs(d).sum()), pred
