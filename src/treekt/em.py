"""EM parameter estimation with closed-form updates.

θ travels as float columns in the kernel plan's node order, [V + 4]: γ of
each node, then r_easy, r_med, r_hard and ε (model.Parameters.column); a
block [V + 4, T] holds T targets, and inference.log_form gives the kernel
their log form. The E-step (pooled_e_step) runs T targets, each at its own
θ, over one shared pool of packed counts: one kernel pass over [V, T, S]
columns per inference.targets_per_call targets, and count-weighted sums
that contract the pool with the posteriors once for all targets. A target
may put its own history in place of one pool column, as replay's one-step
updates do; a caller whose target has no pool column gives it one, empty,
by widening the pool (online._reveal_round). The M-step turns the
accumulator arrays into a new θ block by simple ratios, in numpy
expressions over the block. Every update keeps the guessing probability
capped and all probabilities strictly inside (0,1), which preserves the EM
monotonicity guarantee. fit is the pooled path with T = 1 and no replaced
column; the one-target API by node id (SufficientStats, e_step, m_step,
one_step_update) lives in treekt.view, and this module serves it too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import _lazy_attribute
from .inference import kernel_plan, log_form, pool_posteriors, targets_per_call
from .model import EPSILON_CAP, ParameterError, Parameters, clamp_probability
from .tree import ConceptTree

if TYPE_CHECKING:
    from .view import StudentObservations


@dataclass
class FitReport:
    params: Parameters
    log_likelihood_trace: list[float]
    iterations: int
    converged: bool
    ordering_breaks: list[int]  # M-steps (from 1) after which ε < r_hard < r_med < r_easy broke

    def to_json(self) -> str:
        doc = {
            "log_likelihood_trace": self.log_likelihood_trace,
            "iterations": self.iterations,
            "converged": self.converged,
            "parameters": json.loads(self.params.to_json()),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Accumulators(NamedTuple):
    """The E-step sums of T targets, each over its own dataset.

    unmastered and mastered [T, 6] weight each CELL_KEYS cell's counts by
    P(node unmastered) and P(node mastered); pair [2, V, T] sums the
    (child, parent) cells (0, 0) and (1, 0) per node; root [T] sums the
    root's mastery marginal; n_students counts the students of every
    target's dataset, the pool's columns. ll [T], the data log-likelihood,
    is summed where the dataset is the pool itself (a fit); an update never
    reads it.
    """

    unmastered: np.ndarray
    mastered: np.ndarray
    pair: np.ndarray
    root: np.ndarray
    n_students: int
    ll: np.ndarray | None = None


def pooled_e_step(
    tree: ConceptTree, log_theta: np.ndarray, pool: np.ndarray,
    own: tuple[np.ndarray, np.ndarray] | None = None,
) -> Accumulators:
    """The E-steps of T targets over one shared pool of packed counts [V,
    6, S], target t at θ column t in log form (log_theta [2V + 12, T],
    inference.log_form), by inference.pool_posteriors.

    Without own, every target's dataset is the pool. With own = (at [T],
    counts [V, 6, T]), target t's dataset is the pool with column at[t] < S
    replaced by the target's own counts column. The count-weighted sums are
    contractions of the pool with the posteriors, minus each replaced
    column's term, plus the target's own. Targets go through the kernel
    inference.targets_per_call at a time.
    """
    n_nodes, n_cells, n_columns = pool.shape
    n_targets = log_theta.shape[1]
    unmastered, mastered = np.empty((2, n_targets, n_cells))
    pair, root = np.empty((2, n_nodes, n_targets)), np.empty(n_targets)
    ll = np.empty(n_targets) if own is None else None
    step = targets_per_call(n_nodes * n_columns)
    for a in range(0, n_targets, step):
        c = slice(a, a + step)
        part = None if own is None else (own[0][c], own[1][:, :, c])
        post = pool_posteriors(tree, log_theta[:, c], pool, part)
        if own is not None:
            t, j = np.arange(len(part[0])), part[0]
            delta = part[1] - pool[:, :, j]

        def contract(plane):
            """Each cell's counts weighted by plane [V, T, S], summed over
            every target's dataset: [6, T]."""
            total = np.matmul(pool, plane.transpose(0, 2, 1)).sum(axis=0)
            if own is not None:
                total += np.einsum("vkt,vt->kt", delta, plane[:, t, j])
            return total

        # One [V, T, S] plane, filled three times: P(unmastered), the (1, 0)
        # cell, then the negated marginal. The mastered sums contract the
        # marginal: each cell's total less its unmastered sum loses the
        # precision of a mastered mass that is tiny.
        plane = np.exp(post.log_p0)
        unmastered[c] = contract(plane).T
        pair[0, :, c] = plane.sum(axis=-1)
        pair[1, :, c] = post.learned(out=plane).sum(axis=-1)
        np.expm1(post.log_p0, out=plane)
        mastered[c] = -contract(plane).T
        root[c] = -plane[0].sum(axis=-1)
        if ll is not None:
            ll[c] = post.log_likelihood.sum(axis=-1)
        del post, plane  # before the next call's arrays are made
    return Accumulators(unmastered, mastered, pair, root, n_columns, ll)


#: The rows of the θ block after γ, as they are named in errors.
_RATE_NAMES = ("r_easy", "r_med", "r_hard", "epsilon")


def batch_m_step(acc: Accumulators, prev: np.ndarray) -> np.ndarray:
    """Closed-form maximizers of T targets' expected complete-data
    log-likelihoods: the θ block [V + 4, T] that follows prev.

    Per non-root γ, rate and ε the update is num / (num + other), clamped
    to [PARAM_FLOOR, 1 - PARAM_FLOOR]; ε is then capped at EPSILON_CAP.
    Cells with no mass leave the parameter at its previous value (the
    update is undefined there and retention is the only choice that keeps
    the likelihood monotone). The root has no pairwise cell; its γ is the
    mean root marginal. ParameterError names a result outside (0, 1).
    """
    if not acc.n_students:
        raise ValueError("m_step requires statistics from a non-empty dataset")
    v, n_targets = len(prev) - 4, prev.shape[1]
    # Rows as in θ, numerators then denominators: the root's mean marginal
    # over 1; per node the (1, 0) cell over it plus the (0, 0) cell; per
    # rate and ε the correct cells' mass over it plus the incorrect cells'.
    num, den = ratio = np.empty((2, v + 4, n_targets))
    np.divide(acc.root, acc.n_students, out=num[0])
    den[0] = 1.0
    ratio[:, 1:v] = acc.pair[::-1, 1:]
    ratio[:, v:v + 3] = acc.mastered.T.reshape(3, 2, n_targets).transpose(1, 0, 2)[::-1]
    # ε's cells are summed in CELL_KEYS order, as u1 + u3 + u5.
    u = acc.unmastered
    ratio[::-1, -1] = (u[:, 0:2] + u[:, 2:4] + u[:, 4:6]).T
    den[1:] += num[1:]
    mass = den > 0.0
    np.divide(num, den, out=num, where=mass)
    theta = np.where(mass, clamp_probability(num), prev)
    np.minimum(theta[-1], EPSILON_CAP, out=theta[-1])
    if not (theta.min() > 0.0 and theta.max() < 1.0):
        row, target = np.argwhere(~((theta > 0.0) & (theta < 1.0)))[0]
        name = f"gamma of node {row} in plan order" if row < v else _RATE_NAMES[row - v]
        raise ParameterError(
            f"{name} of target {target} is {theta[row, target]!r}, outside (0, 1)")
    return theta


def _theta(tree: ConceptTree, params: Parameters) -> tuple[tuple[str, ...], np.ndarray]:
    """The tree's node order and params as a θ block of one column."""
    order = kernel_plan(tree).order
    return order, params.column(order)[:, None]


def _em_step(
    tree: ConceptTree, theta: np.ndarray, counts: np.ndarray
) -> tuple[float, np.ndarray]:
    """One EM iteration on one θ column [V + 4, 1] over counts [V, 6, S]:
    the data log-likelihood at theta and the θ that follows it."""
    acc = pooled_e_step(tree, log_form(theta), counts)
    return float(acc.ll[0]), batch_m_step(acc, theta)


def fit(
    tree: ConceptTree,
    dataset: Sequence[StudentObservations] | np.ndarray,
    init: Parameters,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> FitReport:
    """Alternate E and M steps until the log-likelihood improvement drops
    below tol or max_iters iterations have been applied. The report says
    whether it converged and which M-steps broke the emission ordering.
    max_iters below 1, and a tol that is NaN or negative, raise ValueError
    before any work."""
    if max_iters < 1:
        raise ValueError(f"max_iters {max_iters}: EM needs at least one iteration")
    if not tol >= 0.0:  # also NaN
        raise ValueError(f"tol {tol}: EM's tolerance must be a number >= 0")
    if not isinstance(dataset, np.ndarray):
        from .view import pack_dataset
        dataset = pack_dataset(tree, dataset)
    if dataset.shape[2] == 0:
        raise ValueError("fit requires a non-empty dataset")
    order, theta = _theta(tree, init)
    trace: list[float] = []
    prev_ll: float | None = None
    converged = False
    iterations = 0
    breaks: list[int] = []
    for _ in range(max_iters):
        ll, update = _em_step(tree, theta, dataset)
        trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) < tol:
            converged = True
            break
        theta = update
        iterations += 1
        prev_ll = ll
        r_easy, r_med, r_hard, epsilon = theta[-4:, 0].tolist()
        if not epsilon < r_hard < r_med < r_easy:
            breaks.append(iterations)
    return FitReport(Parameters.from_column(order, theta[:, 0]), trace, iterations,
                     converged, breaks)


#: The per-student view's names this module serves (treekt._LAZY).
__getattr__ = partial(_lazy_attribute, __name__)
