"""Exact posterior inference: one array kernel over a batch of students.

The kernel takes response counts packed as [V, 6, S] (nodes in breadth-first
order x CELL_KEYS x students) and runs the upward-downward recursion of the
hidden Markov tree on every student at once. Narrow calls on a deep tree
run both passes by a closed-form scan along heavy paths, one cumsum and one
np.logaddexp.accumulate per round of paths; other calls go upward one tree
level at a time and downward in ceil(log2 depth) pointer-doubling steps.
Responses are counted through one slot table built with the tree's plan,
by one np.bincount (count_cells). Counts make every posterior independent
of the order responses arrived in, bit for bit. Parameters reach the kernel
in log form, built from θ columns by log_form with one np.log and one
np.log1p. pool_posteriors is the kernel's one entry: T targets, each at
its own θ column, over one shared pool of S columns, as [V, T, S]. One θ
shared by many students is one target over a pool of their columns;
students at their own θ are targets whose own columns replace the one
column of an empty pool; a single student is one target over a pool of
one column.
"""
from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from typing import Collection, NamedTuple, Sequence

import numpy as np

from . import _lazy_attribute
from .model import RATE_INDEX, ParameterError  # noqa: F401 (re-exported)
from .tree import ConceptTree, Difficulty

#: The (difficulty, correct) cell of each slot on axis 1 of packed counts.
CELL_KEYS = tuple((d, c) for d in Difficulty for c in (0, 1))
#: Per cell: its rate's position in (r_easy, r_med, r_hard), and whether
#: it is a correct response.
_CELL_RATE_CORRECT = tuple((RATE_INDEX[d], c) for d, c in CELL_KEYS)


class InferenceError(ValueError):
    """Raised for observations outside the tree."""


class Interaction(NamedTuple):
    """One observed response to a question labeled with a leaf concept. A
    NamedTuple: it compares, iterates and has a len as a tuple of its
    fields."""

    question_id: str
    kc: str
    difficulty: Difficulty
    correct: int


#: Calls with fewer counts columns than this run plan.scan where the plan
#: has one; wider calls, and every call on a tree without one, run
#: plan.levels. A narrow call's time is mostly numpy call overhead (about
#: 1 us a call), of which the scan makes a fixed number per round of heavy
#: paths; a wide call's is mostly element work, of which a level schedule
#: does the least. Levels take their log-sum-exp from vectorized ufuncs
#: (about 4.5 ns an element against 40 ns for np.logaddexp).
_NARROW = 16

#: The one chunk-size rule: callers that split their columns over several
#: kernel calls give a call as many targets as fit in CALL_CELLS cells
#: (nodes x columns, 80 KB an array), and at least one. A target is a
#: predicted student, or an update's whole burn-in pool: 8 targets a call
#: on a 12-node tree and a pool of 100. Twice the cells put eval-online's
#: peak RSS 0.8 MB above 8 targets' for no clear gain. A fixed rule keeps
#: every result the same across runs. HEAP_TOP_PAD, the bytes cli.main has
#: glibc keep free at its heap top, is 16 float64 arrays of a call's cells,
#: so that one call's freed working set is not trimmed and faulted back in.
CALL_CELLS = 10_000
HEAP_TOP_PAD = 128 * CALL_CELLS


def targets_per_call(target_cells: int) -> int:
    """How many targets of target_cells cells each one kernel call takes."""
    return max(1, CALL_CELLS // max(1, target_cells))


def _sum_rows(incidence: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """incidence [m, n] times rows [n, *columns], as [m, *columns]."""
    return incidence.dot(rows.reshape(len(rows), -1)).reshape(len(incidence), *rows.shape[1:])


class _Light(NamedTuple):
    """Finished messages of light children, added into their parents'
    shifted rows: incidence [parents, heads] sums several heads into one
    parent; None when each parent has one head."""

    heads: np.ndarray
    parents: np.ndarray
    incidence: np.ndarray | None

    def add(self, shifted: np.ndarray, up: np.ndarray) -> None:
        heads, parents, incidence = self
        x = up[heads]
        if incidence is not None:
            x = _sum_rows(incidence, x)
        shifted[parents] += x


class _Level(NamedTuple):
    """One tree level, a contiguous slice whose children have all added
    their messages: up = log(gamma + e^shifted); then each node adds its
    message into its parent through the dense 0/1 incidence [parent level,
    level] (none for the root)."""

    here: slice
    above: slice | None
    incidence: np.ndarray | None

    def run(self, log_gamma, shifted, up, scratch) -> None:
        """scratch: rows [at least the level, columns] for the log-sum-exp
        max(a, b) + log1p(e^(min(a, b) - max(a, b)))."""
        here, above, incidence = self
        level_up = up[here]
        a, b, low = log_gamma[here], shifted[here], scratch[:len(level_up)]
        np.maximum(a, b, out=level_up)
        np.minimum(a, b, out=low)
        low -= level_up
        np.exp(low, out=low)
        np.log1p(low, out=low)
        level_up += low
        if incidence is not None:
            parents = shifted[above]
            np.add(parents, _sum_rows(incidence, level_up), out=parents)


class _Round(NamedTuple):
    """Heavy paths run together on a grid of [rows, paths] cells, each path
    bottom-up in its column: row 0 is the sentinel below every path's last
    node, row r the path's r-th node from its end; rows above a head are
    padding that nothing reads. grid: the node of each cell (0 for the
    sentinel and padding). Per path node: its flat cell, the cell below it
    and its head's cell, and its head's parent (V for the root's path). A
    round of one-node paths has no grid: grid, cells, below and head are
    None."""

    nodes: np.ndarray
    grid: np.ndarray | None
    cells: np.ndarray | None
    below: np.ndarray | None
    head: np.ndarray | None
    above: np.ndarray
    light: _Light | None


def _light(parent: np.ndarray, heads: Sequence[int]) -> _Light | None:
    """The light add of heads into their parents (the root has none)."""
    heads = [h for h in heads if h]
    if not heads:
        return None
    parents = sorted({int(parent[h]) for h in heads})
    if len(parents) == len(heads):
        return _Light(np.array(heads), parent[heads], None)
    incidence = np.zeros((len(parents), len(heads)))
    incidence[np.searchsorted(parents, parent[heads]), np.arange(len(heads))] = 1.0
    return _Light(np.array(heads), np.array(parents), incidence)


def _round(parent: np.ndarray, paths: list[list[int]]) -> _Round:
    """One round over paths, each listed head first."""
    heads = [path[0] for path in paths]
    light = _light(parent, heads)
    if all(len(path) == 1 for path in paths):
        return _Round(np.array(heads), None, None, None, None, parent[heads], light)
    n_paths = len(paths)
    nodes, cells, head, above = [], [], [], []
    for p, path in enumerate(paths):
        length = len(path)
        nodes += path
        cells += [(length - k) * n_paths + p for k in range(length)]
        head += [length * n_paths + p] * length
        above += [parent[path[0]]] * length
    grid = np.zeros((1 + max(map(len, paths)), n_paths), dtype=np.intp)
    grid.flat[cells] = nodes
    cells = np.array(cells)
    return _Round(np.array(nodes), grid, cells, cells - n_paths, np.array(head),
                  np.array(above), light)


def _scan_rounds(parent: np.ndarray) -> list[_Round]:
    """The rounds of the heavy-path scan, leaves first.

    A node's heavy child is its child with the largest subtree; heavy paths
    run from the root and from each light child down heavy children. A
    path's rank is one more than the largest rank of its nodes' light
    children, so those have finished when it starts; the root's path is
    alone in the last rank. The paths of a rank whose lengths have the same
    bit length share a round, so a grid has at most twice as many rows as
    each of its paths has nodes, and all grids together hold at most 2V
    cells.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    heavy = [max(c, key=size.__getitem__) if c else None for c in children]
    paths, rank = {}, {}
    # A light child comes after every node of the path it hangs from.
    for head in sorted([0] + [c for v in range(n) for c in children[v] if c != heavy[v]],
                       reverse=True):
        path = [head]
        while heavy[path[-1]] is not None:
            path.append(heavy[path[-1]])
        paths[head] = path
        rank[head] = max((rank[c] + 1 for v in path for c in children[v]
                          if c != heavy[v]), default=0)
    rounds = []
    for r in range(max(rank.values()) + 1):
        by_bits: dict[int, list[list[int]]] = {}
        for h in sorted(h for h in paths if rank[h] == r):
            by_bits.setdefault(len(paths[h]).bit_length(), []).append(paths[h])
        rounds += [_round(parent, by_bits[bits]) for bits in sorted(by_bits)]
    return rounds


def _scan(rounds: list[_Round], log_gamma, shifted, up, log_p0) -> None:
    """The upward pass by heavy-path scan, and the downward pass from it.

    Along a path v_0 (head) .. v_{L-1}, with b_k node k's shifted row
    before its heavy child's message is added and g_k = log gamma, the
    recursion up_k = log(e^g_k + e^(b_k + up_{k+1})) has the closed form
    up_k = S_k + A_k, S_k = sum_{i >= k} b_i, A_k = LSE_{j >= k} (g_j -
    S_j), over k = 0 .. L with the sentinel b_L = g_L = 0 (up_L = 0): one
    cumsum and one np.logaddexp.accumulate over a round's grid. The sum
    along the path of log P(v_i unmastered | parent unmastered, data) =
    b_i + up_{i+1} - up_i telescopes to A_{m+1} - A_0 at v_m; each round
    writes that into log_p0, and the rounds, root's path first, then add
    their heads' parents' rows (row V, above the root, is 0)."""
    columns = shifted.shape[1:]
    for r in rounds:
        if r.grid is None:
            b = shifted[r.nodes]
            u = np.logaddexp(log_gamma[r.nodes], b)
            up[r.nodes] = u
            log_p0[r.nodes] = b - u
        else:
            s = shifted.take(r.grid, axis=0)
            s[0] = 0.0
            np.cumsum(s, axis=0, out=s)
            t = log_gamma.take(r.grid, axis=0)
            t[0] = 0.0
            a = np.logaddexp.accumulate(t - s, axis=0)
            s += a
            up[r.nodes] = s.reshape(-1, *columns).take(r.cells, axis=0)
            a = a.reshape(-1, *columns)
            log_p0[r.nodes] = a.take(r.below, axis=0) - a.take(r.head, axis=0)
        if r.light is not None:
            r.light.add(shifted, up)
    for r in rounds[-2::-1]:
        log_p0[r.nodes] += log_p0[r.above]


class KernelPlan:
    """Breadth-first numbering of a tree and the kernel's schedules.

    Index V stands for "above the root" and is its own ancestor. parent:
    each node's parent index (V for the root). levels: the upward pass one
    tree level at a time, leaves first; each step's run(log_gamma, shifted,
    up, scratch) updates the kernel's shifted and up rows in place. jumps:
    per pointer-doubling step k of the downward pass after levels, the
    2**k-th ancestor of each node; there are ceil(log2 depth) steps. scan:
    the rounds of the heavy-path scan (_scan_rounds), which does both
    passes, where its cost count rates it faster than levels and jumps (as
    on a deep tree), else None. slots: (leaf, difficulty, correct) -> its
    flat cell in a [V, 6] column of packed counts."""

    def __init__(self, tree: ConceptTree):
        order, bounds = [tree.root], [(0, 1)]
        while True:
            a, b = bounds[-1]
            order.extend(c for node in order[a:b] for c in tree.children(node))
            if len(order) == b:
                break
            bounds.append((b, len(order)))
        self.order = tuple(order)
        self.index = {node: v for v, node in enumerate(order)}
        above = len(order)
        parents = [self.index[tree.parent(node)] for node in order[1:]]
        ancestor = np.array([above] + parents + [above], dtype=np.intp)
        self.parent = ancestor[:above]
        levels = [_Level(slice(0, 1), None, None)]
        for (a, b), (pa, pb) in zip(bounds[1:], bounds):
            incidence = np.zeros((pb - pa, b - a))
            incidence[self.parent[a:b] - pa, np.arange(b - a)] = 1.0
            levels.append(_Level(slice(a, b), slice(pa, pb), incidence))
        self.levels = levels[::-1]
        self.jumps = []
        for _ in range((len(bounds) - 1).bit_length()):
            self.jumps.append(ancestor[:above])
            ancestor = ancestor[ancestor]
        # The scan's time on a narrow call, counted in levels or doubling
        # steps: about 4 a grid round, 3 a round of one-node paths and 1 per
        # 16 grid cells, fit to timings at 1, 4 and 15 columns of random,
        # chain, caterpillar, star and broom trees of 5 to 2 501 nodes.
        self.scan = _scan_rounds(self.parent)
        cost = sum(3 if r.grid is None else 4 + r.grid.size / 16 for r in self.scan)
        if cost >= len(self.levels) + len(self.jumps):
            self.scan = None
        self.slots = {
            (node, difficulty, correct): v * len(CELL_KEYS) + k
            for v, node in enumerate(order) if tree.is_leaf(node)
            for k, (difficulty, correct) in enumerate(CELL_KEYS)
        }


def kernel_plan(tree: ConceptTree) -> KernelPlan:
    """The tree's plan, built on first use and kept with the (immutable) tree."""
    if "_kernel_plan" not in tree.__dict__:
        tree.__dict__["_kernel_plan"] = KernelPlan(tree)
    return tree.__dict__["_kernel_plan"]


def leaf_error(tree: ConceptTree, kc: str) -> InferenceError:
    """The error for a response labeled with kc, which is not a leaf."""
    if kc not in tree:
        return InferenceError(f"observation references unknown KC {kc!r}")
    return InferenceError(f"observation KC {kc!r} is not a leaf")


def _slot_error(tree: ConceptTree, it: Interaction) -> InferenceError:
    """Why a response has no cell in the tree's slot table."""
    if it.kc not in tree or not tree.is_leaf(it.kc):
        return leaf_error(tree, it.kc)
    if it.correct not in (0, 1):
        return InferenceError(f"correct must be 0 or 1, got {it.correct!r}")
    return InferenceError(f"difficulty must be a Difficulty, got {it.difficulty!r}")


def cell_slots(tree: ConceptTree, interactions: Collection[Interaction]) -> list[int]:
    """Each response's flat cell in a [V, 6] column of packed counts. A
    response is anything with kc, difficulty and correct, such as an
    Interaction or an online.StreamRecord. Raises InferenceError for a
    response outside the tree's leaves."""
    slots = kernel_plan(tree).slots
    try:
        return [slots[it.kc, it.difficulty, it.correct] for it in interactions]
    except KeyError:
        for it in interactions:
            if (it.kc, it.difficulty, it.correct) not in slots:
                raise _slot_error(tree, it) from None
        raise


def count_cells(tree: ConceptTree, columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Kernel counts [V, 6, n] of n columns, each given as its responses'
    flat cells (cell_slots), by one np.bincount of slot * n + column, with
    the offsets built in numpy. Each response weighs 1.0, so the counts are
    summed as float64 with no int64 copy; bincount gives int64 only when
    there are no responses at all."""
    n = len(columns)
    lengths = [*map(len, columns)]
    flat = np.fromiter(chain.from_iterable(columns), np.intp, sum(lengths)) * n
    flat += np.repeat(np.arange(n), lengths)
    v = len(tree.nodes)
    counts = np.bincount(flat, np.ones(len(flat)), minlength=v * len(CELL_KEYS) * n)
    return counts.astype(np.float64, copy=False).reshape(v, len(CELL_KEYS), n)


@lru_cache(maxsize=None)
def _log_rows(v: int) -> np.ndarray:
    """Where log_form takes its rows from in [log θ; log(1 - θ)] of a tree
    of v nodes: log γ, log(1 - γ), then per CELL_KEYS cell the log-emission
    at mastery and the unmastered one (ε's)."""
    log_p, log_q = 0, v + 4
    rows = [*range(log_p, log_p + v), *range(log_q, log_q + v)]
    rows += [(log_p if c else log_q) + v + r for r, c in _CELL_RATE_CORRECT]
    rows += [(log_p if c else log_q) + v + 3 for _, c in _CELL_RATE_CORRECT]
    return np.array(rows)


def log_form(theta: np.ndarray) -> np.ndarray:
    """θ columns [V + 4, K] (model.Parameters.column) in the kernel's log
    form [2V + 12, K]: log γ, log(1 - γ), then per CELL_KEYS cell the
    log-emission at mastery (log_e1) and the unmastered one minus it
    (log_ratio). One np.log and one np.log1p over the whole block."""
    v = theta.shape[0] - 4
    both = np.concatenate((np.log(theta), np.log1p(-theta)))
    out = both.take(_log_rows(v), axis=0)
    np.subtract(out[-6:], out[-12:-6], out=out[-6:])
    return out


class BatchPosteriors:
    """Kernel output of T targets over S columns, node axis in plan order.
    The kernel's one posterior plane is log_p0 [V, T, S], log P(node
    unmastered | data). marginal [V, T, S], P(node mastered | data), is
    built from it on first read. pair [2, V, T, S] holds the (child,
    parent) cells (0, 0) and (1, 0); (0, 1) is zero, as a mastered parent
    entails the child, and (1, 1) is the parent's marginal. The root's
    parent counts as unmastered. An E-step reads log_p0 and learned, the
    (1, 0) cell, one plane at a time; pair stacks both, for the per-student
    view. pair and log_likelihood [T, S] are built on first read, which a
    prediction never makes, from log_p0, the row of zeros above the root
    and the upward messages; the counts must not change before then."""

    def __init__(self, plan, log_p0, log_gamma, up, log_e1, counts):
        self.plan = plan
        self._messages = (log_p0, log_gamma, up, log_e1, counts)
        self._marginal = self._pair = self._log_likelihood = None

    @property
    def log_p0(self) -> np.ndarray:
        return self._messages[0][:-1]

    @property
    def marginal(self) -> np.ndarray:
        if self._marginal is None:
            self._marginal = -np.expm1(self.log_p0)
        return self._marginal

    def learned(self, out: np.ndarray | None = None) -> np.ndarray:
        """The (1, 0) cell, P(node mastered, parent unmastered | data) [V,
        T, S]: exp(log_p0 of the parent + log γ - up), in out if given."""
        log_p0, log_gamma, up, _, _ = self._messages
        # Every index is in range; under mode "raise" take would buffer out.
        out = log_p0.take(self.plan.parent, axis=0, out=out, mode="clip")
        out += log_gamma
        out -= up
        return np.exp(out, out=out)

    @property
    def pair(self) -> np.ndarray:
        if self._pair is None:
            self._pair = pair = np.empty((2, *self.log_p0.shape))
            np.exp(self.log_p0, out=pair[0])
            self.learned(out=pair[1])
        return self._pair

    @property
    def log_likelihood(self) -> np.ndarray:
        if self._log_likelihood is None:
            # lb1 of the root is every response's log-emission at mastery.
            _, _, up, log_e1, counts = self._messages
            ll = np.einsum("k...,k...->...", counts.sum(axis=0), log_e1)
            ll += up[0]
            self._log_likelihood = ll
        return self._log_likelihood


def _log_parts(log_theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """log γ, log(1 - γ), log_e1 and log_ratio: the row blocks of log_form."""
    v = (len(log_theta) - 12) // 2
    return (log_theta[:v], log_theta[v:2 * v], log_theta[2 * v:2 * v + 6],
            log_theta[2 * v + 6:])


def _passes(plan: KernelPlan, log_gamma: np.ndarray, shifted: np.ndarray,
            log_e1: np.ndarray, counts: np.ndarray | None) -> BatchPosteriors:
    """The upward and the downward pass over columns [V, T, S], shifted
    (updated in place) holding each node's emission sums plus log(1 - γ)
    and log_gamma [V, T, 1] each target's log γ. A call of one target or
    one column runs on [V, T·S] columns; its result's arrays are [V, T, S]
    views all the same. log_e1 [6, T, 1] and counts go to the result for
    its log-likelihood.

    A mastered node forces its subtree, so its upward message lb1 is a sum
    of log-emissions and only the message bt0 to an unmastered parent needs
    a log-sum-exp; both are kept relative to lb1: shifted = lb0 - lb1 +
    log(1 - γ) and up = bt0 - lb1, per node. The downward pass runs on
    conditional probabilities (Durand, Goncalves & Guedon, IEEE TSP 2004):
    a node's log-probability of being unmastered is a sum along its root
    path. A call narrower than _NARROW columns on a tree with plan.scan
    does both passes by heavy-path scan (_scan), a constant number of
    array calls per round of heavy paths. Otherwise the upward pass goes
    one level at a time (plan.levels) and pointer doubling forms the root
    path sums in ceil(log2 depth) steps."""
    shape, gamma = shifted.shape, log_gamma
    if 1 in shape[1:]:
        shifted, gamma = shifted.reshape(len(shifted), -1), log_gamma.reshape(len(shifted), -1)
    up = np.empty_like(shifted)
    # log P(v unmastered) in rows 0 .. V - 1; row V, above the root, is 0.
    buf = np.empty((len(shifted) + 1, *shifted.shape[1:]))
    buf[-1] = 0.0
    log_p0 = buf[:-1]
    if shifted.size < _NARROW * len(shifted) and plan.scan is not None:
        _scan(plan.scan, gamma, shifted, up, buf)
    else:
        for level in plan.levels:
            level.run(gamma, shifted, up, buf)  # free until the downward pass
        # Each term shifted - up = log P(u unmastered | parent unmastered,
        # data) is <= 0 exactly. After doubling step k a node's row holds
        # the sum over the node and its 2**(k+1) - 1 nearest ancestors.
        np.subtract(shifted, up, out=log_p0)
        for jump in plan.jumps:
            log_p0 += buf.take(jump, axis=0)  # a copy: every row reads step k - 1
    return BatchPosteriors(plan, buf.reshape(len(buf), *shape[1:]), log_gamma,
                           up.reshape(shape), log_e1, counts)


def pool_posteriors(
    tree: ConceptTree, log_theta: np.ndarray, pool: np.ndarray,
    own: tuple[np.ndarray, np.ndarray] | None = None,
) -> BatchPosteriors:
    """The kernel, on T targets' copies of one pool of packed counts [V, 6,
    S]: posteriors of every column [V, T, S], target t's at θ column t in
    log form (log_theta [2V + 12, T], log_form). Nothing copies the pool:
    its emission sums are one matmul per node of the log-ratio block [T, 6]
    by the node's [6, S] counts.

    own = (at [T], counts [V, 6, T]) gives each target its own counts
    column, by einsum: it replaces the target's pool column at[t], so a
    result is [V, T, S] either way; InferenceError names an at[t] outside
    0 <= at[t] < S. A result with own columns has no log_likelihood."""
    plan = kernel_plan(tree)
    n_columns = pool.shape[2]
    if own is not None and len(own[0]) and not 0 <= min(own[0]) <= max(own[0]) < n_columns:
        t = next(t for t, j in enumerate(own[0]) if not 0 <= j < n_columns)
        raise InferenceError(f"own column at[{t}] = {own[0][t]} breaks the contract "
                             f"0 <= at[t] < S = {n_columns}")
    log_gamma, log1m_gamma, log_e1, log_ratio = _log_parts(log_theta)
    shifted = np.matmul(log_ratio.T, pool)
    if own is not None:
        at, counts = own
        shifted[:, np.arange(len(at)), at] = np.einsum("vkt,kt->vt", counts, log_ratio)
    shifted += log1m_gamma[:, :, None]
    return _passes(plan, log_gamma[:, :, None], shifted, log_e1[:, :, None],
                   pool if own is None else None)


class Prediction(NamedTuple):
    question_id: str
    prob_correct: float
    posterior_mastery: float


def blend(mastery, epsilon, phi):
    """P(correct) = (1 - m)·ε + m·φ, on floats or arrays alike."""
    return (1.0 - mastery) * epsilon + mastery * phi


#: The per-student view's names this module serves (treekt._LAZY).
__getattr__ = partial(_lazy_attribute, __name__)
