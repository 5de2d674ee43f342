"""Exact posterior inference: one array kernel over a batch of students.

The kernel takes response counts packed as [V, 6, S] (nodes in breadth-first
order x CELL_KEYS x students) and runs the upward-downward recursion of the
hidden Markov tree on every student at once: upward one tree level at a
time, or on a deep tree by heavy-path contraction in about 2 log2(depth)
steps; downward in ceil(log2 depth) pointer-doubling steps. A single student
is a batch of one. Responses are packed through one slot table built with
the tree's plan. Counts make every posterior independent of the order
responses arrived in, bit for bit. Parameters reach the kernel in log form,
built from θ columns by log_form with one np.log and one np.log1p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .model import ParameterError, Parameters  # noqa: F401 (re-exported)
from .tree import ConceptTree, Difficulty, QuestionMeta

#: The (difficulty, correct) cell of each slot on axis 1 of packed counts.
CELL_KEYS = tuple((d, c) for d in Difficulty for c in (0, 1))
#: Per cell: its rate's position in (r_easy, r_med, r_hard), and whether
#: it is a correct response.
_CELL_RATE_CORRECT = tuple((list(Difficulty).index(d), c) for d, c in CELL_KEYS)


class InferenceError(ValueError):
    """Raised for observations outside the tree."""


@dataclass(frozen=True)
class Interaction:
    """One observed response to a question labeled with a leaf concept."""

    question_id: str
    kc: str
    difficulty: Difficulty
    correct: int


@dataclass(frozen=True)
class ObservationSet:
    """A student's response history, grouped by concept.

    counts maps node id -> {(difficulty, correct): multiplicity}; it is the
    canonical order-free form the kernel packs.
    """

    interactions: tuple[Interaction, ...]
    counts: dict[str, dict[tuple[Difficulty, int], int]]

    def __len__(self) -> int:
        return len(self.interactions)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.interactions)


def observation_set(
    tree: ConceptTree, interactions: Iterable[Interaction]
) -> ObservationSet:
    interactions = tuple(interactions)
    cell_slots(tree, interactions)  # every response is checked against the tree
    counts: dict[str, dict[tuple[Difficulty, int], int]] = {}
    for it in interactions:
        node_counts = counts.setdefault(it.kc, {})
        key = (it.difficulty, it.correct)
        node_counts[key] = node_counts.get(key, 0) + 1
    return ObservationSet(interactions=interactions, counts=counts)


#: Calls with fewer counts columns than this take plan.upward; wider ones
#: take plan.levels. A narrow call's time is mostly numpy call overhead
#: (about 1 us a call), which contraction saves; a wide call's is mostly
#: np.logaddexp (about 40 ns an element), of which a level schedule does
#: the least: one per node, against three or more per path node. Measured
#: on chains and caterpillars, contraction stops paying between 16 and 96
#: columns.
_NARROW = 16


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
            x = incidence.dot(x)
        shifted[parents] += x


class _Level(NamedTuple):
    """One tree level, a contiguous slice whose children have all added
    their messages: up = log(gamma + e^shifted); then each node adds its
    message into its parent through the dense 0/1 incidence [parent level,
    level] (none for the root)."""

    here: slice
    above: slice | None
    incidence: np.ndarray | None

    def run(self, log_gamma, shifted, up, p, q) -> None:
        here, above, incidence = self
        level_up = up[here]
        np.logaddexp(log_gamma[here], shifted[here], out=level_up)
        if incidence is not None:
            parents = shifted[above]
            np.add(parents, incidence.dot(level_up), out=parents)


class _Leaves(NamedTuple):
    """The light leaves of a deep tree, finished at once (up = log(gamma +
    e^shifted)) and added into their parents."""

    nodes: np.ndarray
    light: _Light | None

    def run(self, log_gamma, shifted, up, p, q) -> None:
        nodes, light = self
        up[nodes] = np.logaddexp(log_gamma[nodes], shifted[nodes])
        if light is not None:
            light.add(shifted, up)


class _Compose(NamedTuple):
    """One contraction level: a map (p, q) of a path segment is x -> log(e^p
    + e^(q + x)), and each left map absorbs its right neighbour, (p, q)
    after (p', q') = (logaddexp(p, q + p'), q + q'), into the level above.
    The first level loads each path node's map (log gamma, shifted)."""

    lefts: slice
    rights: slice
    above: slice
    load: tuple[np.ndarray, np.ndarray] | None  # (work rows, nodes)

    def run(self, log_gamma, shifted, up, p, q) -> None:
        if self.load is not None:
            rows, nodes = self.load
            p[rows] = log_gamma[nodes]
            q[rows] = shifted[nodes]
        np.logaddexp(p[self.lefts], q[self.lefts] + p[self.rights], out=p[self.above])
        np.add(q[self.lefts], q[self.rights], out=q[self.above])


class _Expand(NamedTuple):
    """One expansion level, into the p rows: the message below a right map
    is the one below its pair, the message below a left map is the right
    map applied to it. The last level gives each path node shifted = b +
    the message below it (its heavy child's up) and up = log(gamma +
    e^shifted), then adds the path heads' messages into their parents."""

    lefts: slice
    rights: slice
    above: slice
    unload: tuple[np.ndarray, np.ndarray] | None  # (work rows, nodes)
    light: _Light | None

    def run(self, log_gamma, shifted, up, p, q) -> None:
        np.logaddexp(p[self.rights], q[self.rights] + p[self.above], out=p[self.lefts])
        p[self.rights] = p[self.above]
        if self.unload is not None:
            rows, nodes = self.unload
            below = q[rows] + p[rows]
            shifted[nodes] = below
            up[nodes] = np.logaddexp(log_gamma[nodes], below)
        if self.light is not None:
            self.light.add(shifted, up)


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


def _path_schedule(parent: np.ndarray) -> tuple[list, np.ndarray]:
    """Upward steps by heavy-path contraction, and the work rows [2, rows, 1]
    they start from.

    A node's heavy child is its child with the largest subtree; heavy paths
    run from the root and from each light child down heavy children. A
    path's round is one more than the largest round of its nodes' light
    children, so those have finished when it starts; a round of bare
    leaves is one finishing step. In a round, a path of L nodes is a block
    of 2**K maps, K = bit_length(L): its nodes' maps (log gamma, shifted),
    then copies of the sentinel that stands below its end, the constant
    map to 0 (p = 0, q = -inf). Contraction pairs neighbours level by level
    until two maps are left per block; expansion then hands each map the
    message below it, starting from 0 below the top pair. The rows of a
    level hold the left maps of the next level's pairs, then their right
    maps, then the blocks that end at that level, so every step works on
    contiguous row slices.
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
    steps, sentinels, base = [], [], 0
    for r in range(max(rank.values()) + 1):
        heads = sorted(h for h in paths if rank[h] == r)
        light = _light(parent, heads)
        if all(len(paths[h]) == 1 for h in heads):
            steps.append(_Leaves(np.array(heads), light))
            continue
        blocks = sorted((paths[h] for h in heads), key=lambda p: -len(p).bit_length())
        top = len(blocks[0]).bit_length()
        ends = [[b for b, path in enumerate(blocks) if len(path).bit_length() == j]
                for j in range(top + 1)]  # the blocks that end at each level
        # Per level j = 1 .. top, (block, position) of each map, in row order.
        maps = [(b, 0) for b in ends[top]]
        tiers = [maps]
        for j in range(top - 1, 0, -1):
            maps = [(b, 2 * i) for b, i in maps] + [(b, 2 * i + 1) for b, i in maps] \
                + [(b, 0) for b in ends[j]]
            tiers.append(maps)
        tiers.reverse()
        rows, nodes = [], []
        first = [(b, 2 * i) for b, i in tiers[0]] + [(b, 2 * i + 1) for b, i in tiers[0]]
        for k, (b, i) in enumerate(first):
            if i < len(blocks[b]):
                rows.append(base + k)
                nodes.append(blocks[b][i])
            else:
                sentinels.append(base + k)
        load = (np.array(rows), np.array(nodes))
        compose, expand = [], []
        for j, above_maps in enumerate(tiers):
            pairs = len(above_maps)
            lefts, rights = slice(base, base + pairs), slice(base + pairs, base + 2 * pairs)
            base += 2 * pairs + len(ends[j])
            above = slice(base, base + pairs)
            if j < top - 1:
                compose.append(_Compose(lefts, rights, above, None if j else load))
            expand.append(_Expand(lefts, rights, above, None if j else load,
                                  None if j else light))
        base += len(tiers[-1])
        steps += compose + expand[::-1]
    work = np.zeros((2, base, 1))
    work[1, sentinels] = -np.inf
    return steps, work


class KernelPlan:
    """Breadth-first numbering of a tree and the kernel's schedules.

    Index V stands for "above the root" and is its own ancestor. parent:
    each node's parent index (V for the root). levels: the upward pass one
    tree level at a time, leaves first. upward: of levels and heavy-path
    contraction (_path_schedule, about 2 log2(depth) steps on a deep
    tree), the schedule with fewer steps; work: the rows contraction
    starts from, None with levels. jumps: per pointer-doubling step k of
    the downward pass, the 2**k-th ancestor of each node; there are
    ceil(log2 depth) steps. slots: (leaf, difficulty, correct) -> its flat
    cell in a [V, 6] column of packed counts.

    Each upward step's run(log_gamma, shifted, up, p, q) updates the
    kernel's shifted and up rows, and contraction's work rows p and q, in
    place."""

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
        self.upward, self.work = _path_schedule(self.parent)
        if len(self.upward) >= len(self.levels):
            self.upward, self.work = self.levels, None
        self.jumps = []
        for _ in range((len(bounds) - 1).bit_length()):
            self.jumps.append(ancestor[:above])
            ancestor = ancestor[ancestor]
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
    """Each response's flat cell in a [V, 6] column of packed counts.
    Raises InferenceError for a response outside the tree's leaves."""
    slots = kernel_plan(tree).slots
    try:
        return [slots[it.kc, it.difficulty, it.correct] for it in interactions]
    except KeyError:
        for it in interactions:
            if (it.kc, it.difficulty, it.correct) not in slots:
                raise _slot_error(tree, it) from None
        raise


def pack_counts(
    tree: ConceptTree, histories: Sequence[Collection[Interaction]]
) -> np.ndarray:
    """Response counts of each history (interactions or an ObservationSet),
    one column each, as [V, 6, S], through the tree's slot table."""
    plan = kernel_plan(tree)
    n = len(histories)
    counts = np.zeros((len(plan.order), len(CELL_KEYS), n))
    flat = [slot * n + s for s, history in enumerate(histories)
            for slot in cell_slots(tree, history)]
    np.add.at(counts.reshape(-1), flat, 1.0)
    return counts


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
    """Kernel output, node axis in plan order. cells holds the (child,
    parent) cells (0, 0), (1, 0), (1, 1); (0, 1) is zero, as a mastered
    parent entails the child. The root's parent counts as unmastered.
    pair [2, V, S] (cells (0, 0) and (1, 0), what an E-step reads), cells
    [3, V, S] and log_likelihood [S] are built on first read, which a
    prediction never makes, from the kernel's log P(unmastered | data)
    rows (row V is 0) and upward messages; the counts must not change
    before then."""

    def __init__(self, plan, marginal, log_p0, log_gamma, up, log_e1, counts):
        self.plan = plan
        self.marginal = marginal  # [V, S]
        self._messages = (log_p0, log_gamma, up, log_e1, counts)
        self._pair = self._cells = self._log_likelihood = None

    @property
    def pair(self) -> np.ndarray:
        if self._pair is None:
            log_p0, log_gamma, up, _, _ = self._messages
            self._pair = pair = np.empty((2, *up.shape))
            np.exp(log_p0[:-1], out=pair[0])
            parent_log_p0 = log_p0.take(self.plan.parent, axis=0)
            parent_log_p0 += log_gamma
            parent_log_p0 -= up
            np.exp(parent_log_p0, out=pair[1])
        return self._pair

    @property
    def cells(self) -> np.ndarray:
        if self._cells is None:
            parent_log_p0 = self._messages[0].take(self.plan.parent, axis=0)
            self._cells = np.concatenate((self.pair, -np.expm1(parent_log_p0)[None]))
        return self._cells

    @property
    def log_likelihood(self) -> np.ndarray:
        if self._log_likelihood is None:
            # lb1 of the root is every response's log-emission at mastery.
            _, _, up, log_e1, counts = self._messages
            if log_e1.shape[1] == 1:
                ll = log_e1[:, 0] @ counts.sum(axis=0)
            else:
                ll = np.einsum("kc,kc->c", counts.sum(axis=0), log_e1)
            ll += up[0]
            self._log_likelihood = ll
        return self._log_likelihood


def batch_posteriors(
    tree: ConceptTree, params: Parameters | np.ndarray, counts: np.ndarray
) -> BatchPosteriors:
    """The kernel: posteriors of every column of packed counts [V, 6, C],
    under θ in log form (log_form), [2V + 12, 1] shared by every counts
    column or [2V + 12, C], one column each (a Parameters value is one
    shared column).

    A mastered node forces its subtree, so its upward message lb1 is a sum
    of log-emissions and only the message bt0 to an unmastered parent needs
    a log-sum-exp; both are kept relative to lb1. The upward pass runs on
    plan.upward for a call narrower than _NARROW columns and on plan.levels
    otherwise. The downward pass runs on conditional probabilities (Durand,
    Goncalves & Guedon, IEEE TSP 2004): a node's log-probability of being
    unmastered is a sum along its root path, which pointer doubling forms
    in ceil(log2 depth) steps.
    """
    plan = kernel_plan(tree)
    if isinstance(params, Parameters):
        params = log_form(params.column(plan.order)[:, None])
    v = len(plan.order)
    log_gamma, log1m_gamma = params[:v], params[v:2 * v]
    log_e1, log_ratio = params[2 * v:2 * v + 6], params[2 * v + 6:]
    # shifted = lb0 - lb1 + log(1 - gamma) and up = bt0 - lb1, per node.
    shared = log_ratio.shape[1] == 1  # then a matmul does the emission sums
    if shared:
        shifted = log_ratio[:, 0] @ counts
    else:
        shifted = np.einsum("vkc,kc->vc", counts, log_ratio)
    shifted += log1m_gamma
    up = np.empty_like(shifted)
    width = shifted.shape[1]
    steps, work = (plan.upward, plan.work) if width < _NARROW else (plan.levels, None)
    p, q = (None, None) if work is None else work.repeat(width, axis=2)
    for step in steps:
        step.run(log_gamma, shifted, up, p, q)
    # log P(v unmastered) sums log P(u unmastered | parent unmastered, data)
    # = shifted - up over v and its ancestors; each is <= 0 exactly. Row V,
    # above the root, stays 0. After doubling step k a node's row holds the
    # sum over the node and its 2**(k+1) - 1 nearest ancestors.
    buf = np.empty((len(plan.order) + 1, width))
    buf[-1] = 0.0
    log_p0 = np.subtract(shifted, up, out=buf[:-1])
    for jump in plan.jumps:
        log_p0 += buf.take(jump, axis=0)  # a copy: every row reads step k - 1
    return BatchPosteriors(plan, -np.expm1(log_p0), buf, log_gamma, up, log_e1, counts)


@dataclass(frozen=True, eq=False)
class BeliefTable:
    """One student's posteriors by node id: a read-only view of one column
    of a kernel result."""

    result: BatchPosteriors
    column: int = 0

    @property
    def log_likelihood(self) -> float:
        return float(self.result.log_likelihood[self.column])

    def posterior_mastery(self, node_id: str) -> float:
        if node_id not in self.result.plan.index:
            raise InferenceError(f"unknown KC: {node_id!r}")
        return float(self.result.marginal[self.result.plan.index[node_id], self.column])

    @cached_property
    def marginal(self) -> Mapping[str, float]:
        values = self.result.marginal[:, self.column].tolist()
        return MappingProxyType(dict(zip(self.result.plan.order, values)))

    @cached_property
    def pairwise(self) -> Mapping[str, Mapping[tuple[int, int], float]]:
        """(child state, parent state) -> posterior, for every non-root node."""
        rows = zip(self.result.plan.order, *self.result.cells[:, :, self.column].tolist())
        next(rows)  # the root
        return MappingProxyType({
            node: MappingProxyType({(0, 0): p00, (1, 0): p10, (0, 1): 0.0, (1, 1): p11})
            for node, p00, p10, p11 in rows
        })


@dataclass(frozen=True)
class Prediction:
    question_id: str
    prob_correct: float
    posterior_mastery: float


def posteriors(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> BeliefTable:
    """Full table for one student: marginals, pairwise posteriors, and data
    log-likelihood."""
    return BeliefTable(batch_posteriors(tree, params, pack_counts(tree, [obs])))


def predict(
    params: Parameters, belief: BeliefTable, question: QuestionMeta
) -> Prediction:
    """Blend mastered/unmastered correctness rates with the posterior."""
    p1 = belief.posterior_mastery(question.kc)
    phi = params.phi(question.difficulty)
    prob = (1.0 - p1) * params.epsilon + p1 * phi
    return Prediction(
        question_id=question.question_id,
        prob_correct=prob,
        posterior_mastery=p1,
    )


def log_likelihood(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> float:
    """Log-probability of the observed responses under the model."""
    return posteriors(tree, params, obs).log_likelihood

