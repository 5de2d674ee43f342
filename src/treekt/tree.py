"""Knowledge concept trees, question metadata, and preprocessing.

A concept tree is a rooted tree of knowledge concepts. Parents are broader
concepts; mastering a parent entails mastering every descendant. Questions
are labeled with a single leaf concept and carry a difficulty class derived
from the historical solve rate.
"""

from __future__ import annotations

import csv
import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple


class TreeFormatError(ValueError):
    """A tree or question document is structurally unusable."""


class Difficulty(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


#: Default solve-rate cut points (t_hi, t_lo). Rates >= t_hi are easy,
#: rates in [t_lo, t_hi) medium, the rest hard.
DEFAULT_BIN_THRESHOLDS = (0.75, 0.50)


class ConceptNode(NamedTuple):
    id: str
    label: str
    parent: str | None
    children: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConceptTree:
    """Immutable rooted tree; safe to share across concurrent evaluations."""

    nodes: dict[str, ConceptNode]
    root: str

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def parent(self, node_id: str) -> str | None:
        return self.nodes[node_id].parent

    def children(self, node_id: str) -> tuple[str, ...]:
        return self.nodes[node_id].children

    def is_leaf(self, node_id: str) -> bool:
        return not self.nodes[node_id].children

    def leaves(self) -> list[str]:
        return [n for n in self.nodes if not self.nodes[n].children]

    def depth(self) -> int:
        """Maximum depth in levels, counting the root as level 1."""
        return max(self._depths().values())

    def _depths(self) -> dict[str, int]:
        depths = {self.root: 1}
        for node in self.downward_order():
            if node == self.root:
                continue
            depths[node] = depths[self.nodes[node].parent] + 1
        return depths

    def downward_order(self) -> list[str]:
        """Every node after its parent (pre-order, sibling order preserved)."""
        order: list[str] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.nodes[node].children))
        return order

    def upward_order(self) -> list[str]:
        """Every node after all of its children."""
        return list(reversed(self.downward_order()))


class QuestionMeta(NamedTuple):
    question_id: str
    kc: str
    difficulty: Difficulty
    solve_rate: float | None = None


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.valid:
            return "tree is valid"
        return "\n".join(f"violation: {v}" for v in self.violations)


def build_tree(entries: Iterable[tuple[str, str, str | None]]) -> ConceptTree:
    """Assemble a tree from (id, label, parent) triples.

    Raises TreeFormatError on duplicate ids, dangling parents, missing or
    multiple roots, or cycles. Children keep the input order.
    """
    entries = list(entries)
    ids = [e[0] for e in entries]
    seen: set[str] = set()
    for node_id in ids:
        if node_id in seen:
            raise TreeFormatError(f"duplicate node id: {node_id!r}")
        seen.add(node_id)

    roots = [e[0] for e in entries if e[2] is None]
    if not roots:
        raise TreeFormatError("no root node (every node lists a parent)")
    if len(roots) > 1:
        raise TreeFormatError(f"multiple roots: {roots}")

    children: dict[str, list[str]] = {node_id: [] for node_id in ids}
    for node_id, _, parent in entries:
        if parent is None:
            continue
        if parent not in seen:
            raise TreeFormatError(
                f"node {node_id!r} references unknown parent {parent!r}"
            )
        children[parent].append(node_id)

    nodes = {
        node_id: ConceptNode(node_id, label, parent, tuple(children[node_id]))
        for node_id, label, parent in entries
    }
    tree = ConceptTree(nodes=nodes, root=roots[0])

    report = validate_tree(tree)
    if not report.valid:
        raise TreeFormatError("; ".join(report.violations))
    return tree


def parse_tree(document: str) -> ConceptTree:
    """Parse the JSON tree format: {"nodes": [{"id", "label"?, "parent"?}]}.
    id, label (default: the id) and parent (absent or null at the root) are
    strings, and UTF-8 must encode the id; an entry that breaks this is
    named by its index in nodes."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"malformed tree document: {exc}") from exc
    except RecursionError as exc:  # json names no line: give the deepest bracket's
        text = re.sub(r'"(?:[^"\\\n]|\\.)*"', "0", document)  # strings hold no newline
        depth = [*accumulate((c in "[{") - (c in "]}") for c in text)]
        line = text.count("\n", 0, depth.index(max(depth))) + 1
        raise TreeFormatError(f"malformed tree document: too deep on line {line}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise TreeFormatError('tree document must be {"nodes": [...]}')
    entries = []
    for i, raw in enumerate(data["nodes"]):
        if not isinstance(raw, dict) or "id" not in raw:
            raise TreeFormatError(f"nodes[{i}]: bad node entry: {raw!r}")
        entry = (raw["id"], raw.get("label", raw["id"]), raw.get("parent"))
        for key, value in zip(("id", "label", "parent"), entry):
            if not isinstance(value, str) and (key != "parent" or value is not None):
                raise TreeFormatError(f"nodes[{i}]: {key} must be a string, got {value!r}")
        try:
            entry[0].encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise TreeFormatError(f"nodes[{i}]: id {entry[0]!r} cannot be written as UTF-8 "
                                  f"({exc.reason})") from exc
        entries.append(entry)
    return build_tree(entries)


def serialize_tree(tree: ConceptTree) -> str:
    """Inverse of parse_tree; node order follows the tree's node map."""
    nodes = []
    for node in tree.nodes.values():
        entry: dict[str, str] = {"id": node.id, "label": node.label}
        if node.parent is not None:
            entry["parent"] = node.parent
        nodes.append(entry)
    return json.dumps({"nodes": nodes}, indent=2, sort_keys=False) + "\n"


@contextmanager
def _named(path: str) -> Iterator[None]:
    """Put the path in front of every TreeFormatError raised inside."""
    try:
        yield
    except TreeFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def utf8_line(exc: UnicodeDecodeError) -> int:
    """The line of a file read whole that holds its first byte that is not
    UTF-8, numbered as the parsers number lines (str.splitlines, which
    also breaks on a lone carriage return, form feed or U+2028)."""
    before = exc.object[:exc.start].decode("utf-8")  # valid up to the bad byte
    # A character put in the bad byte's place lands on the bad byte's line.
    return len((before + "x").splitlines())


def _read(path: str) -> str:
    """A tree or question file's text; bytes that are not UTF-8 raise
    TreeFormatError naming their line."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise TreeFormatError(f"line {utf8_line(exc)}: not UTF-8 text: {exc}") from exc


def load_tree(path: str) -> ConceptTree:
    """parse_tree on a file; every TreeFormatError starts with the path."""
    with _named(path):
        return parse_tree(_read(path))


def validate_tree(tree: ConceptTree) -> ValidationReport:
    """Report (not raise) every structural invariant violation."""
    report = ValidationReport()
    if tree.root not in tree.nodes:
        report.violations.append(f"root {tree.root!r} is not a node")
        return report
    if tree.nodes[tree.root].parent is not None:
        report.violations.append("root has a parent")

    parent_of: dict[str, str] = {}
    for node in tree.nodes.values():
        if node.id != tree.root and node.parent is None:
            report.violations.append(f"second parentless node: {node.id!r}")
        for child in node.children:
            if child not in tree.nodes:
                report.violations.append(
                    f"node {node.id!r} lists unknown child {child!r}"
                )
                continue
            if child in parent_of:
                report.violations.append(f"multiple parents for {child!r}")
            parent_of[child] = node.id
            if tree.nodes[child].parent != node.id:
                report.violations.append(
                    f"parent/children mismatch between {node.id!r} and {child!r}"
                )
    for node in tree.nodes.values():
        if node.parent is not None and node.parent in tree.nodes:
            if node.id not in tree.nodes[node.parent].children:
                report.violations.append(
                    f"node {node.id!r} not listed among children of {node.parent!r}"
                )

    # Reachability from the root catches both cycles and disconnection.
    reached: set[str] = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node in reached or node not in tree.nodes:
            continue
        reached.add(node)
        stack.extend(tree.nodes[node].children)
    unreachable = [n for n in tree.nodes if n not in reached]
    if unreachable:
        report.violations.append(
            f"not connected: unreachable from root: {sorted(unreachable)}"
        )
    return report


def assign_difficulty(
    solve_rate: float,
    thresholds: tuple[float, float] = DEFAULT_BIN_THRESHOLDS,
) -> Difficulty:
    """Bin a historical solve rate into easy/medium/hard.

    Boundary values go to the easier bin (>= comparisons).
    """
    t_hi, t_lo = thresholds
    if not 0.0 < t_lo < t_hi < 1.0:
        raise ValueError(f"invalid thresholds: t_hi={t_hi}, t_lo={t_lo}")
    if not 0.0 <= solve_rate <= 1.0:
        raise ValueError(f"solve_rate out of [0,1]: {solve_rate}")
    if solve_rate >= t_hi:
        return Difficulty.EASY
    if solve_rate >= t_lo:
        return Difficulty.MEDIUM
    return Difficulty.HARD


def merge_sparse_leaves(
    tree: ConceptTree,
    question_counts: Mapping[str, int],
    min_count: int = 10,
) -> tuple[ConceptTree, dict[str, str]]:
    """Merge leaves holding fewer than min_count questions into their parent.

    Questions of a merged leaf are reassigned to the parent. When a node
    loses children to merging and exactly one (leaf) child remains, that
    child's questions also move up and the child is pruned. Repeats until
    no sparse non-root leaf remains.

    Returns the reduced tree and a remap old-node-id -> surviving-node-id
    for reassigning question labels. Ids that survive map to themselves.
    """
    counts = {n: int(question_counts.get(n, 0)) for n in tree.nodes}
    children = {n: list(tree.nodes[n].children) for n in tree.nodes}
    parent = {n: tree.nodes[n].parent for n in tree.nodes}
    alive = set(tree.nodes)
    remap = {n: n for n in tree.nodes}

    def absorb(child: str, into: str) -> None:
        counts[into] += counts[child]
        children[into].remove(child)
        alive.discard(child)
        remap[child] = into

    changed = True
    while changed:
        changed = False
        # Upward order so cascaded merges settle in one sweep.
        for node in tree.upward_order():
            if node not in alive or node == tree.root:
                continue
            if children[node] or counts[node] >= min_count:
                continue
            p = parent[node]
            absorb(node, p)
            changed = True
            remaining = children[p]
            if len(remaining) == 1 and not children[remaining[0]]:
                absorb(remaining[0], p)

    # Chase merge chains so every old id maps to a surviving node.
    def resolve(node: str) -> str:
        while remap[node] != node:
            node = remap[node]
        return node

    final_remap = {n: resolve(n) for n in tree.nodes}

    nodes = {node_id: node._replace(children=tuple(children[node_id]))
             for node_id, node in tree.nodes.items() if node_id in alive}
    return ConceptTree(nodes=nodes, root=tree.root), final_remap


def parse_questions(
    document: str,
    tree: ConceptTree,
    thresholds: tuple[float, float] = DEFAULT_BIN_THRESHOLDS,
    keep_most_frequent_kc: bool = False,
) -> list[QuestionMeta]:
    """Parse question metadata from CSV or JSON-lines text.

    Records carry question_id, kc_id, and either solve_rate (difficulty is
    derived) or an explicit difficulty. A question appearing with several
    KCs is an error unless keep_most_frequent_kc is set, in which case the
    KC occurring most often across the whole document is retained. Every
    error is a TreeFormatError; one about a single record names its line.
    """
    by_question: dict[str, list[tuple[int, dict]]] = {}
    kc_freq: dict[str, int] = {}
    for line, row in _read_records(document):
        for key in ("question_id", "kc_id"):
            if row.get(key) in (None, ""):
                raise TreeFormatError(f"line {line}: question record has no {key}")
        by_question.setdefault(str(row["question_id"]), []).append((line, row))
        kc = str(row["kc_id"])
        kc_freq[kc] = kc_freq.get(kc, 0) + 1

    questions = []
    for qid, variants in by_question.items():
        kcs = {str(r["kc_id"]) for _, r in variants}
        if len(kcs) > 1:
            if not keep_most_frequent_kc:
                raise TreeFormatError(
                    f"question {qid!r} labeled with multiple KCs: {sorted(kcs)}"
                )
            chosen = max(sorted(kcs), key=lambda k: kc_freq[k])
            variants = [(n, r) for n, r in variants if str(r["kc_id"]) == chosen]
        line, row = variants[0]
        kc = str(row["kc_id"])
        try:
            if kc not in tree:
                raise TreeFormatError(f"question {qid!r} references unknown KC {kc!r}")
            if not tree.is_leaf(kc):
                raise TreeFormatError(f"question {qid!r} KC {kc!r} is not a leaf")

            solve_rate = None
            if row.get("solve_rate") not in (None, ""):
                solve_rate = float(row["solve_rate"])
            if row.get("difficulty") not in (None, ""):
                difficulty = Difficulty(str(row["difficulty"]))
                if solve_rate is not None:
                    derived = assign_difficulty(solve_rate, thresholds)
                    if derived is not difficulty:
                        raise TreeFormatError(
                            f"question {qid!r}: difficulty {difficulty.value!r} "
                            f"inconsistent with solve_rate {solve_rate} "
                            f"(bins give {derived.value!r})"
                        )
            elif solve_rate is not None:
                difficulty = assign_difficulty(solve_rate, thresholds)
            else:
                raise TreeFormatError(
                    f"question {qid!r} has neither solve_rate nor difficulty"
                )
        except (ValueError, TypeError, OverflowError) as exc:
            raise TreeFormatError(f"line {line}: {exc}") from exc
        questions.append(QuestionMeta(qid, kc, difficulty, solve_rate))
    return questions


def load_questions(path: str, tree: ConceptTree, **kwargs) -> list[QuestionMeta]:
    """parse_questions on a file; every TreeFormatError starts with the path."""
    with _named(path):
        return parse_questions(_read(path), tree, **kwargs)


def serialize_questions(questions: Iterable[QuestionMeta]) -> str:
    """JSON-lines form of parse_questions' input."""
    lines = []
    for q in questions:
        record = {
            "question_id": q.question_id,
            "kc_id": q.kc,
            "difficulty": q.difficulty.value,
        }
        if q.solve_rate is not None:
            record["solve_rate"] = q.solve_rate
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _read_records(document: str) -> list[tuple[int, dict]]:
    """(line number, record) for each record of a JSON-lines or CSV text."""
    stripped = document.strip()
    if not stripped:
        return []
    if stripped[0] == "{":
        records = []
        for i, line in enumerate(document.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise TreeFormatError(f"bad JSON on line {i}: {exc}") from exc
            if not isinstance(record, dict):
                raise TreeFormatError(f"line {i}: a question record must be an object")
            records.append((i, record))
        return records
    reader = csv.DictReader(io.StringIO(document))
    if reader.fieldnames is None or "question_id" not in reader.fieldnames:
        raise TreeFormatError("question CSV must have a question_id column")
    return [(reader.line_num, row) for row in reader]
