import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekt import (
    ConceptNode,
    ConceptTree,
    Difficulty,
    TreeFormatError,
    assign_difficulty,
    load_tree,
    merge_sparse_leaves,
    parse_questions,
    parse_tree,
    serialize_tree,
    validate_tree,
)
from treekt.simulate import random_tree

from conftest import DATA_DIR, chain_tree, single_node_tree, star_tree


def doc(*entries):
    nodes = []
    for e in entries:
        node = {"id": e[0], "label": e[0]}
        if len(e) > 1:
            node["parent"] = e[1]
        nodes.append(node)
    return json.dumps({"nodes": nodes})


class TestParseTree:
    def test_minimal_tree(self):
        tree = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))
        assert tree.root == "A"
        assert sorted(tree.leaves()) == ["B", "C"]

    def test_two_node_cycle_rejected(self):
        with pytest.raises(TreeFormatError):
            parse_tree(doc(("B", "A"), ("A", "B")))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TreeFormatError, match="duplicate"):
            parse_tree(doc(("A",), ("B", "A"), ("B", "A")))

    def test_dangling_parent_rejected(self):
        with pytest.raises(TreeFormatError, match="unknown parent"):
            parse_tree(doc(("A",), ("B", "Z")))

    def test_malformed_document(self):
        with pytest.raises(TreeFormatError):
            parse_tree("{not json")
        with pytest.raises(TreeFormatError):
            parse_tree('{"nodes": "nope"}')

    def test_counting_module_statistics(self):
        tree = parse_tree((DATA_DIR / "counting_module.json").read_text())
        assert len(tree.nodes) == 69
        assert len(tree.leaves()) == 46
        assert tree.depth() == 5

    def test_roundtrip_is_stable(self):
        text = (DATA_DIR / "counting_module.json").read_text()
        tree = parse_tree(text)
        serialized = serialize_tree(tree)
        assert parse_tree(serialized) == tree
        assert serialize_tree(parse_tree(serialized)) == serialized


class TestTreeFileErrors:
    @pytest.mark.parametrize("node, needle", [
        ({"id": ["a"], "parent": "A"}, "nodes[1]: id must be a string, got ['a']"),
        ({"id": 7, "parent": "A"}, "nodes[1]: id must be a string, got 7"),
        ({"id": "B", "label": None, "parent": "A"}, "nodes[1]: label must be a string"),
        ({"id": "B", "parent": 3}, "nodes[1]: parent must be a string, got 3"),
        ({"id": "B", "parent": ["A"]}, "nodes[1]: parent must be a string"),
        ("B", "nodes[1]: bad node entry"),
    ])
    def test_non_string_field_names_the_node(self, node, needle):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(json.dumps({"nodes": [{"id": "A"}, node]}))
        assert str(exc.value).startswith(needle)

    def test_null_parent_is_the_root(self):
        tree = parse_tree(json.dumps({"nodes": [{"id": "A", "parent": None},
                                                {"id": "B", "parent": "A"}]}))
        assert tree.root == "A"

    @pytest.mark.parametrize("document", [
        "{not json",
        '{"nodes": "nope"}',
        json.dumps({"nodes": [{"id": ["a"]}]}),
        doc(("A",), ("B", "Z")),
        doc(("B", "A"), ("A", "B")),
    ])
    def test_load_tree_starts_every_error_with_the_path(self, tmp_path, document):
        path = tmp_path / "tree.json"
        path.write_text(document)
        with pytest.raises(TreeFormatError) as exc:
            load_tree(str(path))
        assert str(exc.value).startswith(f"{path}: ")
        # An unparseable document stays distinguishable (exit 2, not 1).
        assert isinstance(exc.value.__cause__, json.JSONDecodeError) == (
            document == "{not json")


class TestValidateTree:
    def test_single_node_valid(self):
        assert validate_tree(single_node_tree()).valid

    def test_multiple_parents_reported(self):
        # Hand-assembled inconsistency: C appears under both A and B.
        nodes = {
            "A": ConceptNode("A", "A", None, ("B", "C")),
            "B": ConceptNode("B", "B", "A", ("C",)),
            "C": ConceptNode("C", "C", "A", ()),
        }
        report = validate_tree(ConceptTree(nodes=nodes, root="A"))
        assert any("multiple parents" in v for v in report.violations)

    def test_disconnected_forest_reported(self):
        nodes = {
            "A": ConceptNode("A", "A", None, ()),
            "B": ConceptNode("B", "B", None, ("C",)),
            "C": ConceptNode("C", "C", "B", ()),
        }
        report = validate_tree(ConceptTree(nodes=nodes, root="A"))
        assert any("not connected" in v for v in report.violations)
        assert any("parentless" in v for v in report.violations)

    def test_edge_count_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 40)))
            edges = sum(len(n.children) for n in tree.nodes.values())
            assert edges == len(tree.nodes) - 1
            assert validate_tree(tree).valid


class TestAssignDifficulty:
    def test_default_bins(self):
        assert assign_difficulty(0.80) is Difficulty.EASY
        assert assign_difficulty(0.50) is Difficulty.MEDIUM
        assert assign_difficulty(0.0) is Difficulty.HARD

    def test_boundaries_go_to_easier_bin(self):
        assert assign_difficulty(0.75) is Difficulty.EASY
        assert assign_difficulty(0.50) is Difficulty.MEDIUM

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            assign_difficulty(0.5, thresholds=(0.4, 0.6))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_total_on_unit_interval(self, rate):
        assert assign_difficulty(rate) in set(Difficulty)


class TestMergeSparseLeaves:
    def test_sparse_leaf_merged_into_parent(self):
        tree = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))
        merged, remap = merge_sparse_leaves(tree, {"B": 3, "C": 12}, min_count=10)
        assert "B" not in merged.nodes
        assert remap["B"] == "A"

    def test_no_sparse_leaves_is_fixpoint(self):
        tree = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))
        merged, remap = merge_sparse_leaves(tree, {"B": 15, "C": 12}, min_count=10)
        assert merged == tree
        assert all(remap[n] == n for n in tree.nodes)

    def test_lone_survivor_pruned(self):
        tree = parse_tree(doc(("A",), ("P", "A"), ("X", "P"), ("Y", "P"), ("Z", "A")))
        counts = {"X": 12, "Y": 4, "Z": 20}
        merged, remap = merge_sparse_leaves(tree, counts, min_count=10)
        # Y merges into P; X is the lone remaining child and is pruned too.
        assert "Y" not in merged.nodes and "X" not in merged.nodes
        assert remap["Y"] == "P" and remap["X"] == "P"
        assert "Z" in merged.nodes

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 30)))
            counts = {n: int(rng.integers(0, 25)) for n in tree.leaves()}
            once, remap1 = merge_sparse_leaves(tree, counts, min_count=10)
            counts_after = {}
            for old, new in remap1.items():
                counts_after[new] = counts_after.get(new, 0) + counts.get(old, 0)
            twice, remap2 = merge_sparse_leaves(once, counts_after, min_count=10)
            assert twice == once
            assert all(remap2[n] == n for n in once.nodes)

    def test_merged_tree_stays_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 30)))
            counts = {n: int(rng.integers(0, 25)) for n in tree.leaves()}
            merged, remap = merge_sparse_leaves(tree, counts, min_count=10)
            assert validate_tree(merged).valid
            assert set(remap.values()) <= set(merged.nodes)


class TestTraversalOrders:
    def test_chain(self):
        tree = chain_tree(3)
        up, down = tree.upward_order(), tree.downward_order()
        assert up == ["n2", "n1", "n0"]
        assert down == ["n0", "n1", "n2"]

    def test_single_node(self):
        tree = single_node_tree()
        up, down = tree.upward_order(), tree.downward_order()
        assert up == ["only"] and down == ["only"]

    def test_star_downward_starts_at_root(self):
        down = star_tree(3).downward_order()
        assert down[0] == "root"

    def test_orders_are_consistent_permutations(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 40)))
            up, down = tree.upward_order(), tree.downward_order()
            assert sorted(up) == sorted(tree.nodes) == sorted(down)
            pos = {n: i for i, n in enumerate(up)}
            for node in tree.nodes:
                for child in tree.children(node):
                    assert pos[child] < pos[node]
            pos = {n: i for i, n in enumerate(down)}
            for node in tree.nodes:
                for child in tree.children(node):
                    assert pos[child] > pos[node]


class TestParseQuestions:
    TREE = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))

    def test_jsonl_with_solve_rate(self):
        text = (
            '{"question_id": "q1", "kc_id": "B", "solve_rate": 0.8}\n'
            '{"question_id": "q2", "kc_id": "C", "solve_rate": 0.2}\n'
        )
        questions = parse_questions(text, self.TREE)
        assert questions[0].difficulty is Difficulty.EASY
        assert questions[1].difficulty is Difficulty.HARD

    def test_csv_with_explicit_difficulty(self):
        text = "question_id,kc_id,difficulty\nq1,B,medium\n"
        (q,) = parse_questions(text, self.TREE)
        assert q.difficulty is Difficulty.MEDIUM

    def test_inconsistent_difficulty_and_rate(self):
        text = '{"question_id": "q1", "kc_id": "B", "solve_rate": 0.9, "difficulty": "hard"}'
        with pytest.raises(TreeFormatError, match="inconsistent"):
            parse_questions(text, self.TREE)

    def test_non_leaf_kc_rejected(self):
        text = '{"question_id": "q1", "kc_id": "A", "difficulty": "easy"}'
        with pytest.raises(TreeFormatError, match="not a leaf"):
            parse_questions(text, self.TREE)

    def test_multi_kc_rejected_by_default(self):
        text = (
            '{"question_id": "q1", "kc_id": "B", "difficulty": "easy"}\n'
            '{"question_id": "q1", "kc_id": "C", "difficulty": "easy"}\n'
            '{"question_id": "q2", "kc_id": "C", "difficulty": "easy"}\n'
        )
        with pytest.raises(TreeFormatError, match="multiple KCs"):
            parse_questions(text, self.TREE)
        questions = parse_questions(text, self.TREE, keep_most_frequent_kc=True)
        assert [q.kc for q in questions] == ["C", "C"]


class TestQuestionFileErrors:
    TREE = TestParseQuestions.TREE
    FIRST = '{"question_id": "q1", "kc_id": "C", "difficulty": "easy"}\n\n'

    @pytest.mark.parametrize("record, needle", [
        ({"question_id": "q2", "difficulty": "easy"}, "question record has no kc_id"),
        ({"kc_id": "B", "difficulty": "easy"}, "question record has no question_id"),
        ({"question_id": "q2", "kc_id": "B", "solve_rate": "abc"}, "'abc'"),
        ({"question_id": "q2", "kc_id": "B", "solve_rate": 1.5}, "solve_rate out of [0,1]"),
        ({"question_id": "q2", "kc_id": "B", "solve_rate": [0.5]}, "float()"),
        ({"question_id": "q2", "kc_id": "B", "difficulty": "weird"}, "'weird'"),
        ({"question_id": "q2", "kc_id": "A", "difficulty": "easy"}, "not a leaf"),
        (["q2", "B", "easy"], "must be an object"),
    ])
    def test_bad_jsonl_record_names_its_line(self, record, needle):
        with pytest.raises(TreeFormatError) as exc:
            parse_questions(self.FIRST + json.dumps(record) + "\n", self.TREE)
        assert str(exc.value).startswith("line 3: ")
        assert needle in str(exc.value)

    @pytest.mark.parametrize("text, needle", [
        ("question_id,kc_id,solve_rate\nq1,B,0.8\nq2,C,abc\n", "line 3: "),
        ("question_id,kc_id,difficulty\nq1,B,easy\nq2,C,weird\n", "line 3: "),
        ("question_id,difficulty\nq1,easy\n", "line 2: question record has no kc_id"),
        ("question_id,kc_id,difficulty\nq1,B,easy\nq2\n", "line 3: question record has no kc_id"),
    ])
    def test_bad_csv_record_names_its_line(self, text, needle):
        with pytest.raises(TreeFormatError) as exc:
            parse_questions(text, self.TREE)
        assert str(exc.value).startswith(needle)


QUESTION_FIELDS = ["question_id", "kc_id", "solve_rate", "difficulty"]
QUESTION_RECORDS = [
    {"question_id": "q1", "kc_id": "B", "solve_rate": 0.8},
    {"question_id": "q2", "kc_id": "C", "difficulty": "hard"},
    {"question_id": "q3", "kc_id": "B", "solve_rate": 0.6, "difficulty": "medium"},
    {"question_id": "q4", "kc_id": "C", "solve_rate": 0.1, "difficulty": "hard"},
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4)


def _question_mutations():
    """(record index, (kind, argument)): drop a key, give a field any JSON
    value, repeat another record's question_id, or replace the record."""
    return st.tuples(st.integers(0, len(QUESTION_RECORDS) - 1), st.one_of(
        st.tuples(st.just("drop"), st.sampled_from(QUESTION_FIELDS)),
        st.tuples(st.just("type"), st.tuples(st.sampled_from(QUESTION_FIELDS), JSON_VALUES)),
        st.tuples(st.just("repeat"), st.integers(0, len(QUESTION_RECORDS) - 1)),
        st.tuples(st.just("entry"), JSON_VALUES)))


class TestQuestionFuzz:
    TREE = TestParseQuestions.TREE

    @settings(max_examples=150, deadline=None)
    @given(mutation=_question_mutations(), as_csv=st.booleans())
    def test_mutated_record_raises_only_tree_format_error(self, mutation, as_csv):
        records = [dict(r) for r in QUESTION_RECORDS]
        index, (kind, arg) = mutation
        if kind == "drop":
            records[index].pop(arg, None)
        elif kind == "type":
            records[index][arg[0]] = arg[1]
        elif kind == "repeat":
            records[index]["question_id"] = records[arg]["question_id"]
        else:
            records[index] = arg
        if as_csv:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(QUESTION_FIELDS)
            for r in records:
                writer.writerow([r.get(f, "") for f in QUESTION_FIELDS]
                                if isinstance(r, dict) else [r])
            text = buf.getvalue()
        else:
            text = "".join(json.dumps(r) + "\n" for r in records)
        try:
            parse_questions(text, self.TREE)
        except TreeFormatError:
            pass
