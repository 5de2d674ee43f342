"""Every reader of the command line under a fuzzer.

Small valid stream, tree and --config files and TREEKT_* variables are
mutated one at a time, and cli.main runs on them in process. Whatever the
mutation, main returns 0, 1 or 2 and raises nothing. The last line of a
nonzero exit's message names what the run could not use: a stream's file
and line, a tree's file, a config file's line or key, a variable's name,
or the option whose value no run can honour. Such a run also leaves --out
as it was.
"""

import contextlib
import errno
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from treekt import cli, default_parameters, serialize_tree
from treekt.online import serialize_stream
from treekt.simulate import SimConfig, generate_classroom, random_question_bank, random_tree


def _inputs() -> dict[str, bytes]:
    """A 5-node tree, 6 students x 5 responses and a config file, on which
    fit, eval and validate-tree all exit 0."""
    rng = np.random.default_rng(0)
    tree = random_tree(rng, 5)
    stream, _ = generate_classroom(tree, default_parameters(tree),
                                   random_question_bank(rng, tree, 2),
                                   SimConfig(n_students=6, n_interactions=5, seed=0))
    return {"tree": serialize_tree(tree).encode(), "stream": serialize_stream(stream).encode(),
            "config": b"burn_in = 2\nmax_iters = 3\ntol = 1e-3\n"}


INPUTS = _inputs()
STREAM_LINES = INPUTS["stream"].decode().splitlines()
TREE_NODES = json.loads(INPUTS["tree"])["nodes"]
FIELDS = ["student_id", "question_id", "kc_id", "difficulty", "correct", "seq"]

#: JSON texts of every type, with those a reader must refuse with care:
#: NaN and infinities, lone surrogates, integers over int's 4 300-digit
#: limit, and nesting deeper than json's recursion limit.
JSON_TEXTS = ["null", "true", "false", "0", "1", "-1", "2", "1.5", "-0.0", "1e400", '""',
              '"x"', '"easy"', "[]", "[1]", "{}", '{"a": 1}', "NaN", "Infinity", "-Infinity",
              '"\\ud800"', '"s\\udc80"', "9" * 5000, "-" + "9" * 5000,
              "[" * 5000 + "]" * 5000, "[" * 100_000]
#: Option values as --config lines and TREEKT_* variables hold them.
OPTION_TEXTS = ["", "0", "-1", "-5", "1", "3", "2.5", "nan", "inf", "-inf", "1e400",
                "9" * 5000, "abc", "0x10", "٣", " 4 ", "1_0"]
#: Bytes to put into a file: not UTF-8 (a surrogate's UTF-8 form too),
#: line breaks of every kind, NUL, and JSON punctuation.
INSERTS = [b"\xff", b"\xed\xa0\x80", b"\xc3", b"\r", b"\r\n", b"\n\n", b"\x0c",
           " ".encode(), "\x85".encode(), b"\x00", b"{", b'"', b"=", b" "]


def _file_mutations(target: str):
    """Byte flips, truncations and insertions anywhere in a file, and blank
    lines, CRLF or CR line ends."""
    at = st.integers(0, 1 << 20)
    return st.one_of(
        st.tuples(st.just("flip"), st.just(target), at, st.integers(1, 255)),
        st.tuples(st.just("cut"), st.just(target), at, st.none()),
        st.tuples(st.just("insert"), st.just(target), at, st.sampled_from(INSERTS)),
        st.tuples(st.just("blank"), st.just(target), at, st.sampled_from(["", "  ", "\t"])),
        st.tuples(st.just("newline"), st.just(target), st.none(),
                  st.sampled_from(["\r\n", "\r"])))


def _object(items: dict, key: str, text: str, duplicate: bool) -> str:
    """A JSON object of items whose key holds the raw JSON text, or keeps
    its value and takes text as a second, duplicate key."""
    parts = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items.items() if
             duplicate or k != key]
    return "{" + ", ".join([*parts, f"{json.dumps(key)}: {text}"]) + "}"


def _mutate(files: dict[str, bytes], mutation) -> dict[str, bytes]:
    kind, target, *rest = mutation
    files = dict(files)
    if kind == "surrogate":  # an id from a stream line on, ending in a lone surrogate
        index, key, end = rest
        records = [json.loads(line) for line in STREAM_LINES]
        old = records[index][key]
        for record in records[index:]:
            if record[key] == old:
                record[key] = old + end
        files["stream"] = "".join(json.dumps(r) + "\n" for r in records).encode()
    elif kind == "field":  # a stream line's field
        index, key, text, duplicate = rest
        lines = list(STREAM_LINES)
        lines[index] = _object(json.loads(lines[index]), key, text, duplicate)
        files["stream"] = ("\n".join(lines) + "\n").encode()
    elif kind == "node":  # a tree entry's field, or the nodes value itself
        index, key, text, duplicate = rest
        nodes = [json.dumps(node) for node in TREE_NODES]
        if key == "nodes":
            body = text
        else:
            nodes[index] = _object(TREE_NODES[index], key, text, duplicate)
            body = "[\n" + ",\n".join(nodes) + "\n]"
        files["tree"] = ('{"nodes": ' + body + "}\n").encode()
    elif kind == "option":  # a config line, in place of one or added
        index, key, text, added = rest
        lines = files["config"].decode().splitlines()
        line = f"{key} {text}" if key == "no_equals" else f"{key} = {text}"
        if added:
            lines.insert(index, line)
        else:
            lines[index % len(lines)] = line
        files["config"] = ("\n".join(lines) + "\n").encode()
    else:
        data, (at, arg) = files[target], rest
        if kind == "flip":
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ arg]) + data[at + 1:]
        elif kind == "cut":
            data = data[:at % (len(data) + 1)]
        elif kind == "insert":
            at %= len(data) + 1
            data = data[:at] + arg + data[at:]
        elif kind == "blank":
            lines = data.split(b"\n")
            lines.insert(at % (len(lines) + 1), arg.encode())
            data = b"\n".join(lines)
        else:  # newline
            data = data.replace(b"\n", arg.encode())
        files[target] = data
    return files


def stream_mutations():
    field = st.tuples(st.just("field"), st.just("stream"), st.integers(0, len(STREAM_LINES) - 1),
                      st.sampled_from(FIELDS), st.sampled_from(JSON_TEXTS), st.booleans())
    surrogate = st.tuples(st.just("surrogate"), st.just("stream"),
                          st.integers(0, len(STREAM_LINES) - 1),
                          st.sampled_from(["student_id", "question_id", "kc_id"]),
                          st.sampled_from(["\ud800", "\udfff", "\udc80x"]))
    return st.one_of(_file_mutations("stream"), field, surrogate)


def tree_mutations():
    node = st.tuples(st.just("node"), st.just("tree"), st.integers(0, len(TREE_NODES) - 1),
                     st.sampled_from(["id", "label", "parent", "nodes"]),
                     st.sampled_from(JSON_TEXTS), st.booleans())
    return st.one_of(_file_mutations("tree"), node)


def config_mutations():
    option = st.tuples(st.just("option"), st.just("config"), st.integers(0, 3),
                       st.sampled_from([*cli._OPTIONS, "threads", "unknown", "no_equals"]),
                       st.sampled_from(OPTION_TEXTS), st.booleans())
    return st.one_of(_file_mutations("config"), option)


def _snapshot(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def run(command: str, files: dict[str, bytes], env: dict[str, str] | None = None,
        fail_write: int | None = None):
    """cli.main on the files, with only the given TREEKT_* variables set;
    fail_write makes the writer's file of that index fail as a full disk
    does. Returns the exit code, stdout and stderr, the file paths, and
    whether --out kept every byte."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / f"in_{name}") for name in files}
        for name, data in files.items():
            Path(paths[name]).write_bytes(data)
        out = Path(tmp) / "out"
        out.mkdir()
        for name in ("params.json", "metrics.json"):
            (out / name).write_bytes(b"old\n")
        before = _snapshot(out)
        argv = [command, "--tree", paths["tree"], "--config", paths["config"]]
        if command != "validate-tree":
            argv += ["--stream", paths["stream"], "--out", str(out)]
        writes = []

        def write(path, text):
            writes.append(path)
            if len(writes) - 1 == fail_write:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            real_write(path, text)

        real_write = cli._write
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), mock.patch.object(cli, "_write", write), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            for name in [n for n in os.environ if n.startswith(cli.ENV_PREFIX)]:
                del os.environ[name]
            os.environ.update(env or {})
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), paths, _snapshot(out) == before


def blame(message: str, paths: dict[str, str], files: dict[str, bytes]) -> str:
    """What the start of a failure's message names: the last line on stderr
    (a fit's warnings come before it), or on stdout for a violation."""
    patterns = {
        "stream": rf"error: {re.escape(paths['stream'])}:(\d+): ",
        "tree": rf"(error|violation): {re.escape(paths['tree'])}: ",
        "config": rf"error: {re.escape(paths['config'])}: (line \d+|[a-z_]+): ",
        "env": r"error: TREEKT_[A-Z_]+: ",
        "option": r"error: --[a-z-]+ ",
        "empty": r"error: stream is empty$",
        "disk": rf"error: \[Errno {errno.ENOSPC}\] ",
    }
    for name, pattern in patterns.items():
        if found := re.match(pattern, message):
            if name == "stream":  # a line of the file
                lines = files["stream"].decode("utf-8", "replace").splitlines()
                assert 1 <= int(found[1]) <= len(lines) + 1, message
            return name
    return message


def check(result, files, allowed: set[str]) -> None:
    code, stdout, stderr, paths, kept = result
    assert code in (0, 1, 2)
    if code:
        assert kept, "a failed run changed --out"
        named = blame((stderr or stdout).splitlines()[-1], paths, files)
        assert named in allowed, (code, stdout + stderr)
        event(f"exit {code}, names the {named}")


FUZZ = settings(derandomize=True, deadline=None, max_examples=400)


class TestFuzzedInputs:
    def test_valid_inputs_run(self):
        for command in ("validate-tree", "fit", "eval"):
            assert run(command, INPUTS)[0] == 0

    @FUZZ
    @given(mutation=stream_mutations(), command=st.sampled_from(["fit", "eval"]))
    # An id UTF-8 cannot write, on lines that eval replays and writes out.
    @example(mutation=("surrogate", "stream", 0, "student_id", "\ud800"), command="eval")
    def test_stream(self, mutation, command):
        files = _mutate(INPUTS, mutation)
        check(run(command, files), files, {"stream", "empty", "option"})

    @FUZZ
    @given(mutation=tree_mutations(),
           command=st.sampled_from(["validate-tree", "fit", "eval"]))
    def test_tree(self, mutation, command):
        # A tree that still parses may drop a leaf the stream names.
        files = _mutate(INPUTS, mutation)
        check(run(command, files), files, {"tree", "stream"})

    @FUZZ
    @given(mutation=config_mutations(),
           command=st.sampled_from(["validate-tree", "fit", "eval"]))
    def test_config(self, mutation, command):
        files = _mutate(INPUTS, mutation)
        check(run(command, files), files, {"config", "option"})

    @FUZZ
    @given(name=st.sampled_from([name.upper() for name in cli._OPTIONS]),
           value=st.sampled_from([*OPTION_TEXTS, "\udcff"]),
           command=st.sampled_from(["validate-tree", "fit", "eval"]))
    def test_variable(self, name, value, command):
        # The config file sets burn_in, max_iters and tol, which shadow
        # their variables; without it every variable is read.
        files = {**INPUTS, "config": b""}
        check(run(command, files, env={cli.ENV_PREFIX + name: value}), files,
              {"env", "option"})

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(fail_write=st.integers(0, 3), command=st.sampled_from(["fit", "eval"]))
    def test_full_disk(self, fail_write, command):
        check(run(command, INPUTS, fail_write=fail_write), INPUTS, {"disk"})
