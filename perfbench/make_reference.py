"""Record the outputs the benchmark checks every later run against.

    python3 perfbench/make_reference.py [workload ...]

For each workload and each of the run.INPUT_SEEDS simulator seeds, this runs
one request of the program in ./src and stores what the checks compare:
the final fit log-likelihood (fit-wide), the AUC and every p_correct
(eval-online), and every prediction of a serve pass (serve-deep). Run it
only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import run


def record(name: str, workload: run.Workload, work: Path, input_seeds: range) -> dict:
    scratch = work / "reference" / name
    scratch.mkdir(parents=True, exist_ok=True)
    seeds = {}
    for input_seed in input_seeds:
        inputs = run.prepare_inputs(work, name, workload, input_seed)
        out = scratch / "out"
        if workload.kind == "serve":
            cmd = run.serve_command(workload, inputs, out, 0.0, None)
        else:
            cmd = run.cli_command(workload, inputs, out, None)
        _, _, code = run.spawn(cmd, scratch / "request.log")
        if code != 0:
            raise SystemExit(f"{name} seed {input_seed}: exit code {code}")
        if workload.kind == "fit":
            values = {"final_loglik": run.read_fit(out)["trace"][-1]}
        elif workload.kind == "eval":
            got = run.read_eval(out)
            values = {"auc": got["auc"], "p_correct": got["p_correct"]}
        else:
            values = {"p_correct": run.read_serve(out)[2]}
        if "p_correct" in values:
            # 13 decimals keep the stored values far inside the 1e-9 tolerance.
            values["p_correct"] = [round(p, 13) for p in values["p_correct"]]
        seeds[str(input_seed)] = values
        print(f"{name} seed {input_seed}: recorded", flush=True)
    return {"source_sha256": run.source_digest(), "input_seeds": seeds}


def write_reference(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode("utf-8"))


def main(names: list[str]) -> int:
    for name in names or list(run.WORKLOADS):
        doc = record(name, run.WORKLOADS[name], run.WORK_DIR, range(run.INPUT_SEEDS))
        write_reference(doc, run.REFERENCE_DIR / f"{name}.json.gz")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
