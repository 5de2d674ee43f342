"""Smoke test of the benchmark harness itself, at tiny sizes.

    python3 perfbench/smoke.py

Records tiny references, runs every workload untraced and traced, and
checks that every metric is printed with its unit, that the checks pass on
the program as it is, and that they fail once a reference value is
perturbed. Exits 0 when all of that holds. Takes a few seconds; it writes
only under .bench_build/smoke.
"""

from __future__ import annotations

import json
import shutil
import sys

import make_reference
import run

TINY = {
    "fit-wide": run.Workload("fit", "random:6", students=8, interactions=10,
                             cli_args=("--tol", "0")),
    "eval-online": run.Workload("eval", "random:6", students=8, interactions=8,
                                burn_in=3),
    "serve-deep": run.Workload("serve", "caterpillar:5", students=6, interactions=8,
                               burn_in=3),
}
FIGURES = {
    "fit-wide": {"setup_s", "fit_s", "fit_loglik", "peak_rss_mb"},
    "eval-online": {"setup_s", "eval_s", "eval_auc", "peak_rss_mb"},
    "serve-deep": {"setup_s", "predict_p50_ms", "predict_p99_ms", "serve_rps",
                   "peak_rss_mb"},
}
# How far to move one reference value: well past each check's tolerance.
PERTURB = {"final_loglik": 1e-4, "auc": 1e-6, "p_correct": 1e-6}


def run_once(name, trace, refs, spec, work):
    outcome, metrics, fig = run.run_workload(name, seed=0, seconds=0.01, trace=trace,
                                             workloads=TINY, work=work,
                                             reference_dir=refs)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    line = json.loads(json.dumps(run.result_line(outcome, metrics, declared)))
    return outcome, line, fig


def main() -> int:
    spec = run.benchmark_spec()
    work = run.ROOT / ".bench_build" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    refs, bad_refs = work / "refs", work / "bad_refs"
    errors = []
    for name, workload in TINY.items():
        doc = make_reference.record(name, workload, work, range(1))
        make_reference.write_reference(doc, refs / f"{name}.json.gz")
        values = doc["input_seeds"]["0"]
        key = next(k for k in PERTURB if k in values)
        if key == "p_correct":
            values[key][0] += PERTURB[key]
        else:
            values[key] += PERTURB[key]
        make_reference.write_reference(doc, bad_refs / f"{name}.json.gz")

        for trace in (False, True):
            outcome, line, fig = run_once(name, trace, refs, spec, work)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for m in declared:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{name} trace={trace}: {m['name']} missing or unit wrong")
            if not line["correct"] or line["failed"]:
                errors.append(f"{name} trace={trace}: checks failed: {outcome.problems}")
            if not trace:
                missing = FIGURES[name] - {k for k, v in fig.items() if v.get("unit")}
                if missing:
                    errors.append(f"{name}: figures missing {sorted(missing)}")

        _, line, _ = run_once(name, False, bad_refs, spec, work)
        if line["correct"] or not line["failed"]:
            errors.append(f"{name}: a perturbed reference {key!r} went unnoticed")
        print(f"{name}: done", flush=True)

    for error in errors:
        print(f"FAIL {error}")
    print("smoke test passed" if not errors else f"smoke test failed ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
