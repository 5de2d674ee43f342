"""Resident memory of a `treekt fit` process after each of its stages.

    python tools/stage_rss.py --src SRC --tree tree.json --stream stream.jsonl [--tol 0]

Imports treekt from SRC (a checkout's src/ directory), then runs the steps
of `treekt fit` in its order, one stage at a time, and prints one JSON
object: for each stage, the process's peak resident memory so far (VmHWM)
and its resident memory (VmRSS) in MB, from /proc/self/status, so Linux
only. Run one fresh process per measurement.

Stages: import (numpy and treekt.cli, with the heap-top pin that
cli.main sets), sink (load_tree, then load_stream handing each record to
the sink of cmd_fit, which keeps a pointer per response to one record per
cell), session (the ClassroomSession that online.burn_in_fit builds on
those histories, uncopied: it checks every response's cell and keeps no
count of its own), pool (session.pool, counted by inference.count_cells)
and fit (em.fit over the pool).
"""

import argparse
import json
import sys


def memory() -> dict[str, float]:
    """VmHWM and VmRSS of this process in MB."""
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) / 1024 for key in ("VmHWM", "VmRSS")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src/ directory to import treekt from")
    parser.add_argument("--tree", required=True)
    parser.add_argument("--stream", required=True)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=100)
    parser.add_argument("--tol", type=float, default=0.0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from treekt import cli
    from treekt.em import fit
    from treekt.model import default_parameters
    from treekt.online import ClassroomSession
    from treekt.tree import load_tree

    cli._pin_heap_top()
    stages = {"import": memory()}
    tree = load_tree(args.tree)
    by_student = cli._fit_histories(args.stream, tree)
    stages["sink"] = memory()
    session = ClassroomSession(tree=tree, burn_in=dict(by_student),
                               theta_init=default_parameters(tree))
    stages["session"] = memory()
    pool = session.pool
    stages["pool"] = memory()
    report = fit(tree, pool, session.theta_init, max_iters=args.max_iters, tol=args.tol)
    stages["fit"] = memory()
    print(json.dumps({"iterations": report.iterations, "stages": stages}))


if __name__ == "__main__":
    main()
