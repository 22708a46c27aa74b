"""One benchmark pass, or the run's references and files, in a fresh
interpreter.

Module-level caches in `parikh` key on grammar equality, so a second
pass in the same process would hit them and time a different program.
`run.py` therefore starts this script once per pass, and once before
the passes to compute the references and write the grammar files, so
that its own process stays small and does not inflate the ru_maxrss a
pass inherits at start.  A pass sets up (imports `parikh` and generates
the instances from the seed), answers every instance once in a closed
loop (one caller; the next instance starts after the previous verdict),
then checks each verdict against the references and writes a JSON
summary.  The grammar files are written once per run rather than in
every pass: creating the same 1,500 small files took anywhere from 0.04
to 0.9 s on one ext4 volume, which says nothing about the program.
With --known-defects it answers and checks, untimed, the instances the
package is known to get wrong (`gen.KNOWN_DEFECTS`), which no pass runs.

    python3 bench/worker.py --workload W --seed N --make-refs REFS.json --workdir DIR
    python3 bench/worker.py --workload W --seed N --known-defects OUT.json --workdir DIR
    python3 bench/worker.py --workload W --seed N --trace 0|1 \
        --refs REFS.json --workdir DIR --out OUT.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-refs", default=None,
                   help="compute the references into this file and write the grammar files")
    p.add_argument("--known-defects", default=None,
                   help="answer and check the known-defect instances into this file")
    p.add_argument("--refs")
    p.add_argument("--workdir")
    p.add_argument("--out")
    p.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = p.parse_args()

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import parikh

    if Path(parikh.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        print(f"error: parikh was imported from {parikh.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import gen

    if args.make_refs:
        import refs

        instances = gen.GENERATORS[args.workload](args.seed)
        with open(args.make_refs, "w", encoding="utf-8") as fh:
            json.dump(refs.compute(args.workload, instances), fh)
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for inst in instances:
            for name, text in inst.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
        return 0

    import workloads

    if args.known_defects:
        import refs

        instances = gen.KNOWN_DEFECTS.get(args.workload, lambda _seed: [])(args.seed)
        expected = refs.compute(args.workload, instances)
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for inst in instances:
            for name, text in inst.files.items():
                (workdir / name).write_text(text, encoding="utf-8")
        os.chdir(workdir)
        results = []
        for inst in instances:
            status, reason = workloads.check(
                inst, workloads.execute(inst, workloads.Engines()), expected[inst.id])
            results.append({"id": inst.id, "status": status, "reason": reason})
        with open(args.known_defects, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
        return 0

    instances = gen.GENERATORS[args.workload](args.seed)
    setup_s = time.perf_counter() - started
    workdir = Path(args.workdir)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    os.chdir(workdir)
    engines = workloads.Engines()
    outcomes, times = [], []
    if tracer is not None:
        tracer.recording = True
    loop_start = time.perf_counter()
    for inst in instances:
        t = time.perf_counter()
        outcomes.append(workloads.execute(inst, engines))
        times.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - loop_start
    if tracer is not None:
        tracer.recording = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.refs, encoding="utf-8") as fh:
        refs = json.load(fh)
    statuses = {"ok": 0, "undecided": 0, "failed": 0}
    failures = []
    for inst, outcome in zip(instances, outcomes):
        status, reason = workloads.check(inst, outcome, refs.get(inst.id))
        statuses[status] += 1
        if status == "failed":
            failures.append({"id": inst.id, "reason": reason})

    summary = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "statuses": statuses,
        "failures": failures,
    }
    if tracer is not None:
        summary["layers"] = tracing.read_metrics(tracer)
        summary["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
