"""Benchmark for the parikh toolkit: three closed-loop, single-caller
workloads, each instance one question with one checked verdict.

    python3 bench/run.py --workload regular-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads (see BENCHMARK.json for why each exists):
  regular-sweep      window sweeps with the regular-dp engine
  cli-cold           one-shot commands through parikh.cli.main, in-process
  general-enumerate  capped general membership, run decomposition and
                     ordering, simple cycles and two-letter bundles

A run computes the reference answers and writes the grammar files once,
then repeats passes until --seconds have passed (at least MIN_PASSES).
Each pass is a fresh interpreter running bench/worker.py over the same
instances, so the package's module-level caches start empty every time.
Each instance's verdict time is its median over the untraced passes;
wall_s is their sum (a pass's time from first instance to last verdict,
less the loop's own few microseconds per instance), verdict_p50_s and
verdict_tail_s their median and tail, and setup_s and peak_rss_mb
medians over passes.  With --trace 1 traced and untraced passes
alternate, the per-layer metrics come from the traced ones and
trace.overhead_s is the traced minus the untraced wall_s.  The last
line of stdout is one JSON object; the lines before it say the same for
a reader, with host details and every failed instance.  Full results go to .bench_work/BENCH_<workload>_s<seed>_t<trace>.json.

Instances the package is known to answer wrongly (gen.KNOWN_DEFECTS,
today the ROADMAP item-1 chain on cli-cold) are not in any pass: a
workload must be one on which no operation fails.  Each run answers and
checks them once, untimed, and reports each as KNOWN DEFECT (or as
fixed) on its own line; they do not enter `correct`, `attempted` or
`failed`.

No CPU is pinned, no cache dropped and no machine setting changed, so
the numbers carry whatever else the host runs; the load average is
recorded with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("regular-sweep", "cli-cold", "general-enumerate")
MIN_PASSES = 2  # untraced passes per run; a traced run needs MIN_TRACED of each kind
MIN_TRACED = 2
PASS_BUDGET_S = 150.0  # no new pass starts once the next one could end past this
CHILD_TIMEOUT_S = 170.0



def host_info(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
        "pythonhashseed": "0",
        "limits": "no CPU pinning, no cache dropping, no machine setting changed",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _child(args, timeout=CHILD_TIMEOUT_S):
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])


def run_pass(workload, seed, traced, refs_path, workdir, index):
    out = WORKDIR / f"{workload}-s{seed}-p{index}.json"
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
            "--refs", str(refs_path), "--workdir", str(workdir), "--out", str(out)]
    if traced:
        args += ["--spans", str(WORKDIR / f"spans_{workload}_s{seed}.tsv")]
    _child(args)
    summary = json.loads(out.read_text())
    out.unlink()
    return summary


def tail(times):
    """Highest percentile with at least 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        raise ValueError("a pass needs at least 11 instances for a tail")
    return xs[n - 11], 100.0 * (n - 10) / n


def run_workload(workload, seed, seconds, trace):
    refs_path = WORKDIR / f"refs-{workload}-s{seed}.json"
    workdir = WORKDIR / f"{workload}-s{seed}"
    defects_path = WORKDIR / f"defects-{workload}-s{seed}.json"
    try:
        t = time.perf_counter()
        _child(["--workload", workload, "--seed", str(seed), "--make-refs", str(refs_path),
                "--workdir", str(workdir)])
        refs_s = time.perf_counter() - t
        passes = measure(workload, seed, seconds, trace, refs_path, workdir)
        _child(["--workload", workload, "--seed", str(seed), "--known-defects",
                str(defects_path), "--workdir", str(workdir)])
        defects = json.loads(defects_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        refs_path.unlink(missing_ok=True)
        defects_path.unlink(missing_ok=True)
    return summarize(workload, seed, trace, passes, refs_s, defects)


def measure(workload, seed, seconds, trace, refs_path, workdir):
    """Passes until `seconds` have passed and the minimum counts are met."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        enough = (len(untraced) >= MIN_TRACED and len(traced) >= MIN_TRACED) if trace \
            else len(untraced) >= MIN_PASSES
        elapsed = time.monotonic() - start
        if enough and elapsed >= seconds:
            break
        if passes and elapsed + longest > PASS_BUDGET_S and \
                (not trace or (untraced and traced)):
            break
        want_traced = bool(trace) and len(traced) < len(untraced)
        t = time.monotonic()
        passes.append(run_pass(workload, seed, want_traced, refs_path, workdir, len(passes)))
        longest = max(longest, time.monotonic() - t)
    return passes


def instance_medians(passes):
    """Each instance's verdict time, as its median over the passes.

    The host's speed drifts by up to a fifth within one run.  A
    statistic of one pass reads the speed of that pass; one of the
    instance medians mixes samples from every pass of the run."""
    return [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]


def summarize(workload, seed, trace, passes, refs_s, defects):
    untraced = [p for p in passes if not p["traced"]]
    first = untraced[0]
    n = len(first["times"])
    per_pass_tail = [tail(p["times"]) for p in untraced]
    times = instance_medians(untraced)
    tail_s, tail_pct = tail(times)
    st = first["statuses"]
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(times),
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "decided_frac": st["ok"] / n,
        "sound_frac": 1.0 - st["failed"] / n,
    }
    result = {
        "workload": workload,
        "host": host_info(seed),
        "passes": len(passes),
        "instances_per_pass": n,
        "tail_percentile": tail_pct,
        "refs_s": refs_s,
        "statuses": st,
        "failed_frac": st["failed"] / n,
        "failures": first["failures"],
        "known_defects": defects,
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": sum(p["statuses"]["failed"] for p in passes),
        "end_to_end": e2e,
        "consistent": all(p["statuses"] == st for p in passes),
        "untraced_passes": [
            {"wall_s": p["wall_s"], "verdict_p50_s": statistics.median(p["times"]),
             "verdict_tail_s": t, "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"]}
            for p, (t, _pct) in zip(untraced, per_pass_tail)],
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            layers[name] = values[0] if PER_LAYER[name][0] == "count" else statistics.median(values)
        layers["trace.overhead_s"] = sum(instance_medians(traced)) - e2e["wall_s"]
        result["per_layer"] = layers
        result["counts_repeat"] = all(
            p["layers"][k] == traced[0]["layers"][k]
            for p in traced for k in layers if PER_LAYER[k][0] == "count")
        result["spans_per_traced_pass"] = traced[0]["spans"]
    out = WORKDIR / f"BENCH_{workload}_s{seed}_t{trace}.json"
    out.write_text(json.dumps(result, indent=1))
    return result


def report(result, trace) -> None:
    w = result["workload"]
    h = result["host"]
    print(f"== {w}: seed {h['seed']}, {result['passes']} passes of "
          f"{result['instances_per_pass']} instances (closed loop, one caller)")
    print(f"   host: python {h['python']}, nproc {h['nproc']}, cpu {h['cpu']}, loadavg "
          + " ".join(f"{x:.2f}" for x in h["loadavg"])
          + f", commit {h['commit']}, PYTHONHASHSEED {h['pythonhashseed']}")
    print(f"   limits: {h['limits']}")
    print(f"   references computed in {result['refs_s']:.3f} s (not timed)")
    for name, value in result["end_to_end"].items():
        print(f"   {name} = {value:.6g} {END_TO_END[name][0]}")
    print(f"   verdict_tail_s is p{result['tail_percentile']:.2f} of "
          f"{result['instances_per_pass']} instances, each timed as its median over passes")
    st = result["statuses"]
    print(f"   failed_frac = {result['failed_frac']:.6g} ratio "
          f"({st['failed']} failed, {st['undecided']} undecided, {st['ok']} correct per pass)")
    for f in result["failures"]:
        print(f"   FAILED {f['id']}: {f['reason']}")
    for d in result["known_defects"]:
        state = "KNOWN DEFECT" if d["status"] == "failed" else f"known defect now {d['status']}"
        print(f"   {state} {d['id']} (checked once, untimed, not counted): "
              f"{d['reason'] or 'verdict matches the reference'}")
    if not result["consistent"]:
        print("   WARNING: verdict statuses differ between passes")
    if trace:
        for name, value in result["per_layer"].items():
            unit, _better, moves = PER_LAYER[name]
            print(f"   {name} = {value:.6g} {unit}  (should move {moves})")
        if not result["counts_repeat"]:
            print("   WARNING: count metrics differ between traced passes")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="parikh benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    WORKDIR.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        report(result, args.trace)
        results.append(result)

    def metrics_of(result):
        if args.trace:
            return {k: {"value": v, "unit": PER_LAYER[k][0]}
                    for k, v in result["per_layer"].items()}
        return {k: {"value": v, "unit": END_TO_END[k][0]}
                for k, v in result["end_to_end"].items()}

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in metrics_of(r).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
