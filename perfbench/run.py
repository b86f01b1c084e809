#!/usr/bin/env python3
"""Layered verification benchmark for acgeom.

A task is one verification command on one chart germ; a workload is a fixed
task list built from ``--seed``.  One client runs the list closed-loop, pass
after pass, until ``--seconds`` have been measured.  Every task's verdict is
taken from its report rows (residual finite and within tolerance), and every
pass must emit the same JSON report bytes.  End-to-end times are scaled by
fixed reference work timed beside each task (see ``reference.py``), because
the host's speed drifts by more than the bounds within minutes.

    python3 perfbench/run.py --workload normalize-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # fresh process each
    python3 perfbench/run.py --smoke                                # names and units

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate, and it holds the per-layer metrics of the traced passes.  Detailed
results (environment, per-task rows, digest) and the span arrays are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One thread per process: the load comes from a single client, and BLAS
# threads would compete with it for the host's few cores.  Set before numpy
# is first imported, here or in the import probe's fresh interpreter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Also the keys of workloads.WORKLOADS; listed here so that arguments are
# checked before acgeom is imported.
WORKLOAD_NAMES = ("fixtures-sweep", "normalize-dense", "frame-calculus",
                  "exact-oracle")
SETUP_REPS = 7
# No pass starts after this much measuring, so that a run ends well inside its
# time limit even when --seconds is large.
MAX_MEASURE_S = 120.0

END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_s.p50", "s"),
    ("task_s.p90", "s"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, per pass over the task list.  ``.calls`` and ``.self_s``
# come from spans (an exact-mode span counts towards its plain name); the
# other names are counters kept by the tracer or derived below.
PER_LAYER = (
    "jets.mul.calls", "jets.mul.self_s", "jets.mul.pairs", "jets.mul.terms_out",
    "jets.construct.calls", "jets.compose.calls", "jets.compose.self_s",
    "jets.series_inverse.self_s", "jets.matmul.calls", "jets.matmul.self_s",
    "jets.inverse.self_s", "jets.exact.self_s",
    "structure.transform_structure.calls",
    "structure.transform_structure.self_s", "structure.frame_and_dual.self_s",
    "structure.bracket_coefficients.self_s", "structure.dual_pair.calls",
    "structure.dual_pair.self_s",
    "normal.stage_change.calls", "normal.stage_change.changed",
    "normal.stage_change.self_s", "normal.normalize_to_order.self_s",
    "normal.a_from_b_closed_form.calls", "normal.a_from_b_closed_form.self_s",
    "normal.solve_a_degree_by_degree.self_s",
    "forms.FrameCalculus.self_s", "forms.apply_operator.calls",
    "forms.apply_operator.self_s", "forms.PQForm.evaluate.calls",
    "forms.PQForm.evaluate.self_s",
    "chern.chern_connection.self_s", "chern.curvature.self_s",
    "chern.ChernLeviCivita.gamma.calls", "chern.ChernLeviCivita.gamma.self_s",
    "chern.decomposition_residual.self_s",
    "chern.torsion_formula_residual.self_s",
    "geodesic.acceleration.calls", "geodesic.acceleration.self_s",
    "geodesic.integrate.calls", "geodesic.integrate.self_s",
    "geodesic.rk4_steps",
    "cli.parse.self_s", "cli.run_command.self_s", "cli.emit.self_s",
    "bench.self_s", "trace.task_s", "trace.overhead_s",
)


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


# -- one task ---------------------------------------------------------------------

def emit(report, payload):
    """The JSON document ``acgeom <command> --json`` prints for one report."""
    doc = report.to_document()
    if payload:
        doc["data"] = payload
    return json.dumps(doc, sort_keys=True, indent=2)


def _all_finite(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    return True


def verdict(task, report, payload):
    """(verdict, problem): PASS needs every gated row finite and within its
    tolerance and every number in the payload finite.  ``problem`` names an
    unexpected outcome, which makes the task count as failed."""
    gated = [r for r in report.rows
             if r.residual is not None and r.tolerance is not None]
    finite = all(math.isfinite(r.residual) for r in report.rows
                 if r.residual is not None) and _all_finite(payload)
    passed = finite and all(r.residual <= r.tolerance for r in gated)
    problem = None
    if not finite:
        problem = "non-finite residual or payload value"
    elif not passed and not task.may_fail:
        failing = [r.check for r in gated if not r.residual <= r.tolerance]
        problem = f"unexpected FAIL: {failing}"
    elif passed != report.passed:
        problem = f"report says pass={report.passed}, rows say {passed}"
    elif task.check is not None:
        problem = task.check(report)
    return ("PASS" if passed else "FAIL"), problem


def run_pass(tasks, tracer=None):
    """Run every task once.  Returns per-task records in task-list order, the
    sha256 over the emitted documents in task-id order and the reference
    samples.  The reference work is timed before the first task and after
    each one; a task's ``ref_s`` is the mean of the samples on either side of
    it."""
    import reference
    from tracing import EMIT_SPAN, TASK_SPAN

    records, texts = [], {}
    ref_before = reference.sample()
    ref_samples = [ref_before]
    for idx, task in enumerate(tasks):
        if tracer is not None:
            tracer.task_id = idx
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                report, payload = task.run()
                text = emit(report, payload)
            else:
                report, payload = tracer.call(TASK_SPAN, task.run)
                text = tracer.call(EMIT_SPAN, emit, report, payload)
        except Exception as exc:          # a raising task is a failed task
            error = f"{type(exc).__name__}: {exc}"
            text = ""
        elapsed = time.perf_counter() - start
        ref_after = reference.sample()
        ref_samples.append(ref_after)
        if error is None:
            status, problem = verdict(task, report, payload)
        else:
            status, problem = "ERROR", error
        texts[task.id] = text
        records.append({"id": task.id, "s": elapsed,
                        "ref_s": (ref_before + ref_after) / 2,
                        "status": status, "problem": problem})
        ref_before = ref_after
    blob = "\n".join(texts[key] for key in sorted(texts)) + "\n"
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return records, digest, ref_samples


# -- metrics -----------------------------------------------------------------------

def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_task_times(passes):
    """Each task's median scaled time across passes: its wall time at the
    nominal speed of the reference work (see reference.py)."""
    import reference
    return [statistics.median(reference.scaled(rec["s"], rec["ref_s"])
                              for rec in recs)
            for recs in zip(*(p["records"] for p in passes))]


def end_to_end_metrics(passes, setup_s):
    """Throughput of one pass at each task's median scaled time; task-time
    quantiles over the task list of the same times."""
    per_task = scaled_task_times(passes)
    records = [rec for p in passes for rec in p["records"]]
    passed = sum(rec["status"] == "PASS" for rec in records)
    values = {
        "tasks_per_s": len(per_task) / sum(per_task),
        "task_s.p50": statistics.median(per_task),
        "task_s.p90": quantile(per_task, 90),
        "pass_ratio": passed / len(records),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(tracer, passes):
    """Per-layer values per traced pass, and the tracing overhead: median
    traced pass time minus median untraced pass time."""
    from tracing import COUNTERS, TASK_SPAN

    traced = [sum(r["s"] for r in p["records"]) for p in passes if p["traced"]]
    plain = [sum(r["s"] for r in p["records"]) for p in passes
             if not p["traced"]]
    k = len(traced)
    totals = tracer.totals()

    def span_total(base, field):
        return sum(v[field] for name, v in totals.items()
                   if name in (base, base + "[exact]"))

    values = {}
    for name in PER_LAYER:
        if name in COUNTERS:
            values[name] = tracer.counters.get(name, 0) / k
        elif name == "jets.exact.self_s":
            values[name] = sum(v[1] for n, v in totals.items()
                               if n.endswith("[exact]")) / k
        elif name == "bench.self_s":
            values[name] = span_total(TASK_SPAN, 1) / k
        elif name == "trace.task_s":
            values[name] = statistics.median(traced)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(traced) - statistics.median(plain)
        elif name.endswith(".calls"):
            values[name] = span_total(name[:-len(".calls")], 0) / k
        else:
            values[name] = span_total(name[:-len(".self_s")], 1) / k
    return {name: {"value": values[name], "unit": layer_unit(name)}
            for name in PER_LAYER}


def environment():
    import numpy as np
    uname = os.uname()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": uname.machine,
            "system": f"{uname.sysname} {uname.release}"}


# -- one workload in this process --------------------------------------------------

# Runs in a fresh interpreter: it times the import of acgeom (with numpy),
# then the reference work in the same process, which scales the import.
IMPORT_PROBE = """
import statistics, time
start = time.perf_counter()
import acgeom
seconds = time.perf_counter() - start
import reference
print(seconds, statistics.median(reference.sample() for _ in range(3)))
"""


def import_seconds():
    """Scaled import time of acgeom in a fresh interpreter."""
    import reference
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60, cwd=ROOT)
    seconds, ref_s = map(float, proc.stdout.split())
    return reference.scaled(seconds, ref_s)


def timed_setup(step):
    """Scaled times of SETUP_REPS repetitions of ``step``, each between two
    samples of the reference work, and the last repetition's result."""
    import reference
    times = []
    ref_before = reference.sample()
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        result = step()
        elapsed = time.perf_counter() - t
        ref_after = reference.sample()
        times.append(reference.scaled(elapsed, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return times, result


def run_workload(workload, seed, seconds, trace, tiny):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    # Set-up is import plus building the germs and task list; each part is
    # the median of SETUP_REPS repetitions, in scaled time.
    import_s = [import_seconds() for _ in range(SETUP_REPS)]
    build_s, tasks = timed_setup(
        lambda: workloads.build(workload, seed, tiny, ROOT))
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    problems = workloads.self_check(workload, seed, tiny, ROOT, tasks)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            records, digest, ref_samples = run_pass(
                tasks, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "records": records,
                       "digest": digest, "ref_samples": ref_samples})
        elapsed = time.perf_counter() - start
        # Stop before a pass that would end past --seconds.
        next_end = elapsed * (len(passes) + 1) / len(passes)
        if tracer is not None and len(passes) < 2:
            continue
        if next_end > seconds or elapsed >= MAX_MEASURE_S:
            break

    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append("report bytes differ between passes")

    failed = sum(rec["problem"] is not None
                 for p in passes for rec in p["records"])
    attempted = sum(len(p["records"]) for p in passes)
    env = environment()

    print(f"# {workload} seed={seed} passes={len(passes)} "
          f"tasks/pass={len(tasks)} trace={int(trace)}")
    print(f"{'task':<36} {'n':>2} {'N':>2} {'B terms':>8} {'h terms':>8} "
          f"{'wall s':>8} {'scaled s':>8} verdict")
    untraced = [p for p in passes if not p["traced"]]
    scaled_s = scaled_task_times(untraced)
    for idx, task in enumerate(tasks):
        recs = [p["records"][idx] for p in untraced]
        status = "/".join(sorted({r["status"] for r in recs}))
        wall = statistics.median(r["s"] for r in recs)
        note = "  (known FAIL, ROADMAP item 4)" if task.may_fail else ""
        print(f"{task.id:<36} {task.n:>2} {task.order:>2} {task.b_terms:>8} "
              f"{task.metric_terms:>8} {wall:>8.4f} {scaled_s[idx]:>8.4f} "
              f"{status}{note}")
        for r in recs:
            if r["problem"]:
                print(f"  problem: {r['problem']}")
                break
    for problem in problems:
        print(f"problem: {problem}")
    print(f"report digest sha256 {passes[0]['digest']}")
    print("env " + json.dumps(env, sort_keys=True))

    if tracer is None:
        metrics = end_to_end_metrics(passes, setup_s)
    else:
        metrics = per_layer_metrics(tracer, passes)
        traced = [p for p in passes if p["traced"]]
        task_s = sum(r["s"] for p in traced for r in p["records"]) / len(traced)
        self_sum = sum(s for _, s in tracer.totals().values()) / len(traced)
        bench_self = metrics["bench.self_s"]["value"]
        print(f"traced task time per pass {task_s:.4f} s = layer self times "
              f"{self_sum - bench_self:.4f} s + bench self {bench_self:.4f} s "
              f"(outside every layer span) + gaps {task_s - self_sum:.4f} s")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "env": env, "digest": passes[0]["digest"], "problems": problems,
              "passes": len(passes), "setup": {"import_s": import_s,
                                               "build_s": build_s},
              "tasks": [{"id": t.id, "n": t.n, "order": t.order,
                         "b_terms": t.b_terms, "metric_terms": t.metric_terms}
                        for t in tasks],
              "task_times": [[rec["s"] for rec in p["records"]]
                             for p in passes],
              "ref_samples": [p["ref_samples"] for p in passes],
              "metrics": metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


# -- several workloads, each in a fresh process ------------------------------------

def child(workload, seed, seconds, trace, tiny=False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def run_all(seed, seconds, trace):
    ok = True
    summary = []
    for workload in WORKLOAD_NAMES:
        proc, result = child(workload, seed, seconds, trace)
        sys.stdout.write(proc.stdout + proc.stderr + "\n")
        if result is None:
            ok = False
            continue
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            summary.append((workload, name, m["value"], m["unit"]))
    print(f"{'workload':<16} {'metric':<40} {'value':>14} unit")
    for workload, name, value, unit in summary:
        print(f"{workload:<16} {name:<40} {value:>14.6g} {unit}")
    return 0 if ok else 1


def smoke():
    """One tiny task per workload, traced and untraced: every metric that
    BENCHMARK.json names must print with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc, result = child(workload, 1, 1, trace, tiny=True)
            if result is None:
                print(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            good = printed == declared[trace] and result["correct"]
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
                  f"{len(printed)} metrics, correct={result['correct']}")
            if printed != declared[trace]:
                print(f"  declared but not printed or with another unit: "
                      f"{sorted(set(declared[trace].items()) - set(printed.items()))}")
                print(f"  printed but not declared: "
                      f"{sorted(set(printed.items()) - set(declared[trace].items()))}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one tiny task instead of the workload's list")
    parser.add_argument("--smoke", action="store_true",
                        help="check that every declared metric prints")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acgeom" / "__init__.py").is_file():
        print(f"error: no acgeom sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace,
                        args.tiny)


if __name__ == "__main__":
    sys.exit(main())
