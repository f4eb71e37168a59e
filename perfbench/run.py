"""klflow benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload prox-exhaustive --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload flow-budget --record   # rewrite the reference

Run from the repository root; klflow is imported from ``src/``. Each pass
runs the workload's manifest through ``klflow.run_suite`` (plus, on
condition-scan, the direct checks on oracle-free functionals) and is gated
by ``gate.py``. Passes repeat until ``--seconds`` have elapsed; the first
pass warms caches and lazy imports and is left out of the timings.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (typical pass time),
``setup_s`` (median over fresh interpreters), ``peak_rss_mb`` and
``failed_frac``. ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics of ``tracing.py``, including the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# pin BLAS/OpenMP pools before numpy is imported, here and in the probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 3

#: per-layer metrics from the traced passes: name -> (source, key, unit)
LAYER_METRICS = {
    "corpus.value_calls": ("count", "corpus.value_calls", "count"),
    "corpus.gradient_calls": ("count", "corpus.gradient_calls", "count"),
    "corpus.slope_calls": ("count", "corpus.slope_calls", "count"),
    "corpus.brute_force.calls": ("count", "corpus.brute_force.calls", "count"),
    "corpus.brute_force.self_s": ("self", "corpus.brute_force", "s"),
    "prox.resolvent.calls": ("count", "prox.resolvent.calls", "count"),
    "prox.resolvent.self_s": ("self", "prox.resolvent", "s"),
    "prox.resolvent.evals": ("count", "prox.resolvent.evals", "count"),
    "prox.resolvent.uncertified": ("count", "prox.resolvent.uncertified", "count"),
    "prox.de_giorgi.calls": ("count", "prox.de_giorgi.calls", "count"),
    "prox.de_giorgi.self_s": ("self", "prox.de_giorgi", "s"),
    "prox.certify.self_s": ("self", "prox.certify", "s"),
    "prox.certify.pairs": ("count", "prox.certify.pairs", "count"),
    "prox.sequence.steps": ("count", "prox.sequence.steps", "count"),
    "flow.integrate.self_s": ("self", "flow.integrate", "s"),
    "flow.steps": ("count", "flow.steps", "count"),
    "flow.samples": ("count", "flow.samples", "count"),
    "flow.glue_points": ("count", "flow.glue_points", "count"),
    "flow.ede.self_s": ("self", "flow.ede", "s"),
    "flow.certify.self_s": ("self", "flow.certify", "s"),
    "conditions.check.calls": ("count", "conditions.check.calls", "count"),
    "conditions.check.self_s": ("self", "conditions.check", "s"),
    "conditions.admissible_frac": ("ratio", ("conditions.admissible", "conditions.sampled"), "frac"),
    "slope.descending.calls": ("count", "slope.descending.calls", "count"),
    "slope.sampled.calls": ("count", "slope.sampled.calls", "count"),
    "slope.sampled.self_s": ("self", "slope.sampled", "s"),
    "slope.sampled.samples": ("count", "slope.sampled.samples", "count"),
    "sampling.cache_hit_frac": ("pass", "cache_hit_frac", "frac"),
    "experiment.write.self_s": ("self", "experiment.write", "s"),
    "experiment.bytes_written": ("pass", "bytes_written", "bytes"),
    "experiment.nonstrict_reports": ("pass", "nonstrict_reports", "count"),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_klflow():
    """Import klflow from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "klflow" / "__init__.py").is_file():
        fail(f"no klflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import klflow

    if Path(klflow.__file__).resolve().parent != (SRC / "klflow").resolve():
        fail(f"klflow was imported from {klflow.__file__}, not from {SRC}")
    return klflow


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# one pass


def direct_check(run):
    """A condition check on a corpus value with no slope or gradient oracle."""
    import numpy as np
    import klflow
    import klflow.conditions as conditions

    cfg = run.config
    f = klflow.corpus.resolve_entry(cfg["functional"]).functional
    oracle_free = klflow.Functional(
        label=f"oracle-free {cfg['functional']}", value=f.value, backend=f.backend
    )
    x0 = np.asarray(cfg["x0"], dtype=float)
    kwargs = {"sample_count": run.sample_count, "seed": cfg["sampler_seed"]}
    if run.check == "alpha":
        return conditions.estimate_alpha(oracle_free, x0, cfg["r"], **kwargs)
    if run.check == "C":
        return conditions.check_condition_C(oracle_free, x0, cfg["r"], **kwargs)
    pf = klflow.make_power_theta(cfg["theta"]["c"], cfg["theta"]["gamma"])
    return conditions.check_condition_A(oracle_free, pf, x0, cfg["r"], **kwargs)


def artifact_stats(art_dir: Path) -> dict:
    """Bytes written, and report.json files a strict JSON parser rejects."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    size = 0
    nonstrict = 0
    for path in sorted(art_dir.rglob("*")):
        if not path.is_file():
            continue
        size += path.stat().st_size
        if path.name == "report.json":
            try:
                json.loads(path.read_text(), parse_constant=reject)
            except ValueError:
                nonstrict += 1
    return {"bytes_written": size, "nonstrict_reports": nonstrict}


def run_pass(runs, manifest_path: Path, art_dir: Path, reference=None, tracer=None):
    """Time one pass over the workload's runs, then gate its outputs.

    Returns the pass time, its parts (each run's time as ``wall_clock_s``
    reports it or as timed here for a direct check, and the ``rest``: manifest
    loading and report writing), the outcomes and the artifact stats. Margins
    are compared with ``reference`` when one is given.
    """
    import klflow.corpus
    import klflow.experiment

    shutil.rmtree(art_dir, ignore_errors=True)
    results = {}
    parts = {}
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            suite = klflow.experiment.run_suite(manifest_path, output_root=art_dir)
        except Exception as exc:  # a raising run fails every run of the pass
            suite = exc
        for run in runs:
            if run.check is not None:
                t_run = time.perf_counter()
                try:
                    results[run.id] = direct_check(run)
                except Exception as exc:
                    results[run.id] = exc
                parts[run.id] = time.perf_counter() - t_run
        wall = time.perf_counter() - t0

    resolve = klflow.corpus.resolve_entry
    reports = {} if isinstance(suite, Exception) else {r.run_id: r for r in suite.reports}
    parts.update((run_id, report.wall_clock_s) for run_id, report in reports.items())
    parts["rest"] = wall - sum(parts.values())
    outcomes = []
    for run in runs:
        result = suite if run.check is None else results[run.id]
        if isinstance(result, Exception):
            outcome = gate.raised(run, result)
        else:
            try:
                if run.check is None:
                    outcome = gate.check_suite_run(run, reports[run.id], art_dir / run.id, resolve)
                else:
                    outcome = gate.check_direct_run(run, result, resolve)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or bad artifacts
                outcome = gate.raised(run, exc)
        if reference is not None:
            gate.check_margins(run, outcome, reference)
        outcomes.append(outcome)
    return wall, parts, outcomes, artifact_stats(art_dir)


# ---------------------------------------------------------------------------
# one run of the benchmark


def setup_times(manifest_path: Path) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(manifest_path)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cache_counts():
    import klflow.sampling as sampling

    infos = [sampling.unit_directions.cache_info(), sampling.unit_ball_points.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def measure(runs, manifest_path: Path, art_dir: Path, seconds: float, trace: bool, reference):
    """Repeat passes for ``seconds``; pass 0 is the untimed warm-up."""
    from tracing import Tracer

    walls, traced = [], []  # walls: (wall, parts); traced: (wall, tracer, stats)
    outcomes = []
    start = time.perf_counter()
    hits0, misses0 = cache_counts()
    i = 0
    while True:
        tracer = Tracer() if trace and i % 2 == 1 else None
        wall, parts, pass_outcomes, stats = run_pass(
            runs, manifest_path, art_dir, reference, tracer
        )
        outcomes.append(pass_outcomes)
        if i == 0:
            hits, misses = cache_counts()
            cold = {"hits": hits - hits0, "misses": misses - misses0}
        elif tracer is not None:
            traced.append((wall, tracer, stats))
        else:
            walls.append((wall, parts))
        i += 1
        enough = walls and (traced or not trace)
        if enough and time.perf_counter() - start >= seconds:
            return walls, traced, outcomes, cold


def typical_pass(walls) -> float:
    """Sum over a pass's parts of each part's median over the timed passes.

    On a shared machine a burst slows one run in one pass; a median per part
    drops it where a median of whole passes keeps it whenever bursts hit half
    the passes. With steady timings both give the same figure.
    """
    keys = set.intersection(*(set(parts) for _, parts in walls))
    return sum(statistics.median(parts[k] for _, parts in walls) for k in keys)


def layer_metrics(walls, traced, cold) -> tuple:
    """Per-layer metrics from the traced passes, and whether counts repeated."""
    counts = [dict(t.counts) for _, t, _ in traced]
    repeat = all(c == counts[0] for c in counts)
    first = traced[0][1]
    lookups = {"cache_hit_frac": cold["hits"] / max(cold["hits"] + cold["misses"], 1)}
    lookups.update(traced[0][2])
    metrics = {}
    for name, (source, key, unit) in LAYER_METRICS.items():
        if source == "count":
            value = first.counts.get(key, 0)
        elif source == "self":
            value = statistics.median(t.self_s.get(key, 0.0) for _, t, _ in traced)
        elif source == "ratio":
            value = first.counts.get(key[0], 0) / max(first.counts.get(key[1], 0), 1)
        else:
            value = lookups[key]
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(w for w, _, _ in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    untraced_wall = statistics.median(w for w, _ in walls)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics, repeat


def run_workload(args) -> int:
    runs = workloads.generate(args.workload, args.seed)
    import_klflow()
    print("machine: " + json.dumps(machine(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(workloads.manifest(runs), indent=1) + "\n")

        if args.record:
            _, _, outcomes, _ = run_pass(runs, manifest_path, work / "artifacts")
            print(f"wrote {gate.record_reference(args.workload, runs, outcomes, args.seed)}")
            return 0

        setup = [] if args.trace else setup_times(manifest_path)
        reference = gate.load_reference(args.workload) if args.seed == workloads.DEFAULT_SEED else None
        walls, traced, passes, cold = measure(
            runs, manifest_path, work / "artifacts", args.seconds, args.trace, reference
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            traced[-1][1].write_spans(OUT / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    known = gate.known_defects(gate.load_reference(args.workload))
    failing = {o.id: o for outcomes in passes for o in outcomes if o.failed}
    unexpected = [o for outcomes in passes for o in outcomes if o.failed and o.id not in known]
    for run_id, outcome in sorted(failing.items()):
        tag = "known defect" if run_id in known else "FAILED"
        print(f"{tag}: {run_id}: {'; '.join(outcome.problems)}")
    print(f"passes: {len(passes)} ({len(walls)} timed untraced, {len(traced)} traced)")
    print("untraced pass times: " + " ".join(f"{w:.3f}" for w, _ in walls)
          + f" (median {statistics.median(w for w, _ in walls):.3f})")
    if traced:
        print("traced pass times: " + " ".join(f"{w:.3f}" for w, _, _ in traced))

    correct = not unexpected
    if args.trace:
        metrics, repeat = layer_metrics(walls, traced, cold)
        if not repeat:
            print("FAILED: call counts differ between traced passes")
            correct = False
    else:
        metrics = {
            "wall_s": {"value": typical_pass(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            # add-one smoothing keeps the share above 0: 1/(runs+1) means no run failed
            "failed_frac": {"value": (len(failing) + 1) / (len(runs) + 1), "unit": "share"},
        }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(outcomes) for outcomes in passes),
        "failed": len(unexpected),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}:\n{proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass at the default seed and rewrite the reference")
    args = parser.parse_args(argv)
    if args.record and (args.workload == "all" or args.seed != workloads.DEFAULT_SEED):
        parser.error("--record takes one workload and the default seed")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
