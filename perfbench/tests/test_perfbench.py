"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests -q``."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

bench.import_klflow()

import klflow.experiment  # noqa: E402
import klflow.prox  # noqa: E402
from tracing import Tracer  # noqa: E402


def _manifest(tmp_path, runs):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(workloads.manifest(runs)))
    return path


def test_two_traced_passes_give_identical_call_counts(tmp_path):
    runs = workloads.generate("prox-exhaustive", 3)
    path = _manifest(tmp_path, runs)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        bench.run_pass(runs, path, tmp_path / "artifacts", tracer=tracer)
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["prox.resolvent.calls"] > 0
    assert counts[0]["corpus.value_calls"] > counts[0]["prox.resolvent.evals"] > 0
    # the wrapped bindings are restored on exit
    assert klflow.experiment.run_prox_sequence is klflow.prox.run_prox_sequence


def test_gate_rejects_a_wrong_expected_verdict(tmp_path):
    runs = {r.id: r for r in workloads.generate("prox-exhaustive", 0)}
    wrong = dataclasses.replace(runs["stair-prox"], expect="fail")
    chosen = [wrong, runs["rec-half"]]
    _, _, outcomes, _ = bench.run_pass(chosen, _manifest(tmp_path, chosen), tmp_path / "artifacts")
    assert outcomes[0].failed
    assert outcomes[0].problems[0].startswith("verdict pass, expected fail")
    assert not outcomes[1].failed


def test_gate_rejects_a_margin_moved_beyond_its_tol():
    run = workloads.generate("prox-exhaustive", 0)[0]
    outcome = gate.Outcome(run.id, "pass", margins=[["discrete-geometric", 0.0, 1e-7]])
    reference = {run.id: {"verdict": "pass", "margins": [["discrete-geometric", 0.0, 1e-7]]}}
    gate.check_margins(run, outcome, reference)
    assert not outcome.failed
    reference[run.id]["margins"][0][1] = 2e-7
    gate.check_margins(run, outcome, reference)
    assert outcome.failed


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow-budget", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
