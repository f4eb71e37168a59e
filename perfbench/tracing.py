"""Spans and counters recorded from outside the package.

``Tracer`` wraps public functions at the place where they are looked up (the
modules import names directly, so ``klflow.experiment.run_prox_sequence`` and
``klflow.prox.run_prox_sequence`` are different bindings) and restores them
on exit. Each wrapped call records a span: layer name, start, end, parent
span and the run it belongs to. A layer's self time is its span's duration
minus the time its child spans cover. Counts come from the returned objects
(``n_evals``, ``diagnostics["steps"]``, ``details["n_admissible"]``,
``SlopeEstimate.samples``) and from counting wrappers around the oracles of
every resolved corpus entry's ``Functional``. Spans stay in memory until
``write_spans``.
"""
from __future__ import annotations

import dataclasses
import json
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import klflow.conditions
import klflow.corpus
import klflow.experiment
import klflow.prox
import klflow.slope

E = klflow.experiment
C = klflow.conditions
P = klflow.prox


def _sample_count(condition: str, args, kwargs) -> int:
    # check_condition_A(f, pf, x0, r, sample_count, ...); check_condition_C(f, x0, r, sample_count, ...)
    pos = 4 if condition.startswith("A") else 3
    if len(args) > pos:
        return int(args[pos])
    return int(kwargs.get("sample_count", C.DEFAULT_SAMPLE_COUNT))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (id, parent, layer, start, end, run_id)
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list = []  # [id, start, child_time]
        self._next_id = 0
        self._run_id = ""
        self._saved: list = []

    # -- span machinery ---------------------------------------------------

    def _span(self, layer: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[1]
                tracer.self_s[layer] += duration - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                tracer.spans.append((span_id, parent, layer, frame[1], end, tracer._run_id))
            tracer.counts[layer + ".calls"] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, name: str, make) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    # -- what gets wrapped ------------------------------------------------

    def _counted_entry(self, entry):
        f = entry.functional
        wrap = lambda fn, key: None if fn is None else self._count(key, fn)  # noqa: E731
        counted = dataclasses.replace(
            f,
            value=wrap(f.value, "corpus.value_calls"),
            analytic_slope=wrap(f.analytic_slope, "corpus.slope_calls"),
            smooth_gradient=wrap(f.smooth_gradient, "corpus.gradient_calls"),
        )
        return dataclasses.replace(entry, functional=counted)

    def __enter__(self) -> "Tracer":
        counts = self.counts

        def run_experiment(original):
            def wrapper(config, *args, **kwargs):
                self._run_id = config.run_id
                try:
                    return traced(config, *args, **kwargs)
                finally:
                    self._run_id = ""

            traced = self._span("experiment.run", original)
            return wrapper

        def on_resolvent(res, args, kwargs):
            counts["prox.resolvent.evals"] += res.n_evals
            counts["prox.resolvent.uncertified"] += not res.certified

        def on_check(rep, args, kwargs):
            n_admissible = rep.details.get("n_admissible", -1)
            if n_admissible >= 0:  # -1: alpha was given, nothing scanned
                counts["conditions.admissible"] += n_admissible
                counts["conditions.sampled"] += _sample_count(rep.condition, args, kwargs)

        def on_integrate(traj, args, kwargs):
            counts["flow.steps"] += traj.diagnostics["steps"]
            counts["flow.samples"] += traj.n_samples
            counts["flow.glue_points"] += len(traj.segment_boundaries)

        def on_certify_discrete(certs, args, kwargs):
            for cert in certs:
                counts["prox.certify.pairs"] += cert.details.get("pairs", 0)

        span = lambda layer, after=None: lambda fn: self._span(layer, fn, after)  # noqa: E731
        count = lambda key: lambda fn: self._count(key, fn)  # noqa: E731
        resolve = lambda fn: lambda entry_id: self._counted_entry(fn(entry_id))  # noqa: E731

        self._patch(E, "run_experiment", run_experiment)
        self._patch(E, "resolve_entry", resolve)
        self._patch(klflow.corpus, "resolve_entry", resolve)
        for module in (E, C):
            self._patch(module, "check_condition_A", span("conditions.check", on_check))
            self._patch(module, "check_condition_C", span("conditions.check", on_check))
        self._patch(C, "estimate_alpha", span("conditions.check"))
        self._patch(C, "descending_slope", count("slope.descending.calls"))
        self._patch(P, "descending_slope", count("slope.descending.calls"))
        self._patch(
            klflow.slope, "sampled_slope",
            span("slope.sampled", lambda est, a, k: counts.update({"slope.sampled.samples": est.samples})),
        )
        self._patch(
            E, "run_prox_sequence",
            span("prox.sequence", lambda seq, a, k: counts.update({"prox.sequence.steps": len(seq.steps)})),
        )
        self._patch(P, "resolvent", span("prox.resolvent", on_resolvent))
        self._patch(P, "de_giorgi_residual", span("prox.de_giorgi"))
        self._patch(E, "certify_rates_discrete", span("prox.certify", on_certify_discrete))
        self._patch(E, "certify_power_rates_discrete", span("prox.certify"))
        self._patch(E, "integrate_maximal_slope", span("flow.integrate", on_integrate))
        self._patch(E, "verify_ede", span("flow.ede"))
        self._patch(E, "certify_rates_continuous", span("flow.certify"))
        self._patch(E, "certify_power_family", span("flow.certify"))
        self._patch(E, "brute_force_minimiser", span("corpus.brute_force"))
        for name in ("trajectory_to_csv", "sequence_to_csv", "emit_plot_data", "_write_cert_csv"):
            self._patch(E, name, span("experiment.write"))
        # report.json and suite_report.json: json.dumps plus Path.write_text
        self._patch(E, "json", lambda mod: types.SimpleNamespace(
            dumps=self._span("experiment.write", mod.dumps)))
        self._patch(E, "Path", lambda cls: type(
            "TracedPath", (type(cls()),),
            {"write_text": self._span("experiment.write", cls.write_text)},
        ))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON object per line: id, parent, layer, start, end, run."""
        with open(path, "w") as fh:
            for span_id, parent, layer, start, end, run_id in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "layer": layer,
                     "start": start, "end": end, "run": run_id}
                ) + "\n")
