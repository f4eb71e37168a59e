"""Experiment configs, run artifacts, manifests, and the CLI front end."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import klflow.core
import klflow.experiment
import klflow.flow
import klflow.prox
from klflow.cli import main as cli_main
from klflow.core import CSV_BLOCK, SharedColumns, write_csv
from klflow.experiment import (
    ExperimentConfig,
    emit_plot_data,
    load_manifest,
    resolve_output_root,
    run_experiment,
    run_suite,
)
from klflow.flow import RateCertificate

FLOW_CFG = {
    "id": "q-flow",
    "mode": "flow",
    "functional": "quadratic?lambda=1",
    "x0": 1.0,
    "r": 1.0,
    "horizon": 3.0,
}
PROX_CFG = {
    "id": "cone-prox",
    "mode": "prox",
    "functional": "power-potential?p=1",
    "x0": 1.0,
    "r": 1.1,
    "tau": 0.3,
    "n_steps": 10,
}
RECURSION_CFG = {
    "id": "rec",
    "mode": "recursion",
    "recursion": {"alpha": 1.0, "delta": 0.5, "f0": 1.0, "k_max": 20},
}


def test_from_dict_aliases_and_coercions():
    cfg = ExperimentConfig.from_dict(dict(FLOW_CFG, theta="auto"))
    assert cfg.run_id == "q-flow"
    assert cfg.x0 == [1.0]
    assert cfg.theta is None


def test_from_dict_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, typo_key=1))
    # seed was never read, so a config that sets it is rejected, not ignored
    with pytest.raises(ValueError, match=r"unknown config keys: \['seed'\]"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, seed=0))
    with pytest.raises(ValueError, match="missing required key"):
        ExperimentConfig.from_dict({"mode": "flow", "functional": "quadratic"})
    with pytest.raises(ValueError, match="mode must be one of"):
        ExperimentConfig.from_dict({"id": "x", "mode": "warp", "functional": "quadratic"})
    with pytest.raises(ValueError, match="functional"):
        ExperimentConfig.from_dict({"id": "x", "mode": "flow"})
    # x0 must have the functional's dimension
    with pytest.raises(ValueError, match=r"'q-flow': x0 has 2 coordinates, but "
                       r"'quadratic\?lambda=1' is 1-dimensional"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, x0=[1.0, 2.0]))
    # recursion runs do not reference a functional
    ExperimentConfig.from_dict(RECURSION_CFG)
    # nested blocks: unknown keys are rejected with the valid ones listed,
    # required keys are checked and values go through check_real / check_int
    with pytest.raises(ValueError, match=r"unknown tolerances keys: \['certificat'\]; "
                       r"valid keys: \['certificate', 'recursion'\]"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, tolerances={"certificat": 1e-9}))
    with pytest.raises(ValueError, match="tolerances certificate must be a finite number >= 0"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, tolerances={"certificate": -1e-9}))
    with pytest.raises(ValueError, match=r"theta needs keys \['gamma'\]"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, theta={"c": 1.0}))
    with pytest.raises(ValueError, match=r"unknown theta keys: \['p'\]; valid keys: \['c', 'gamma'\]"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, theta={"c": 1.0, "gamma": 0.5, "p": 2}))
    with pytest.raises(ValueError, match="theta c must be a positive finite number, got '1'"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, theta={"c": "1", "gamma": 0.5}))
    with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
        ExperimentConfig.from_dict(dict(FLOW_CFG, theta={"c": 1.0, "gamma": 2.0}))
    with pytest.raises(ValueError, match=r"unknown recursion keys: \['k'\]"):
        ExperimentConfig.from_dict(
            dict(RECURSION_CFG, recursion=dict(RECURSION_CFG["recursion"], k=3))
        )
    with pytest.raises(ValueError, match="recursion k_max must be an integer >= 0, got 2.5"):
        ExperimentConfig.from_dict(
            dict(RECURSION_CFG, recursion=dict(RECURSION_CFG["recursion"], k_max=2.5))
        )
    with pytest.raises(ValueError, match="recursion delta must be a positive finite number"):
        ExperimentConfig.from_dict(
            dict(RECURSION_CFG, recursion=dict(RECURSION_CFG["recursion"], delta=0))
        )
    with pytest.raises(ValueError, match="recursion must be a mapping"):
        ExperimentConfig.from_dict({"id": "r", "mode": "recursion"})
    # a variant is checked when it is expanded; its base may hold a partial block
    base = ExperimentConfig.from_dict(dict(FLOW_CFG, theta={"c": 1.0}, variants=[{}]))
    with pytest.raises(ValueError, match=r"theta needs keys \['gamma'\]"):
        base.expand()
    fixed = dict(FLOW_CFG, theta={"c": 1.0}, variants=[{"theta": {"gamma": 0.5}}])
    assert ExperimentConfig.from_dict(fixed).expand()[0].theta == {"c": 1.0, "gamma": 0.5}


def test_expand_variants_merges_and_renames():
    cfg = ExperimentConfig.from_dict(
        dict(
            FLOW_CFG,
            tolerances={"certificate": 1e-7},
            variants=[
                {"id": "q-flow-tight", "tolerances": {"certificate": 1e-9}},
                {"horizon": 5.0},
            ],
        )
    )
    runs = cfg.expand()
    assert [r.run_id for r in runs] == ["q-flow-tight", "q-flow--1"]
    # nested mappings merge key by key instead of being replaced
    assert runs[0].tolerances == {"certificate": 1e-9}
    assert runs[0].horizon == 3.0
    assert runs[1].horizon == 5.0

    plain = ExperimentConfig.from_dict(FLOW_CFG).expand()
    assert len(plain) == 1 and plain[0].run_id == "q-flow"


def test_resolve_output_root_precedence(monkeypatch):
    monkeypatch.delenv("KLFLOW_OUTPUT_ROOT", raising=False)
    assert str(resolve_output_root()) == "klflow_output"
    monkeypatch.setenv("KLFLOW_OUTPUT_ROOT", "/tmp/envroot")
    assert str(resolve_output_root()) == "/tmp/envroot"
    assert str(resolve_output_root(config_output_dir="/tmp/cfg")) == "/tmp/cfg"
    assert str(resolve_output_root("/tmp/cli", "/tmp/cfg")) == "/tmp/cli"


def test_flow_run_artifacts(tmp_path):
    report = run_experiment(ExperimentConfig.from_dict(FLOW_CFG), output_root=tmp_path)
    assert report.verdict == "pass"
    run_dir = tmp_path / "q-flow"
    traj = run_dir / "trajectory.csv"
    assert traj.exists()
    assert traj.read_text().splitlines()[0] == "t,x_1,f,slope,speed,segment"
    payload = json.loads((run_dir / "report.json").read_text())
    assert {
        "run_id",
        "mode",
        "verdict",
        "condition",
        "certificates",
        "flow_summary",
        "files",
        "config",
        "wall_clock_s",
    } <= set(payload)
    assert payload["config"]["run_id"] == "q-flow"
    assert payload["config"]["horizon"] == 3.0
    assert payload["wall_clock_s"] > 0.0
    assert {"A", "A-strict"} <= set(payload["condition"])
    cert_files = [f for f in report.files if "cert_" in f]
    assert cert_files
    head = (run_dir / cert_files[0].split("/")[-1]).read_text().splitlines()[0]
    assert head in ("t,observed,bound,margin", "k,observed,bound,margin")


@pytest.mark.parametrize(
    "raw", [FLOW_CFG, PROX_CFG, RECURSION_CFG], ids=["flow", "prox", "recursion"]
)
def test_rerun_is_bit_identical(tmp_path, raw):
    """A rerun, in place or under another output root, writes the same bytes."""
    cfg = ExperimentConfig.from_dict(raw)
    run_experiment(cfg, output_root=tmp_path / "one")
    run_dir = tmp_path / "one" / raw["id"]
    csv_names = [p.name for p in run_dir.glob("*.csv")]
    first = {n: (run_dir / n).read_bytes() for n in csv_names}
    rep1 = json.loads((run_dir / "report.json").read_text())
    rep1.pop("wall_clock_s")
    for root in ("one", "two"):
        run_experiment(cfg, output_root=tmp_path / root)
        rerun_dir = tmp_path / root / raw["id"]
        for n in csv_names:
            assert (rerun_dir / n).read_bytes() == first[n], (root, n)
        rep2 = json.loads((rerun_dir / "report.json").read_text())
        rep2.pop("wall_clock_s")
        assert rep1 == rep2, root


def _reference_write_csv(path, columns, shared=None):
    """The per-row writer that formats every cell of every file anew."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in zip(*cells)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def test_shared_columns_write_the_reference_bytes(tmp_path, monkeypatch):
    n = CSV_BLOCK + 7  # more than one block
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    t = np.concatenate([special, np.linspace(0.0, 3.0, n - len(special))])
    f = np.exp(-np.arange(n) / 7.0)
    f[3] = -0.0
    signed = t.copy()
    signed[1] = 0.0  # differs from t in one bit only
    tables = [
        {"t": t, "x_1": -f, "f": f, "slope": f.copy(), "segment": np.arange(n) // 1000},
        {"t": t[:40].copy(), "observed": f[:40].copy(), "bound": f[:40] + 1.0},
        {"t": t.copy(), "observed": f.copy(), "bound": signed, "margin": signed - f},
        {"k": [0, 1, 2.5, 3, 4.0, -0.0], "observed": f[:6].copy(), "bound": (f[:40] + 1.0)[:6]},
        {"t": signed[:40].copy(), "observed": f[:40] + 1.0},
    ]
    cells = [0]
    reprs = klflow.core._reprs

    def counted(col):
        cells[0] += len(col)
        return reprs(col)

    monkeypatch.setattr(klflow.core, "_reprs", counted)
    shared = SharedColumns(tables)
    for i, table in enumerate(tables):
        write_csv(tmp_path / f"shared-{i}.csv", table, shared)
        _reference_write_csv(tmp_path / f"reference-{i}.csv", table)
        shared_bytes = (tmp_path / f"shared-{i}.csv").read_bytes()
        assert shared_bytes == (tmp_path / f"reference-{i}.csv").read_bytes(), i
    # each cell is formatted once: t, x_1, f (which slope reuses), segment,
    # the signed column and the margin, the second file's bound and the k list
    assert cells[0] == 6 * n + 40 + 6
    assert not shared._sources  # no text outlives its last reuse


@pytest.mark.parametrize(
    "raw",
    [
        {"id": "q-budget", "mode": "flow", "functional": "quadratic?lambda=1",
         "x0": 1.0, "r": 1.5},
        {"id": "q-all", "mode": "all", "functional": "quadratic?lambda=1", "x0": 1.0,
         "r": 1.5, "horizon": 3.0, "tau": 0.5, "n_steps": 10,
         "recursion": {"alpha": 1.0, "delta": 0.5, "f0": 1.0, "k_max": 20}},
    ],
    ids=["flow", "all"],
)
def test_run_artifacts_are_the_reference_writers_bytes(tmp_path, monkeypatch, raw):
    cfg = ExperimentConfig.from_dict(raw)
    report = run_experiment(cfg, output_root=tmp_path / "shared")
    for module in (klflow.experiment, klflow.flow, klflow.prox):
        monkeypatch.setattr(module, "write_csv", _reference_write_csv)
    run_experiment(cfg, output_root=tmp_path / "reference")
    names = sorted(report.files)
    assert "trajectory.csv" in names and len(names) > 9
    for name in names:
        got, want = (tmp_path / root / raw["id"] / name for root in ("shared", "reference"))
        if name == "report.json":
            got, want = (json.loads(p.read_text()) for p in (got, want))
            got.pop("wall_clock_s"), want.pop("wall_clock_s")
            assert got == want
        else:
            assert got.read_bytes() == want.read_bytes(), name


def test_prox_run_artifacts(tmp_path):
    report = run_experiment(ExperimentConfig.from_dict(PROX_CFG), output_root=tmp_path)
    assert report.verdict == "pass"
    seq_csv = tmp_path / "cone-prox" / "sequence.csv"
    assert seq_csv.read_text().splitlines()[0] == "k,x_1,f,dist_step,slope,de_giorgi_residual"
    assert report.prox_summary["stop_reason"] == "f-tolerance"


def test_recursion_run_artifacts(tmp_path):
    report = run_experiment(
        ExperimentConfig.from_dict(RECURSION_CFG), output_root=tmp_path
    )
    assert report.verdict == "pass"
    rec_csv = tmp_path / "rec" / "recursion.csv"
    assert rec_csv.exists()
    assert report.recursion_summary["k0"] == 1
    with pytest.raises(ValueError, match="recursion needs"):
        run_experiment(
            ExperimentConfig.from_dict(
                {"id": "r2", "mode": "recursion", "recursion": {"alpha": 1.0}}
            ),
            output_root=tmp_path,
        )


def test_condition_run_failure_names_the_witness(tmp_path):
    report = run_experiment(
        ExperimentConfig.from_dict(
            {
                "id": "trunc-wide",
                "mode": "condition",
                "functional": "truncated-parabola",
                "x0": 1.0,
                "r": 1.5,
            }
        ),
        output_root=tmp_path,
    )
    assert report.verdict == "fail"
    assert not report.condition["C"]["holds"]
    # the worst witness sits on the plateau, where the slope vanishes
    assert report.condition["C"]["worst_witness"][0][0] < 0.0


def test_emit_plot_data_needs_live_certificates(tmp_path):
    dead = RateCertificate(
        kind="noop",
        ts=np.array([]),
        predicted=np.array([]),
        observed=np.array([]),
        margin=0.0,
        verdict=True,
        t_star=0.0,
        tol=1e-7,
        skipped=True,
        details={},
    )
    with pytest.raises(ValueError, match="no certificate data"):
        emit_plot_data([dead], tmp_path)


def test_load_manifest_forms(tmp_path):
    child = tmp_path / "child.yaml"
    child.write_text(yaml.safe_dump(PROX_CFG))
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        yaml.safe_dump({"runs": [dict(FLOW_CFG), "child.yaml"]})
    )
    configs = load_manifest(manifest)
    assert [c.run_id for c in configs] == ["cone-prox", "q-flow"]

    dup = tmp_path / "dup.yaml"
    dup.write_text(yaml.safe_dump([dict(FLOW_CFG), dict(FLOW_CFG)]))
    with pytest.raises(ValueError, match="duplicate run ids"):
        load_manifest(dup)

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"not_runs": []}))
    with pytest.raises(ValueError, match="must hold a list"):
        load_manifest(bad)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="libyaml is not installed")
@pytest.mark.parametrize("seed", [0, 3])
def test_workload_manifests_parse_alike_with_both_yaml_loaders(tmp_path, monkeypatch, seed):
    # conftest checks every config the other tests load the same way
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        manifest = tmp_path / f"{name}.json"
        runs = workloads.generate(name, seed)
        manifest.write_text(json.dumps(workloads.manifest(runs), indent=1) + "\n")
        text = manifest.read_text()
        fast, pure = (yaml.load(text, Loader=loader) for loader in (yaml.CSafeLoader, yaml.SafeLoader))
        assert repr(fast) == repr(pure), name
        assert len(load_manifest(manifest)) == len(fast)


def test_run_suite_aggregates(tmp_path):
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(yaml.safe_dump([dict(FLOW_CFG), dict(RECURSION_CFG)]))
    suite = run_suite(manifest, output_root=tmp_path)
    assert suite.verdict == "pass"
    assert suite.failing == []
    assert {r.run_id for r in suite.reports} == {"q-flow", "rec"}
    assert (tmp_path / "suite_report.json").exists()


def test_suite_report_goes_to_the_shared_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("KLFLOW_OUTPUT_ROOT", raising=False)
    monkeypatch.chdir(tmp_path)
    shared = str(tmp_path / "shared")
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        yaml.safe_dump(
            [dict(FLOW_CFG, output_dir=shared), dict(RECURSION_CFG, output_dir=shared)]
        )
    )
    run_suite(manifest)
    assert (tmp_path / "shared" / "suite_report.json").exists()
    assert (tmp_path / "shared" / "rec" / "report.json").exists()
    assert not (tmp_path / "klflow_output").exists()


def test_suite_rejects_different_output_dirs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        yaml.safe_dump(
            [
                dict(FLOW_CFG, output_dir=str(tmp_path / "a")),
                dict(RECURSION_CFG, output_dir=str(tmp_path / "b")),
            ]
        )
    )
    with pytest.raises(ValueError, match="different output_dir"):
        run_suite(manifest)
    assert cli_main(["suite", str(manifest)]) == 2
    assert "different output_dir" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    # one output root settles where every run goes
    assert cli_main(["suite", str(manifest), "--output", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "suite_report.json").exists()


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(RECURSION_CFG))
    assert cli_main(["run", str(good), "--output", str(tmp_path / "o1")]) == 0
    assert "rec: PASS" in capsys.readouterr().out

    failing = tmp_path / "failing.yaml"
    failing.write_text(
        yaml.safe_dump(
            {
                "id": "sharp",
                "mode": "condition",
                "functional": "sharpness?eps=0.05",
                "x0": 1.0,
            }
        )
    )
    assert cli_main(["run", str(failing), "--output", str(tmp_path / "o2")]) == 1
    assert "sharp: FAIL" in capsys.readouterr().out

    assert cli_main(["run", str(tmp_path / "missing.yaml")]) == 2
    notdict = tmp_path / "notdict.yaml"
    notdict.write_text("- just\n- a\n- list\n")
    assert cli_main(["run", str(notdict)]) == 2
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text(yaml.safe_dump(dict(FLOW_CFG, typo=1)))
    assert cli_main(["run", str(unknown)]) == 2
    capsys.readouterr()
    seeded = tmp_path / "seeded.yaml"
    seeded.write_text(yaml.safe_dump(dict(FLOW_CFG, seed=0)))
    assert cli_main(["run", str(seeded), "--output", str(tmp_path / "o3")]) == 2
    assert "unknown config keys: ['seed']" in capsys.readouterr().err
    # a negative step count used to run zero steps and pass
    no_steps = tmp_path / "no-steps.yaml"
    no_steps.write_text(yaml.safe_dump(dict(PROX_CFG, n_steps=-3)))
    assert cli_main(["run", str(no_steps), "--output", str(tmp_path / "o4")]) == 2
    assert "n_steps must be a positive integer, got -3" in capsys.readouterr().err
    assert not (tmp_path / "o4").exists()
    # integrator tolerances are module constants, not config keys
    knob = tmp_path / "knob.yaml"
    knob.write_text(yaml.safe_dump(dict(FLOW_CFG, flow_controls={"dt_max": 0.5})))
    assert cli_main(["run", str(knob), "--output", str(tmp_path / "o5")]) == 2
    assert (
        "unknown flow_controls keys: ['dt_max']; "
        "valid keys: ['policy', 'fixed_dt', 'max_steps']"
    ) in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, key, controls, message",
    [
        # fixed_dt 0 or below used to run for minutes with every sample at t = 0
        (FLOW_CFG, "flow_controls", {"fixed_dt": 0},
         "fixed_dt must be a positive finite number, got 0"),
        (FLOW_CFG, "flow_controls", {"fixed_dt": -0.1}, "got -0.1"),
        (FLOW_CFG, "flow_controls", {"fixed_dt": float("nan")}, "got nan"),
        (FLOW_CFG, "flow_controls", {"fixed_dt": "0.1"}, "got '0.1'"),
        (FLOW_CFG, "flow_controls", {"fixed_dt": True}, "got True"),
        # max_steps -1 used to take no step and pass
        (FLOW_CFG, "flow_controls", {"max_steps": -1},
         "max_steps must be a positive integer, got -1"),
        (FLOW_CFG, "flow_controls", {"max_steps": 10.0}, "got 10.0"),
        # n_grid 1 used to certify a wrong resolvent, n_grid 0 to crash in numpy
        (PROX_CFG, "prox_controls", {"n_grid": 1}, "n_grid must be an integer >= 3, got 1"),
        (PROX_CFG, "prox_controls", {"n_grid": 0}, "got 0"),
        (PROX_CFG, "prox_controls", {"n_grid": 33.0}, "got 33.0"),
        (PROX_CFG, "prox_controls", {"max_steps": 0},
         "max_steps must be a positive integer, got 0"),
        (PROX_CFG, "prox_controls", {"stop_f_tol": -1.0},
         "stop_f_tol must be a finite number >= 0, got -1.0"),
        (PROX_CFG, "prox_controls", {"stall_tol": float("inf")},
         "stall_tol must be a finite number >= 0, got inf"),
        (PROX_CFG, "prox_controls", {"stall_tol": float("nan")}, "got nan"),
    ],
)
def test_bad_control_values_exit_2(tmp_path, capsys, base, key, controls, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(dict(base, **{key: controls})))
    assert cli_main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        # r = inf used to print PASS: no sample was finite, so none was admissible
        ("r: .inf\n", "r must be a positive finite number, got inf"),
        ("r: true\n", "r must be a positive finite number, got True"),
        ("r: -1.0\n", "got -1.0"),
        # a sweep row at r = inf read A_holds true and alpha_estimate inf
        ("radii: [0.5, .inf]\n", "radii entries must be a positive finite number, got inf"),
        ("radii: [0.0]\n", "got 0.0"),
        # these raised TypeError, or checked each character or key as a radius
        ("radii: 0.5\n", "radii must be a list of positive finite numbers, got 0.5"),
        ("radii: true\n", "radii must be a list of positive finite numbers, got True"),
        ("radii: abc\n", "radii must be a list of positive finite numbers, got 'abc'"),
        ("radii: {a: 1}\n", "radii must be a list of positive finite numbers, got {'a': 1}"),
    ],
)
def test_bad_radii_exit_2(tmp_path, capsys, extra, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("id: trunc\nmode: condition\nfunctional: truncated-parabola\nx0: 1.0\n" + extra)
    assert cli_main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_radii_exit_2_in_every_mode(tmp_path, capsys):
    # a recursion run returned before the radii check and passed
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(dict(RECURSION_CFG, radii=0.5)))
    assert cli_main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 2
    assert "radii must be a list of positive finite numbers, got 0.5" in capsys.readouterr().err


def test_malformed_yaml_exits_2_naming_where(tmp_path, capsys):
    # libyaml words the error differently from the pure-Python parser
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("id: [unclosed\nmode: flow\n")
    assert cli_main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "while parsing a flow sequence" in err and 'bad.yaml", line 1, column 5' in err


def test_prox_schedule_longer_than_max_steps_exits_2(tmp_path, capsys):
    cfg = tmp_path / "long.yaml"
    cfg.write_text(
        yaml.safe_dump(
            dict(PROX_CFG, n_steps=60, prox_controls={"max_steps": 5, "n_grid": 33})
        )
    )
    assert cli_main(["run", str(cfg), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "60 steps, more than max_steps=5" in err
    assert not (tmp_path / "o" / "cone-prox" / "sequence.csv").exists()


def test_suite_checks_prox_schedules_before_any_run(tmp_path, capsys):
    manifest = tmp_path / "suite.yaml"
    long_prox = dict(PROX_CFG, id="b-prox", n_steps=60, prox_controls={"max_steps": 5})
    manifest.write_text(yaml.safe_dump([dict(FLOW_CFG, id="a-flow"), long_prox]))
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="60 steps, more than max_steps=5"):
        run_suite(manifest, output_root=out)
    assert not out.exists()
    assert cli_main(["suite", str(manifest), "--output", str(out)]) == 2
    assert "60 steps, more than max_steps=5" in capsys.readouterr().err
    assert not out.exists()
    # a base config runs only through its variants, which are checked one by one
    base = dict(PROX_CFG, n_steps=None, prox_controls={"max_steps": 5})
    assert len(ExperimentConfig.from_dict(dict(base, variants=[{"n_steps": 5}])).expand()) == 1
    with pytest.raises(ValueError, match="6 steps, more than max_steps=5"):
        ExperimentConfig.from_dict(dict(base, variants=[{"n_steps": 6}])).expand()
    # a bad step size is a schedule error too
    manifest.write_text(yaml.safe_dump([dict(FLOW_CFG, id="a-flow"), dict(PROX_CFG, tau=-0.1)]))
    assert cli_main(["suite", str(manifest), "--output", str(out)]) == 2
    assert "tau must be a positive finite number, got -0.1" in capsys.readouterr().err
    assert not (out / "a-flow").exists() and not (out / "suite_report.json").exists()
    # so is a theta block without gamma, which used to fail after a-flow ran
    manifest.write_text(
        yaml.safe_dump([dict(FLOW_CFG, id="a-flow"), dict(PROX_CFG, theta={"c": 1.0})])
    )
    with pytest.raises(ValueError, match=r"theta needs keys \['gamma'\]"):
        run_suite(manifest, output_root=out)
    assert cli_main(["suite", str(manifest), "--output", str(out)]) == 2
    assert "theta needs keys ['gamma']" in capsys.readouterr().err
    assert not (out / "a-flow").exists() and not (out / "suite_report.json").exists()
    # and the inputs a run derives before its first scan, which used to fail
    # only once a-flow had written its files and the bad run its directory
    no_tau = {k: v for k, v in PROX_CFG.items() if k != "tau"}
    no_x0 = {k: v for k, v in FLOW_CFG.items() if k != "x0"}
    for bad, message in [
        (no_tau, "'b-bad': prox mode needs tau"),
        (no_x0, "'b-bad': x0 is required"),
        (dict(FLOW_CFG, functional="nosuch"), "'b-bad': unknown corpus id 'nosuch'"),
        (
            dict(FLOW_CFG, functional="asymmetric-double-well"),
            "'b-bad': no theta given and the corpus entry has no match",
        ),
    ]:
        manifest.write_text(yaml.safe_dump([dict(FLOW_CFG, id="a-flow"), dict(bad, id="b-bad")]))
        assert cli_main(["suite", str(manifest), "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
    # and a misspelt tolerance, which used to be ignored
    typo = tmp_path / "typo.yaml"
    typo.write_text(yaml.safe_dump(dict(FLOW_CFG, tolerances={"certificat": 1e-9})))
    assert cli_main(["run", str(typo), "--output", str(out)]) == 2
    assert "unknown tolerances keys: ['certificat']" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_policy_fails_at_load_and_cli_exits_2(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown policy 'negative'"):
        ExperimentConfig.from_dict(dict(PROX_CFG, prox_controls={"policy": "negative"}))
    # variants are checked too, before any run starts
    cfg = dict(FLOW_CFG, variants=[{"flow_controls": {"policy": "smallest-distance"}}])
    with pytest.raises(ValueError, match="valid policies: positive-branch"):
        ExperimentConfig.from_dict(cfg).expand()
    bad = tmp_path / "bad-policy.yaml"
    bad.write_text(yaml.safe_dump(dict(PROX_CFG, prox_controls={"policy": "negative"})))
    assert cli_main(["run", str(bad), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown policy 'negative'" in err and "smallest-distance" in err
    assert not (tmp_path / "o").exists()


def test_condition_reports_parse_as_strict_json(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cfg = ExperimentConfig.from_dict(
        {
            "id": "cond",
            "mode": "condition",
            "functional": "sharpness?eps=0.05",
            "x0": 1.0,
            "radii": [0.5, 1.0],
            "variants": [{"id": "cond-q", "functional": "quadratic?lambda=1"}, {}],
        }
    )
    for run in cfg.expand():
        run_experiment(run, output_root=tmp_path)
    reports = sorted(tmp_path.rglob("report.json"))
    assert len(reports) == 2
    for path in reports:
        payload = json.loads(path.read_text(), parse_constant=reject)
        # the C variants have no theta budget: it is written as "nan"
        assert payload["condition"]["C"]["theta_budget"] == "nan"


def test_each_ball_is_scanned_once_per_run(tmp_path, monkeypatch):
    import klflow.conditions

    radii_scanned = []
    scan = klflow.conditions._scan

    def counted(f, x0, r, *args):
        radii_scanned.append(r)
        return scan(f, x0, r, *args)

    monkeypatch.setattr(klflow.conditions, "_scan", counted)
    cond = {
        "id": "q-cond",
        "mode": "condition",
        "functional": "quadratic?lambda=1",
        "x0": 1.0,
        "r": 1.0,
    }
    run_experiment(ExperimentConfig.from_dict(dict(cond, radii=[0.5, 1.5])), tmp_path)
    assert radii_scanned == [1.0, 0.5, 1.5]
    radii_scanned.clear()
    # a sweep radius equal to r reuses the scan at r
    run_experiment(
        ExperimentConfig.from_dict(dict(cond, radii=[0.5, 1.0, 1.5])), tmp_path
    )
    assert radii_scanned == [1.0, 0.5, 1.5]
    radii_scanned.clear()
    run_experiment(ExperimentConfig.from_dict(FLOW_CFG), output_root=tmp_path)
    assert radii_scanned == [1.0]
    # a prox run without tau is rejected before its ball is scanned
    no_tau = {k: v for k, v in PROX_CFG.items() if k != "tau"}
    with pytest.raises(ValueError, match="needs tau"):
        run_experiment(ExperimentConfig.from_dict(no_tau), output_root=tmp_path)
    assert radii_scanned == [1.0]


def test_prox_summary_reports_resolvent_facts(tmp_path):
    one_d = run_experiment(ExperimentConfig.from_dict(PROX_CFG), output_root=tmp_path)
    assert one_d.prox_summary["uncertified_steps"] == 0
    # four steps reach the kink; the cone declares convexity 0, so each
    # resolvent solves phi' = 0 on gradients and evaluates f(x) and f(z)
    assert one_d.prox_summary["resolvent_evals"] == 4 * 2
    two_d = ExperimentConfig.from_dict(
        {
            "id": "q2d",
            "mode": "prox",
            "functional": "quadratic?center=0,0",
            "x0": [1.0, 0.5],
            "tau": 0.5,
            "n_steps": 3,
        }
    )
    rep = run_experiment(two_d, output_root=tmp_path)
    # the quadratic declares its convexity, so every 2-d step is certified
    assert rep.prox_summary["uncertified_steps"] == 0
    header = (tmp_path / "q2d" / "sequence.csv").read_text().splitlines()[0]
    assert header == "k,x_1,x_2,f,dist_step,slope,de_giorgi_residual"
    # the cone's resolvent from here is its kink, where no gradient certifies
    # the single start; that step lands on the centre, so the run stops there
    cone = ExperimentConfig.from_dict(
        {
            "id": "cone2d",
            "mode": "prox",
            "functional": "power-potential?p=1&center=0,0",
            "x0": [0.1, 0.05],
            "tau": 0.5,
            "n_steps": 2,
        }
    )
    rep = run_experiment(cone, output_root=tmp_path)
    assert rep.prox_summary["uncertified_steps"] == 1
    assert rep.prox_summary["stop_reason"] == "f-tolerance"
    assert {c["details"]["uncertified_steps"] for c in rep.certificates} == {1}


def test_cli_suite_and_list(tmp_path, capsys):
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(yaml.safe_dump([dict(RECURSION_CFG)]))
    assert cli_main(["suite", str(manifest), "--output", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "suite: PASS" in out

    assert cli_main(["list-corpus"]) == 0
    assert "quadratic" in capsys.readouterr().out


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "klflow.cli", "list-corpus"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "double-well" in proc.stdout
