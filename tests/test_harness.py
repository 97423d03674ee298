"""Experiment harness: spec building, runners, report emission, CLI."""

import csv
import json

import numpy as np
import pytest

from fairsort import FairnessNotion, RunConfig, generate_synthetic
from fairsort.harness import (
    SUMMARY_COLUMNS,
    ConfigError,
    ExperimentSpec,
    build_spec,
    emit_report,
    main,
    make_trace,
    run_cell_offline,
    run_cell_online,
    run_experiment,
    _summary_row,
)
from fairsort.oracle import RunRecord, replay_check

BASE = {
    "dataset": "synthetic",
    "users": 12,
    "items": 30,
    "providers": 3,
    "skew": 1.2,
    "data_seed": 5,
    "model": "fairsort",
    "scenario": "offline",
    "k": [4],
    "notion": "uf",
    "threshold": 0.9,
    "seed": 3,
}


def spec_with(tmp_path, **kwargs):
    config = dict(BASE, out=str(tmp_path / "out"))
    config.update(kwargs)
    return build_spec(config)


def read_summary(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_build_spec_applies_defaults_and_overrides():
    spec = build_spec({"dataset": "synthetic"}, {"model": "top_k", "k": "5,10"})
    assert spec.model == "top_k"
    assert spec.k_values == (5, 10)
    assert spec.notion is FairnessNotion.UNIFORM
    assert spec.threshold == 0.9


def test_build_spec_flag_beats_config():
    spec = build_spec({"dataset": "synthetic", "threshold": 0.8}, {"threshold": 0.95})
    assert spec.threshold == 0.95


def test_build_spec_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        build_spec({"dataset": "synthetic", "treshold": 0.9})


def test_build_spec_rejects_bad_values():
    with pytest.raises(ConfigError):
        build_spec({"dataset": "synthetic", "k": "five"})
    with pytest.raises(ConfigError):
        build_spec({"dataset": "synthetic", "model": "bogus"})
    with pytest.raises(ConfigError):
        build_spec({"dataset": "files"})
    with pytest.raises(ValueError):
        build_spec({"dataset": "synthetic", "threshold": 2.0})


@pytest.mark.parametrize(
    "key, value",
    [("k", [10.7]), ("k", 2.5), ("k", True), ("k", [4, False]), ("seed", 2.9),
     ("rounds", 1.5), ("users", 20.9), ("items", True), ("data_seed", float("inf"))],
)
def test_build_spec_rejects_non_integral_integers(key, value):
    with pytest.raises(ConfigError, match=repr(key)):
        build_spec({"dataset": "synthetic", key: value})


def test_make_trace_covers_every_user_each_round():
    trace = make_trace(7, 3, seed=1)
    assert len(trace) == 21
    assert np.bincount(trace, minlength=7).tolist() == [3] * 7
    assert trace == make_trace(7, 3, seed=1)
    assert trace != make_trace(7, 3, seed=2)


def test_offline_run_writes_expected_files(tmp_path):
    spec = spec_with(tmp_path)
    written = run_experiment(spec)
    names = {p.name for p in written}
    assert names == {
        "ndcg_users_fairsort_offline_K4.tsv",
        "ledger_fairsort_offline_K4.tsv",
        "summary.csv",
    }
    rows = read_summary(spec.out_dir / "summary.csv")
    assert len(rows) == 1
    assert list(rows[0].keys()) == SUMMARY_COLUMNS
    assert rows[0]["model"] == "fairsort"
    assert rows[0]["uir_mu_source"] == "auto"
    assert float(rows[0]["uir"]) < 1.0


def test_offline_top_k_row_is_calibration_point(tmp_path):
    spec = spec_with(tmp_path, model="top_k")
    run_experiment(spec)
    row = read_summary(spec.out_dir / "summary.csv")[0]
    assert float(row["dcf"]) == 0.0
    assert float(row["avg_quality"]) == 1.0
    assert float(row["uir"]) == pytest.approx(1.0, abs=1e-9)


def test_offline_threshold_one_matches_top_k_metrics(tmp_path):
    fair = spec_with(tmp_path, threshold=1.0, out=str(tmp_path / "fair"))
    plain = spec_with(tmp_path, model="top_k", out=str(tmp_path / "plain"))
    run_experiment(fair)
    run_experiment(plain)
    fair_row = read_summary(fair.out_dir / "summary.csv")[0]
    plain_row = read_summary(plain.out_dir / "summary.csv")[0]
    for column in ["dcf", "dpf_uf", "dpf_qf", "total_quality", "avg_quality"] + [
        f"hist_{i}" for i in range(9)
    ]:
        assert fair_row[column] == plain_row[column]


def test_per_user_file_matches_histogram(tmp_path):
    spec = spec_with(tmp_path)
    run_experiment(spec)
    row = read_summary(spec.out_dir / "summary.csv")[0]
    path = spec.out_dir / "ndcg_users_fairsort_offline_K4.tsv"
    values = []
    for line in path.read_text().splitlines():
        user, value = line.split("\t")
        values.append(float(value))
    assert len(values) == spec.users
    from fairsort import ndcg_histogram

    recount = ndcg_histogram(values)
    assert [int(row[f"hist_{i}"]) for i in range(9)] == list(recount)


def test_ledger_snapshot_parses(tmp_path):
    spec = spec_with(tmp_path)
    run_experiment(spec)
    path = spec.out_dir / "ledger_fairsort_offline_K4.tsv"
    lines = path.read_text().splitlines()
    assert len(lines) == spec.providers
    total_e = sum(float(line.split("\t")[1]) for line in lines)
    total_fair = sum(float(line.split("\t")[2]) for line in lines)
    assert total_e == pytest.approx(total_fair, rel=1e-9)


def test_online_run_timeseries_schema(tmp_path):
    spec = spec_with(tmp_path, scenario="online", rounds=2)
    run_experiment(spec)
    path = spec.out_dir / "timeseries_fairsort_K4.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [
        "step", "user", "ndcg", "running_dcf", "running_dpf", "running_avg_quality",
    ]
    assert len(rows) == spec.users * 2
    assert int(rows[-1]["step"]) == spec.users * 2
    summary = read_summary(spec.out_dir / "summary.csv")[0]
    assert float(rows[-1]["running_avg_quality"]) == pytest.approx(
        float(summary["avg_quality"]), rel=1e-12
    )
    assert float(rows[-1]["running_dcf"]) == pytest.approx(
        float(summary["dcf"]), rel=1e-12
    )


def test_online_top_k_single_round_ends_with_zero_dcf(tmp_path):
    spec = spec_with(tmp_path, scenario="online", model="top_k", rounds=1)
    run_experiment(spec)
    row = read_summary(spec.out_dir / "summary.csv")[0]
    assert float(row["dcf"]) == 0.0


def test_runs_are_byte_identical(tmp_path):
    for scenario in ("offline", "online"):
        first = spec_with(tmp_path, scenario=scenario, rounds=2, out=str(tmp_path / f"a_{scenario}"))
        second = spec_with(tmp_path, scenario=scenario, rounds=2, out=str(tmp_path / f"b_{scenario}"))
        files_a = sorted(run_experiment(first), key=lambda p: p.name)
        files_b = sorted(run_experiment(second), key=lambda p: p.name)
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for a, b in zip(files_a, files_b):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_emit_report_autoruns_calibrators(tmp_path):
    spec = spec_with(tmp_path, model="top_k")
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    cell = run_cell_offline(spec, "top_k", 4, matrix, catalog)
    row = _summary_row(spec, 4, cell.report(catalog))
    path = emit_report([row], tmp_path / "s.csv", spec=spec, data=(matrix, catalog))
    rows = read_summary(path)
    assert rows[0]["uir_mu_source"] == "auto"
    assert float(rows[0]["uir"]) == pytest.approx(1.0, abs=1e-9)


def test_emit_report_without_context_requires_calibrators(tmp_path):
    spec = spec_with(tmp_path, model="top_k")
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    cell = run_cell_offline(spec, "top_k", 4, matrix, catalog)
    row = _summary_row(spec, 4, cell.report(catalog))
    with pytest.raises(ConfigError, match="cannot calibrate"):
        emit_report([row], tmp_path / "s.csv")


def test_offline_cells_replay_cleanly(tmp_path):
    spec = spec_with(tmp_path)
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    for model in ("fairsort", "top_k", "mixed_k", "all_random", "min_exposure"):
        cell = run_cell_offline(spec, model, 4, matrix, catalog)
        record = RunRecord(
            matrix=matrix,
            catalog=catalog,
            scenario="offline",
            k=4,
            lists=cell.lists,
            ledger_exposure=cell.ledger.exposure,
            histogram=cell.report(catalog).histogram,
            threshold=spec.threshold if model == "fairsort" else None,
        )
        config = RunConfig(k=4, notion=spec.notion, threshold=spec.threshold)
        verdict = replay_check(record, config)
        assert verdict.ok, (model, verdict.violations)


def test_online_cells_replay_cleanly(tmp_path):
    spec = spec_with(tmp_path, scenario="online", rounds=2)
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    for model in ("fairsort", "min_exposure"):
        cell = run_cell_online(spec, model, 4, matrix, catalog)
        record = RunRecord(
            matrix=matrix,
            catalog=catalog,
            scenario="online",
            k=4,
            lists=cell.lists,
            ledger_exposure=cell.ledger.exposure,
            histogram=cell.report(catalog).histogram,
            threshold=spec.threshold if model == "fairsort" else None,
        )
        config = RunConfig(k=4, notion=spec.notion, threshold=spec.threshold)
        verdict = replay_check(record, config)
        assert verdict.ok, (model, verdict.violations)


def test_cli_round_trip(tmp_path, capsys):
    config = dict(BASE, out=str(tmp_path / "cli_out"), k="3")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(config_path), "--k", "4", "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert any("summary.csv" in line for line in out)
    rows = read_summary(tmp_path / "cli_out" / "summary.csv")
    assert rows[0]["K"] == "4"
    assert rows[0]["seed"] == "9"


def test_cli_reports_config_errors(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": "synthetic", "bogus": 1}))
    code = main(["run", "--config", str(config_path)])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_rejects_infinite_lambda_max(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(BASE, out=str(tmp_path / "out"))))
    code = main(["run", "--config", str(config_path), "--lambda-max", "inf"])
    assert code == 2
    assert "lambda_max" in capsys.readouterr().err


def test_cli_requires_existing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentSpec(model="nope")
    with pytest.raises(ConfigError):
        ExperimentSpec(scenario="sometimes")
    with pytest.raises(ConfigError):
        ExperimentSpec(k_values=())
    with pytest.raises(ConfigError):
        ExperimentSpec(rounds=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(service_order="random")
