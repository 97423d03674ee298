"""Experiment harness: spec building, runners, report emission, CLI."""

import csv
import json
import re

import numpy as np
import pytest

from fairsort import FairnessNotion, RunConfig, generate_synthetic, harness, total_exposure
from fairsort.harness import (
    _CONFIG_KEYS,
    SUMMARY_COLUMNS,
    ConfigError,
    ExperimentSpec,
    _build_parser,
    build_spec,
    main,
    make_trace,
    run_cell_offline,
    run_cell_online,
    run_experiment,
)

from oracle import RunRecord, replay_check

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


@pytest.mark.parametrize(
    "key, value",
    [("threshold", True), ("lambda_max", True), ("gap", True), ("ratio", True),
     ("skew", False)],
)
def test_build_spec_rejects_bools_for_float_keys(key, value):
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
    assert row["uir_mu_source"] == "auto"


@pytest.mark.parametrize("scenario", ["offline", "online"])
def test_single_provider_leaves_uir_uncalibrated(tmp_path, scenario):
    # one provider gets all exposure, so top-K's DPF is 0 and UIR is undefined
    spec = spec_with(tmp_path, scenario=scenario, providers=1, rounds=2)
    run_experiment(spec)
    row = read_summary(spec.out_dir / "summary.csv")[0]
    assert row["uir"] == ""
    assert row["uir_mu_source"] == "degenerate"


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


def test_offline_cells_replay_cleanly(tmp_path):
    spec = spec_with(tmp_path)
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    for model in ("fairsort", "top_k", "mixed_k", "all_random", "min_exposure"):
        # under its own spec, a top-K cell scores its lists
        cell = run_cell_offline(spec_with(tmp_path, model=model), model, 4, matrix, catalog)
        record = RunRecord(
            matrix=matrix,
            catalog=catalog,
            scenario="offline",
            k=4,
            lists=cell.lists,
            ledger_exposure=cell.ledger.exposure,
            histogram=cell.report().histogram,
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
            histogram=cell.report().histogram,
            threshold=spec.threshold if model == "fairsort" else None,
        )
        config = RunConfig(k=4, notion=spec.notion, threshold=spec.threshold)
        verdict = replay_check(record, config)
        assert verdict.ok, (model, verdict.violations)


def test_online_reference_cells_skip_the_time_series(tmp_path):
    spec = spec_with(tmp_path, scenario="online", rounds=2)
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    own = run_cell_online(spec, "fairsort", 4, matrix, catalog)
    assert len(own.timeseries) == len(own.lists)
    for model in ("min_exposure", "top_k"):
        assert run_cell_online(spec, model, 4, matrix, catalog).timeseries == []


@pytest.mark.parametrize("model", ["top_k", "mixed_k", "all_random", "min_exposure"])
def test_online_baseline_cell_books_on_its_runs_budget(tmp_path, monkeypatch, model):
    spec = spec_with(tmp_path, scenario="online", rounds=2, model=model)
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    set_budget = []
    monkeypatch.setattr(harness.ExposureLedger, "set_budget",
                        lambda ledger, budget: set_budget.append(budget))
    cell = run_cell_online(spec, model, 4, matrix, catalog)
    assert set_budget == []
    assert cell.ledger.budget == total_exposure(spec.users * spec.rounds, 4)
    assert cell.ledger.exposure.sum() == pytest.approx(cell.ledger.budget, rel=1e-12)


@pytest.mark.parametrize("scenario", ["offline", "online"])
def test_reference_cells_compute_only_what_calibration_reads(tmp_path, scenario):
    spec = spec_with(tmp_path, scenario=scenario, rounds=2)
    matrix, catalog = generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )
    run_cell = run_cell_online if scenario == "online" else run_cell_offline
    # run_experiment reads only the top-K reference's ledger
    top = run_cell(spec, "top_k", 4, matrix, catalog)
    assert len(top.lists) == spec.users * (spec.rounds if scenario == "online" else 1)
    assert top.request_ndcgs == () and top.per_user_ndcg == {}
    with pytest.raises(ValueError, match="scored no list"):
        top.report()
    # the min-exposure reference still scores every list, for its DCF; and a
    # spec's own top-K or min-exposure cell keeps its full report
    cells = [(run_cell(spec, "min_exposure", 4, matrix, catalog), False)]
    for model in ("top_k", "min_exposure"):
        cells.append((run_cell(spec_with(tmp_path, scenario=scenario, rounds=2, model=model),
                               model, 4, matrix, catalog), True))
    for cell, own in cells:
        assert len(cell.request_ndcgs) == len(cell.lists)
        assert sorted(cell.per_user_ndcg) == list(range(spec.users))
        assert sum(cell.report().histogram) == len(cell.lists)
        assert len(cell.timeseries) == (len(cell.lists) if own and scenario == "online" else 0)


@pytest.mark.parametrize("scenario", ["offline", "online"])
def test_a_run_scores_lists_only_in_the_cells_it_reports(tmp_path, monkeypatch, scenario):
    spec = spec_with(tmp_path, scenario=scenario, rounds=3, k=[3, 4])
    models, calls = [], []
    for name in ("run_cell_offline", "run_cell_online"):
        def cell(spec, model, *args, _real=getattr(harness, name)):
            models.append(model)
            return _real(spec, model, *args)
        monkeypatch.setattr(harness, name, cell)
    real_ndcg = harness.ndcg

    def ndcg(*args):
        calls.append(models[-1])
        return real_ndcg(*args)

    monkeypatch.setattr(harness, "ndcg", ndcg)
    run_experiment(spec)
    # fairsort logs its own NDCGs; of the references, only min-exposure's are read
    assert models == ["fairsort", "min_exposure", "top_k"] * 2
    requests = spec.users * (spec.rounds if scenario == "online" else 1)
    assert calls == ["min_exposure"] * requests * 2


@pytest.mark.parametrize("key", ["seed", "data_seed"])
def test_cli_rejects_a_negative_seed_before_making_the_output_directory(tmp_path, capsys, key):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    # online, so that the run seed is drawn from
    config_path.write_text(json.dumps(dict(BASE, scenario="online", out=str(out), **{key: -1})))
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"error: {key} must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_flags_are_config_keys():
    # main passes every parsed flag but the subcommand and the config path as an override
    args = vars(_build_parser().parse_args(["run", "--config", "c.json"]))
    assert set(args) - {"command", "config"} <= set(_CONFIG_KEYS)


def test_cli_flag_takes_what_its_config_key_takes(tmp_path):
    # the notion's parser takes any case, and the flag's value goes through it
    outputs = []
    for name, config, flags in (("key", {"notion": "QF"}, []),
                                ("flag", {}, ["--notion", "QF"])):
        out = tmp_path / name
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(dict(BASE, out=str(out), **config)))
        assert main(["run", "--config", str(config_path), *flags]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert read_summary(tmp_path / "flag" / "summary.csv")[0]["notion"] == "qf"


def test_cli_bad_flag_value_names_its_config_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(BASE, out=str(tmp_path / "out"))))
    assert main(["run", "--config", str(config_path), "--model", "bogus"]) == 2
    assert "error: model must be one of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_must_be_a_json_object(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps([BASE]))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "error: config must be a flat JSON object" in capsys.readouterr().err


def test_cli_malformed_json_names_its_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"k": 3, "users": }')
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"error: {config_path}: Expecting value: line 1 column 19" in capsys.readouterr().err


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
    with pytest.raises(ConfigError, match="k lists 4 more than once"):
        ExperimentSpec(k_values=(4, 5, 4))


@pytest.mark.parametrize(
    "paths",
    [{"matrix": "m.tsv"}, {"provider_map": "p.tsv"}, {"matrix": "m.tsv", "provider_map": "p.tsv"}],
    ids=["matrix", "provider_map", "both"],
)
def test_synthetic_dataset_rejects_data_paths(paths):
    with pytest.raises(ConfigError, match="matrix or provider_map"):
        build_spec({"dataset": "synthetic", **paths})
    # no dataset key means synthetic data
    with pytest.raises(ConfigError, match="matrix or provider_map"):
        build_spec(paths)


@pytest.mark.parametrize("late_k", [2.5, True, 0])
def test_spec_checks_every_k_at_construction(late_k):
    with pytest.raises(ValueError, match="k must be"):
        ExperimentSpec(k_values=(5, late_k))


@pytest.mark.parametrize("late_k", [2.5, True, 0])
def test_cli_bad_late_k_writes_no_file(tmp_path, capsys, late_k):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(BASE, out=str(out), k=[5, late_k])))
    code = main(["run", "--config", str(config_path)])
    assert code == 2
    # the config's parser refuses 2.5 and True; the spec refuses 0
    assert re.search(r"bad value for 'k'|k must be >= 1", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, key, value", [("--seed", "seed", "2.5"), ("--threshold", "threshold", "abc")]
)
def test_cli_flag_values_parse_like_config_values(tmp_path, capsys, flag, key, value):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dict(BASE, out=str(tmp_path / "out"))))
    code = main(["run", "--config", str(config_path), flag, value])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["offline", "online"])
def test_cli_rejects_an_all_zero_score_file_before_writing(tmp_path, capsys, scenario):
    # every report reads DPF under qf too, which needs some quality mass;
    # this run used to write its ndcg and ledger files, then crash
    matrix = tmp_path / "matrix.tsv"
    providers = tmp_path / "providers.tsv"
    matrix.write_text("".join(f"{u}\t{i}\t0\n" for u in range(3) for i in range(6)))
    providers.write_text("".join(f"{i}\t{i % 2}\n" for i in range(6)))
    out = tmp_path / "out"
    config = dict(BASE, dataset="files", matrix=str(matrix), provider_map=str(providers),
                  scenario=scenario, k=[2], rounds=1, out=str(out))
    for key in ("users", "items", "providers", "skew", "data_seed"):
        del config[key]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{matrix}: every score is 0, so no provider has quality mass" in err
    assert not out.exists()
