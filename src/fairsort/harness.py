"""Experiment harness and command line entry point.

An experiment is described by a flat JSON config (every key can be
overridden by a CLI flag), names one list model and one scenario, and
sweeps the requested K values.  Offline serves each user once; online
replays a shuffled trace of ``rounds`` requests per user.  Results land in
the output directory as a ``summary.csv`` plus per-cell NDCG files, ledger
snapshots and, for online runs, per-step time series.

All randomness flows from the single run seed through named substreams
(one per user or request, one for trace shuffling), so identical configs
reproduce output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .catalog import Catalog, PreferenceMatrix, RankedList, generate_synthetic, load_dataset
from .exposure import ExposureLedger, FairnessNotion, total_exposure
from .quality import ndcg
from .reranker import OnlineState, RunConfig, fairsort_offline, fairsort_online_step

MODELS = ("fairsort", "top_k", "mixed_k", "all_random", "min_exposure")
SCENARIOS = ("offline", "online")

# substream tags keep per-request draws, trace shuffling and service-order
# shuffling independent under one run seed
_TRACE_STREAM = 1_000_003
_ORDER_STREAM = 1_000_033

SUMMARY_COLUMNS = [
    "model", "scenario", "K", "notion", "threshold", "lambda_max", "gap",
    "ratio", "seed", "dcf", "dpf_uf", "dpf_qf", "total_quality",
    "avg_quality", "uir",
    *[f"hist_{i}" for i in range(9)],
    "uir_mu_source",
]


class ConfigError(ValueError):
    """Raised when an experiment config is malformed."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved experiment description."""

    model: str = "fairsort"
    scenario: str = "offline"
    k_values: tuple[int, ...] = (10,)
    notion: FairnessNotion = FairnessNotion.UNIFORM
    threshold: float = 0.9
    lambda_max: float = 16.0
    gap: float = 2.0**-7
    ratio: float = 1.0
    seed: int = 0
    rounds: int = 10
    out_dir: Path = Path("out")
    dataset: str = "synthetic"
    users: int = 50
    items: int = 100
    providers: int = 5
    skew: float = 1.0
    data_seed: int = 0
    matrix_path: Path | None = None
    provider_map_path: Path | None = None
    service_order: str = "ascending"
    exposure_update: str = "replace"

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigError("k must list positive integers")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.dataset not in ("synthetic", "files"):
            raise ConfigError("dataset must be 'synthetic' or 'files'")
        if self.dataset == "files" and (
            self.matrix_path is None or self.provider_map_path is None
        ):
            raise ConfigError("dataset=files needs matrix and provider_map paths")
        if self.service_order not in ("ascending", "shuffled"):
            raise ConfigError("service_order must be 'ascending' or 'shuffled'")
        if self.exposure_update not in ("replace", "accumulate"):
            raise ConfigError("exposure_update must be 'replace' or 'accumulate'")
        # surface bad hyperparameters at spec construction time
        self.run_config(self.k_values[0])

    def run_config(self, k: int) -> RunConfig:
        return RunConfig(
            k=k,
            notion=self.notion,
            threshold=self.threshold,
            lambda_max=self.lambda_max,
            gap=self.gap,
            ratio=self.ratio,
        )


def _integer(value) -> int:
    """``int`` that refuses bools and numbers with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _parse_k(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(_integer(v) for v in value)


# config key -> (ExperimentSpec field, parser of the raw value)
_CONFIG_KEYS = {
    "model": ("model", str),
    "scenario": ("scenario", str),
    "k": ("k_values", _parse_k),
    "notion": ("notion", lambda value: FairnessNotion.parse(str(value))),
    "threshold": ("threshold", float),
    "lambda_max": ("lambda_max", float),
    "gap": ("gap", float),
    "ratio": ("ratio", float),
    "seed": ("seed", _integer),
    "rounds": ("rounds", _integer),
    "out": ("out_dir", Path),
    "dataset": ("dataset", str),
    "users": ("users", _integer),
    "items": ("items", _integer),
    "providers": ("providers", _integer),
    "skew": ("skew", float),
    "data_seed": ("data_seed", _integer),
    "matrix": ("matrix_path", Path),
    "provider_map": ("provider_map_path", Path),
    "service_order": ("service_order", str),
    "exposure_update": ("exposure_update", str),
}


def build_spec(config: dict, overrides: dict | None = None) -> ExperimentSpec:
    """Merge a flat config mapping with CLI overrides into a spec."""
    merged = dict(config)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    unknown = set(merged) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    kwargs: dict = {}
    for key, value in merged.items():
        name, parse = _CONFIG_KEYS[key]
        try:
            kwargs[name] = parse(value)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
    return ExperimentSpec(**kwargs)


def _load(spec: ExperimentSpec) -> tuple[PreferenceMatrix, Catalog]:
    if spec.dataset == "files":
        return load_dataset(spec.matrix_path, spec.provider_map_path)
    return generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )


@dataclass
class CellResult:
    """One (model, scenario, K) run: raw lists plus derived numbers."""

    model: str
    scenario: str
    k: int
    lists: tuple[RankedList, ...]
    ledger: ExposureLedger
    request_ndcgs: tuple[float, ...]
    per_user_ndcg: dict[int, float]
    timeseries: list[dict] = field(default_factory=list)

    def report(self, catalog: Catalog) -> metrics.MetricsReport:
        count = len(self.request_ndcgs)
        total = float(sum(self.request_ndcgs))
        return metrics.MetricsReport(
            dcf=metrics.dcf(list(self.per_user_ndcg.values())),
            dpf_uf=metrics.dpf(self.ledger, catalog, FairnessNotion.UNIFORM),
            dpf_qf=metrics.dpf(self.ledger, catalog, FairnessNotion.QUALITY_WEIGHTED),
            total_quality=total,
            avg_quality=total / count,
            histogram=metrics.ndcg_histogram(self.request_ndcgs),
        )


def _baseline_policy(model: str, k: int, matrix: PreferenceMatrix, catalog: Catalog):
    """A baseline model as a ``(user, seed) -> list`` policy for one cell.

    Every policy looks its baseline up at call time; min-exposure keeps one
    item-exposure tracker for the whole cell.
    """
    tracker = baselines.ItemExposureTracker.fresh(matrix.n_items)
    policies = {
        "top_k": lambda user, seed: baselines.top_k(matrix, user, k),
        "mixed_k": lambda user, seed: baselines.mixed_k(matrix, user, k, seed),
        "all_random": lambda user, seed: baselines.all_random(matrix, user, k, seed),
        "min_exposure": lambda user, seed: baselines.min_exposure(
            tracker, catalog, matrix, user, k
        ),
    }
    if model not in policies:
        raise ConfigError(f"unknown model {model!r}")
    return policies[model]


def run_cell_offline(
    spec: ExperimentSpec, model: str, k: int, matrix: PreferenceMatrix, catalog: Catalog
) -> CellResult:
    """Serve every user once under one model and collect the ledger."""
    m = matrix.n_users
    if model == "fairsort":
        order = None
        if spec.service_order == "shuffled":
            rng = np.random.default_rng((spec.seed, _ORDER_STREAM))
            order = rng.permutation(m).tolist()
        lists, ledger, quality_report = fairsort_offline(
            matrix,
            catalog,
            spec.run_config(k),
            order=order,
            exposure_update=spec.exposure_update,
        )
        served = [lists[u] for u in range(m)]
        values = [quality_report.per_user[u] for u in range(m)]
    else:
        policy = _baseline_policy(model, k, matrix, catalog)
        ledger = ExposureLedger.create(total_exposure(m, k), catalog, spec.notion)
        served, values = [], []
        for user in range(m):
            rlist = policy(user, (spec.seed, user))
            ledger.apply(rlist, k)
            served.append(rlist)
            values.append(ndcg(matrix, user, rlist, k))
    return CellResult(
        model=model,
        scenario="offline",
        k=k,
        lists=tuple(served),
        ledger=ledger,
        request_ndcgs=tuple(values),
        per_user_ndcg=dict(enumerate(values)),
    )


def make_trace(n_users: int, rounds: int, seed: int) -> list[int]:
    """``rounds`` requests per user, shuffled once into one global order."""
    trace = np.repeat(np.arange(n_users), rounds)
    rng = np.random.default_rng((seed, _TRACE_STREAM))
    rng.shuffle(trace)
    return trace.tolist()


def run_cell_online(
    spec: ExperimentSpec, model: str, k: int, matrix: PreferenceMatrix, catalog: Catalog
) -> CellResult:
    """Replay a request trace, recording running metrics after every step."""
    m = matrix.n_users
    trace = make_trace(m, spec.rounds, spec.seed)
    state = OnlineState.fresh(catalog, spec.notion)
    ledger = state.ledger
    if model == "fairsort":
        config = spec.run_config(k)

        def serve(user: int, step: int) -> tuple[RankedList, float]:
            rlist, _ = fairsort_online_step(
                state, matrix, catalog, user, config, exposure_update=spec.exposure_update
            )
            return rlist, state.ndcg_log[-1][1]
    else:
        policy = _baseline_policy(model, k, matrix, catalog)

        def serve(user: int, step: int) -> tuple[RankedList, float]:
            ledger.set_budget(total_exposure(step, k))
            rlist = policy(user, (spec.seed, step))
            ledger.apply(rlist, k)
            return rlist, ndcg(matrix, user, rlist, k)

    user_total = np.zeros(m)
    user_count = np.zeros(m)
    served: list[RankedList] = []
    request_ndcgs: list[float] = []
    timeseries: list[dict] = []
    running_total = 0.0

    for step, user in enumerate(trace, start=1):
        rlist, value = serve(user, step)
        served.append(rlist)
        request_ndcgs.append(value)
        running_total += value
        user_total[user] += value
        user_count[user] += 1

        averages = np.where(user_count > 0, user_total / np.maximum(user_count, 1), 0.0)
        timeseries.append(
            {
                "step": step,
                "user": user,
                "ndcg": value,
                "running_dcf": float(np.var(averages)),
                "running_dpf": metrics.dpf(ledger, catalog, spec.notion),
                "running_avg_quality": running_total / step,
            }
        )

    per_user = {
        u: (user_total[u] / user_count[u] if user_count[u] else 0.0) for u in range(m)
    }
    return CellResult(
        model=model,
        scenario="online",
        k=k,
        lists=tuple(served),
        ledger=ledger,
        request_ndcgs=tuple(request_ndcgs),
        per_user_ndcg=per_user,
        timeseries=timeseries,
    )


@dataclass(frozen=True)
class SummaryRow:
    """One summary.csv line before UIR calibration."""

    model: str
    scenario: str
    k: int
    notion: FairnessNotion
    threshold: float
    lambda_max: float
    gap: float
    ratio: float
    seed: int
    report: metrics.MetricsReport


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_report(
    rows: list[SummaryRow],
    path: Path,
    *,
    spec: ExperimentSpec | None = None,
    data: tuple[PreferenceMatrix, Catalog] | None = None,
) -> Path:
    """Write summary rows as CSV, calibrating the UIR column.

    UIR needs two reference numbers per (scenario, K): the min-exposure
    model's DCF and the top-K model's DPF under the row's notion.  Reference
    rows already present are used as is; missing ones are executed on the
    fly when ``spec`` and ``data`` are given, and the provenance column says
    which happened.
    """
    calibrators: dict[tuple[str, int, str], metrics.MetricsReport] = {}
    for row in rows:
        if row.model in ("top_k", "min_exposure"):
            calibrators[(row.scenario, row.k, row.model)] = row.report

    def calibrator(scenario: str, k: int, model: str) -> tuple[metrics.MetricsReport, bool]:
        key = (scenario, k, model)
        if key in calibrators:
            return calibrators[key], False
        if spec is None or data is None:
            raise ConfigError(
                f"cannot calibrate UIR: no {model} run for scenario={scenario}, K={k}"
            )
        matrix, catalog = data
        run_cell = run_cell_online if scenario == "online" else run_cell_offline
        calibrators[key] = run_cell(spec, model, k, matrix, catalog).report(catalog)
        return calibrators[key], True

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            mu1_report, ran1 = calibrator(row.scenario, row.k, "min_exposure")
            mu2_report, ran2 = calibrator(row.scenario, row.k, "top_k")
            mu1 = mu1_report.dcf
            mu2 = mu2_report.dpf(row.notion)
            if mu1 > 0 and mu2 > 0 and row.report.avg_quality > 0:
                uir_val = metrics.uir(
                    row.report.dcf, row.report.dpf(row.notion), mu1, mu2,
                    row.report.avg_quality,
                )
                source = "auto" if (ran1 or ran2) else "provided"
            else:
                uir_val = None
                source = "degenerate"
            writer.writerow(
                [
                    row.model,
                    row.scenario,
                    str(row.k),
                    row.notion.value,
                    _fmt(row.threshold),
                    _fmt(row.lambda_max),
                    _fmt(row.gap),
                    _fmt(row.ratio),
                    str(row.seed),
                    _fmt(row.report.dcf),
                    _fmt(row.report.dpf_uf),
                    _fmt(row.report.dpf_qf),
                    _fmt(row.report.total_quality),
                    _fmt(row.report.avg_quality),
                    _fmt(uir_val),
                    *[str(c) for c in row.report.histogram],
                    source,
                ]
            )
    return path


def _write_ndcg_file(path: Path, per_user: dict[int, float]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for user in sorted(per_user):
            fh.write(f"{user}\t{_fmt(per_user[user])}\n")
    return path


def _write_ledger_file(path: Path, ledger: ExposureLedger) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for line in ledger.snapshot_lines():
            fh.write(line + "\n")
    return path


def _write_timeseries(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["step", "user", "ndcg", "running_dcf", "running_dpf", "running_avg_quality"]
        )
        for row in rows:
            writer.writerow(
                [
                    str(row["step"]),
                    str(row["user"]),
                    _fmt(row["ndcg"]),
                    _fmt(row["running_dcf"]),
                    _fmt(row["running_dpf"]),
                    _fmt(row["running_avg_quality"]),
                ]
            )
    return path


def _summary_row(spec: ExperimentSpec, k: int, report: metrics.MetricsReport) -> SummaryRow:
    return SummaryRow(
        model=spec.model,
        scenario=spec.scenario,
        k=k,
        notion=spec.notion,
        threshold=spec.threshold,
        lambda_max=spec.lambda_max,
        gap=spec.gap,
        ratio=spec.ratio,
        seed=spec.seed,
        report=report,
    )


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Run the spec's scenario for every requested K; return written files."""
    matrix, catalog = _load(spec)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[SummaryRow] = []
    written: list[Path] = []
    for k in spec.k_values:
        if spec.scenario == "online":
            cell = run_cell_online(spec, spec.model, k, matrix, catalog)
            written.append(_write_timeseries(
                spec.out_dir / f"timeseries_{spec.model}_K{k}.csv", cell.timeseries
            ))
        else:
            cell = run_cell_offline(spec, spec.model, k, matrix, catalog)
            written.append(_write_ndcg_file(
                spec.out_dir / f"ndcg_users_{spec.model}_offline_K{k}.tsv", cell.per_user_ndcg
            ))
        rows.append(_summary_row(spec, k, cell.report(catalog)))
        written.append(_write_ledger_file(
            spec.out_dir / f"ledger_{spec.model}_{spec.scenario}_K{k}.tsv", cell.ledger
        ))
    written.append(
        emit_report(rows, spec.out_dir / "summary.csv", spec=spec, data=(matrix, catalog))
    )
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsort",
        description="Provider-fair re-ranking experiments over recommendation lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one experiment spec")
    run.add_argument("--config", required=True, help="path to a flat JSON config")
    run.add_argument("--model", choices=MODELS)
    run.add_argument("--scenario", choices=SCENARIOS)
    run.add_argument("--k", help="comma-separated list depths, e.g. 5,10,20")
    run.add_argument("--threshold", type=float)
    run.add_argument("--lambda-max", dest="lambda_max", type=float)
    run.add_argument("--gap", type=float)
    run.add_argument("--ratio", type=float)
    run.add_argument("--notion", choices=[n.value for n in FairnessNotion])
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config must be a flat JSON object")
        overrides = {
            key: getattr(args, key)
            for key in (
                "model", "scenario", "k", "threshold", "lambda_max",
                "gap", "ratio", "notion", "seed", "out",
            )
        }
        spec = build_spec(config, overrides)
        written = run_experiment(spec)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
