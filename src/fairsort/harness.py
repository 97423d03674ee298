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
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .catalog import (
    Catalog,
    DatasetFormatError,
    PreferenceMatrix,
    RankedList,
    _count,
    generate_synthetic,
    load_dataset,
)
from .exposure import ExposureLedger, FairnessNotion, list_contribution, total_exposure
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

TIMESERIES_COLUMNS = [
    "step", "user", "ndcg", "running_dcf", "running_dpf", "running_avg_quality",
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
    threshold: float = RunConfig.threshold
    lambda_max: float = RunConfig.lambda_max
    gap: float = RunConfig.gap
    ratio: float = RunConfig.ratio
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
    exposure_update: str = RunConfig.exposure_update

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if not self.k_values:
            raise ConfigError("k must list at least one depth")
        repeated = [k for i, k in enumerate(self.k_values) if k in self.k_values[:i]]
        if repeated:
            raise ConfigError(f"k lists {repeated[0]} more than once")
        # np.repeat truncates fractional rounds; a negative seed, which numpy's
        # generators refuse, is refused here even for a run that never draws
        for key, least in (("rounds", 1), ("seed", 0), ("data_seed", 0)):
            try:
                _count(key, getattr(self, key), least)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.dataset not in ("synthetic", "files"):
            raise ConfigError("dataset must be 'synthetic' or 'files'")
        given = [path is not None for path in (self.matrix_path, self.provider_map_path)]
        if self.dataset == "files" and not all(given):
            raise ConfigError("dataset=files needs matrix and provider_map paths")
        if self.dataset == "synthetic" and any(given):
            raise ConfigError("dataset=synthetic takes no matrix or provider_map path")
        if self.service_order not in ("ascending", "shuffled"):
            raise ConfigError("service_order must be 'ascending' or 'shuffled'")
        # surface bad depths and hyperparameters at spec construction time
        for k in self.k_values:
            self.run_config(k)

    def run_config(self, k: int) -> RunConfig:
        # every RunConfig field but k is a spec field of the same name
        shared = {f.name: getattr(self, f.name) for f in fields(RunConfig) if f.name != "k"}
        return RunConfig(k=k, **shared)


def _integer(value) -> int:
    """``int`` that refuses bools and numbers with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _float(value) -> float:
    """``float`` that refuses bools."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


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
    "threshold": ("threshold", _float),
    "lambda_max": ("lambda_max", _float),
    "gap": ("gap", _float),
    "ratio": ("ratio", _float),
    "seed": ("seed", _integer),
    "rounds": ("rounds", _integer),
    "out": ("out_dir", Path),
    "dataset": ("dataset", str),
    "users": ("users", _integer),
    "items": ("items", _integer),
    "providers": ("providers", _integer),
    "skew": ("skew", _float),
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
        matrix, catalog = load_dataset(spec.matrix_path, spec.provider_map_path)
        # every report reads DPF under both notions, and qf's needs quality mass
        if not catalog.quality_mass.any():
            raise DatasetFormatError(
                f"{spec.matrix_path}: every score is 0, so no provider has quality mass"
            )
        return matrix, catalog
    return generate_synthetic(
        spec.users, spec.items, spec.providers, spec.skew, spec.data_seed
    )


@dataclass
class CellResult:
    """One (model, scenario, K) run: raw lists plus derived numbers.

    A cell that scores no list (see :func:`_scores_lists`) has no NDCGs and
    no report.
    """

    lists: tuple[RankedList, ...]
    ledger: ExposureLedger
    request_ndcgs: tuple[float, ...]
    per_user_ndcg: dict[int, float]
    timeseries: list[dict] = field(default_factory=list)

    def report(self) -> metrics.MetricsReport:
        if not self.request_ndcgs:
            raise ValueError("a cell that scored no list has no report")
        catalog = self.ledger.catalog
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


def _scores_lists(spec: ExperimentSpec, model: str) -> bool:
    """Whether a cell of ``model`` scores its lists.

    Every cell does but a top-K cell run only as a UIR reference:
    :func:`run_experiment` reads nothing from it but its ledger's DPF.
    """
    return model != "top_k" or model == spec.model


def _baseline_policy(model: str, k: int, matrix: PreferenceMatrix):
    """A baseline model as a ``(user, seed) -> list`` policy for one cell.

    Every policy looks its baseline up at call time; min-exposure keeps one
    per-item exposure array for the whole cell.
    """
    exposure = np.zeros(matrix.n_items, dtype=np.float64)
    policies = {
        "top_k": lambda user, seed: baselines.top_k(matrix, user, k),
        "mixed_k": lambda user, seed: baselines.mixed_k(matrix, user, k, seed),
        "all_random": lambda user, seed: baselines.all_random(matrix, user, k, seed),
        "min_exposure": lambda user, seed: baselines.min_exposure(matrix, user, k, exposure),
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
            matrix, catalog, spec.run_config(k), order=order
        )
        served = [lists[u] for u in range(m)]
        values = [quality_report.per_user[u] for u in range(m)]
    else:
        policy = _baseline_policy(model, k, matrix)
        scored = _scores_lists(spec, model)
        ledger = ExposureLedger(total_exposure(m, k), catalog, spec.notion)
        served, values = [], []
        for user in range(m):
            rlist = policy(user, (spec.seed, user))
            ledger.apply(list_contribution(rlist, k, catalog))
            served.append(rlist)
            if scored:
                values.append(ndcg(matrix, user, rlist, k))
    return CellResult(
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
    """Replay a request trace, recording running metrics after every step.

    Only a cell of the spec's own model records them: that is the time
    series :func:`run_experiment` writes, and the UIR reference cells it
    runs alongside would discard theirs.
    """
    m = matrix.n_users
    record = model == spec.model
    scored = _scores_lists(spec, model)
    trace = make_trace(m, spec.rounds, spec.seed)
    if model == "fairsort":
        state = OnlineState.fresh(catalog, spec.notion)
        ledger = state.ledger
        config = spec.run_config(k)

        def serve(user: int, step: int) -> tuple[RankedList, float]:
            rlist, _ = fairsort_online_step(state, matrix, catalog, user, config)
            return rlist, state.ndcg_log[-1][1]
    else:
        policy = _baseline_policy(model, k, matrix)
        # the run's budget from the start: nothing reads it before the final snapshot
        ledger = ExposureLedger(total_exposure(len(trace), k), catalog, spec.notion)

        def serve(user: int, step: int) -> tuple[RankedList, float | None]:
            rlist = policy(user, (spec.seed, step))
            ledger.apply(list_contribution(rlist, k, catalog))
            return rlist, ndcg(matrix, user, rlist, k) if scored else None

    user_total = np.zeros(m)
    user_count = np.zeros(m)
    # each user's average NDCG so far, 0 until served
    averages = np.zeros(m)
    served: list[RankedList] = []
    request_ndcgs: list[float] = []
    timeseries: list[dict] = []
    running_total = 0.0
    running_dpf = metrics._dpf_rule(catalog, spec.notion)

    for step, user in enumerate(trace, start=1):
        rlist, value = serve(user, step)
        served.append(rlist)
        if not scored:
            continue
        request_ndcgs.append(value)
        running_total += value
        user_total[user] += value
        user_count[user] += 1
        averages[user] = user_total[user] / user_count[user]
        if record:
            timeseries.append(dict(zip(TIMESERIES_COLUMNS, (
                step, user, value, metrics._variance(averages),
                running_dpf(ledger.exposure), running_total / step,
            ))))

    return CellResult(
        lists=tuple(served),
        ledger=ledger,
        request_ndcgs=tuple(request_ndcgs),
        per_user_ndcg=dict(enumerate(averages.tolist())) if scored else {},
        timeseries=timeseries,
    )


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_report(
    spec: ExperimentSpec,
    rows: list[tuple[int, metrics.MetricsReport, float, float]],
    path: Path,
) -> Path:
    """Write one summary.csv line per ``(k, report, mu1, mu2)`` row.

    UIR is calibrated by the min-exposure model's DCF (mu1) and the top-K
    model's DPF under the spec's notion (mu2), both run at the row's K.
    """
    table = []
    for k, report, mu1, mu2 in rows:
        calibrated = mu1 > 0 and mu2 > 0 and report.avg_quality > 0
        uir_val = ""  # an empty field when uncalibrated
        if calibrated:
            uir_val = metrics.uir(
                report.dcf, report.dpf(spec.notion), mu1, mu2, report.avg_quality
            )
        row = dict(
            model=spec.model, scenario=spec.scenario, K=k, notion=spec.notion.value,
            threshold=spec.threshold, lambda_max=spec.lambda_max, gap=spec.gap,
            ratio=spec.ratio, seed=spec.seed, dcf=report.dcf, dpf_uf=report.dpf_uf,
            dpf_qf=report.dpf_qf, total_quality=report.total_quality,
            avg_quality=report.avg_quality, uir=uir_val,
            uir_mu_source="auto" if calibrated else "degenerate",
        )
        row.update((f"hist_{i}", count) for i, count in enumerate(report.histogram))
        table.append(row)
    return _write_table(path, SUMMARY_COLUMNS, table)


def _write_lines(path: Path, lines: Iterable[str]) -> Path:
    """Write each of ``lines`` followed by a newline, as UTF-8."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return path


def _write_table(path: Path, columns: list[str], rows: list[dict]) -> Path:
    """A CSV file of ``columns`` and one line per row dict.

    Every field is a number, empty, or a name from a fixed set, so none
    needs quoting.
    """
    lines = (",".join(_fmt(row[column]) for column in columns) for row in rows)
    return _write_lines(path, [",".join(columns), *lines])


def _write_ndcg_file(path: Path, per_user: dict[int, float]) -> Path:
    return _write_lines(path, (f"{user}\t{_fmt(per_user[user])}" for user in sorted(per_user)))


def _write_ledger_file(path: Path, ledger: ExposureLedger) -> Path:
    return _write_lines(path, ledger.snapshot_lines())


def _write_timeseries(path: Path, rows: list[dict]) -> Path:
    return _write_table(path, TIMESERIES_COLUMNS, rows)


def run_experiment(spec: ExperimentSpec) -> list[Path]:
    """Run the spec's scenario for every requested K; return written files.

    Each K also needs the UIR references in the same scenario: the
    min-exposure model's DCF and the top-K model's DPF.  A run of either
    model is its own reference, and any other reference is run here.
    """
    matrix, catalog = _load(spec)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    online = spec.scenario == "online"
    run_cell = run_cell_online if online else run_cell_offline
    rows: list[tuple[int, metrics.MetricsReport, float, float]] = []
    written: list[Path] = []
    for k in spec.k_values:
        cell = run_cell(spec, spec.model, k, matrix, catalog)
        if online:
            written.append(_write_timeseries(
                spec.out_dir / f"timeseries_{spec.model}_K{k}.csv", cell.timeseries
            ))
        else:
            written.append(_write_ndcg_file(
                spec.out_dir / f"ndcg_users_{spec.model}_offline_K{k}.tsv", cell.per_user_ndcg
            ))
        written.append(_write_ledger_file(
            spec.out_dir / f"ledger_{spec.model}_{spec.scenario}_K{k}.tsv", cell.ledger
        ))
        cells = {spec.model: cell}
        for model in ("min_exposure", "top_k"):
            if model not in cells:
                cells[model] = run_cell(spec, model, k, matrix, catalog)
        mu1 = metrics.dcf(list(cells["min_exposure"].per_user_ndcg.values()))
        mu2 = metrics.dpf(cells["top_k"].ledger, catalog, spec.notion)
        rows.append((k, cell.report(), mu1, mu2))
    written.append(emit_report(spec, rows, spec.out_dir / "summary.csv"))
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsort",
        description="Provider-fair re-ranking experiments over recommendation lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one experiment spec")
    run.add_argument("--config", required=True, help="path to a flat JSON config")
    help_text = {"k": "comma-separated list depths, e.g. 5,10,20", "out": "output directory"}
    # each flag overrides the config key it names, as an untyped string for its parser
    for key in ("model", "scenario", "k", "threshold", "lambda_max", "gap", "ratio",
                "notion", "seed", "out"):
        run.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text.get(key))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError("config must be a flat JSON object")
        # every other dest of the parser is a config key
        overrides = {
            key: value for key, value in vars(args).items() if key not in ("command", "config")
        }
        spec = build_spec(config, overrides)
        written = run_experiment(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
