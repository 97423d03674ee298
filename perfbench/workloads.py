"""The benchmark's workloads: inputs, one timed pass, and its output gate.

Every workload is a closed loop with one caller that talks to fairsort only
through its public API or the ``fairsort run`` CLI entry point.  A workload
builds its inputs from the seed alone, so one seed always gives the same
inputs and the same output digest.

A pass returns a :class:`Pass`: the main call's time plus what the gate
found.  Times are taken on the client thread's CPU clock, which leaves out
time the thread was not running: on a shared virtual machine, hypervisor
steal otherwise dominates the tail.  The wall clock is kept alongside.  The gate re-scores every emitted list with the public
``fairsort.ndcg``, checks it clears the floor, and checks that the ledger
total equals the exposure budget (``replace`` mode).  A list that fails any
check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fairsort
from fairsort import FairnessNotion, RunConfig, harness

THRESHOLD = 0.9
K = 10


@dataclass
class Pass:
    """Outcome of one run of a workload's main call."""

    cpu_s: float
    wall_s: float
    lists: int
    failed: int
    digest: str
    avg_ndcg: float
    dpf: float
    # per-request latencies, only where requests are visible to the caller
    request_ms: list[float] = field(default_factory=list)
    out_bytes: int = 0


def ledger_balanced(ledger: fairsort.ExposureLedger, budget: float) -> bool:
    """Exposure and fair targets both add up to the budget."""
    tol = 1e-9 * max(1.0, budget)
    return (
        abs(float(ledger.exposure.sum()) - budget) <= tol
        and abs(float(ledger.target.sum()) - budget) <= tol
        and abs(ledger.budget - budget) <= tol
    )


def _list_ok(matrix, user: int, rlist, config: RunConfig, logged: float) -> tuple[bool, float]:
    """Re-score one emitted list; it must clear the floor and match its log."""
    if rlist.user != user or len(rlist) != config.k:
        return False, 0.0
    value = fairsort.ndcg(matrix, user, rlist, config.k)
    return value >= config.threshold and value == logged, value


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class OfflineProbe:
    """One ``fairsort_offline`` call: every user ranked once, full-pool probes."""

    name = "offline-probe"
    layers = ("catalog.ranking", "reranker.search", "reranker.pool", "velocity.lifts",
              "exposure.ledger")

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.size = (60, 240, 6) if small else (1000, 2000, 50)
        self.seed = seed
        self.config = RunConfig(k=K, notion=FairnessNotion.UNIFORM, threshold=THRESHOLD,
                                ratio=1.0)
        self.rows_per_load = 0

    def setup(self):
        users, items, providers = self.size
        return fairsort.generate_synthetic(users, items, providers, 1.5, self.seed)

    def prepare(self, data) -> None:
        pass

    def run_pass(self, data) -> Pass:
        matrix, catalog = data
        wall, cpu = time.perf_counter(), time.thread_time()
        lists, ledger, report = fairsort.fairsort_offline(matrix, catalog, self.config)
        cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall

        balanced = ledger_balanced(ledger, fairsort.total_exposure(matrix.n_users, K))
        failed, values, lines = 0, [], []
        for user in range(matrix.n_users):
            rlist = lists.get(user)
            if rlist is None:
                failed += 1
                continue
            ok, value = _list_ok(matrix, user, rlist, self.config, report.per_user.get(user))
            failed += not (ok and balanced)
            values.append(value)
            lines.append(f"{user}\t{rlist.items}")
        return Pass(
            cpu_s=cpu,
            wall_s=wall,
            lists=matrix.n_users,
            failed=failed,
            digest=_digest(lines + ledger.snapshot_lines()),
            avg_ndcg=sum(values) / len(values),
            dpf=fairsort.dpf(ledger, catalog, self.config.notion),
        )


class OnlineRank:
    """``fairsort_online_step`` over a shuffled trace; per-request latency."""

    name = "online-rank"
    layers = ("catalog.ranking", "reranker.search", "reranker.pool", "reranker.step",
              "velocity.lifts", "exposure.ledger")
    rounds = 3

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.size = (60, 240, 6) if small else (1000, 2000, 50)
        self.seed = seed
        self.config = RunConfig(k=K, notion=FairnessNotion.QUALITY_WEIGHTED,
                                threshold=THRESHOLD, ratio=0.05)
        self.rows_per_load = 0

    def setup(self):
        users, items, providers = self.size
        return fairsort.generate_synthetic(users, items, providers, 1.5, self.seed)

    def prepare(self, data) -> None:
        matrix, _ = data
        self.trace = harness.make_trace(matrix.n_users, self.rounds, self.seed)
        self.pools = [
            frozenset(fairsort.candidate_pool(
                fairsort.original_ranking(matrix, user), self.config.ratio, K
            ).items)
            for user in range(matrix.n_users)
        ]

    def run_pass(self, data) -> Pass:
        matrix, catalog = data
        config = self.config
        state = fairsort.OnlineState.fresh(catalog, config.notion)
        step = fairsort.fairsort_online_step
        clock = time.thread_time_ns
        served, latencies, totals = [], [], []
        wall, start = time.perf_counter(), clock()
        for user in self.trace:
            sent = clock()
            rlist, state = step(state, matrix, catalog, user, config)
            latencies.append(clock() - sent)
            served.append(rlist)
            totals.append(state.ledger.exposure.sum())
        cpu, wall = (clock() - start) / 1e9, time.perf_counter() - wall

        failed, values, lines = 0, [], []
        unit = fairsort.total_exposure(1, K)
        for i, (user, rlist) in enumerate(zip(self.trace, served)):
            ok, value = _list_ok(matrix, user, rlist, config, state.ndcg_log[i][1])
            budget = (i + 1) * unit
            ok = ok and self.pools[user].issuperset(rlist.items)
            ok = ok and abs(float(totals[i]) - budget) <= 1e-9 * max(1.0, budget)
            failed += not ok
            values.append(value)
            lines.append(f"{user}\t{rlist.items}")
        if not ledger_balanced(state.ledger, fairsort.total_exposure(len(self.trace), K)):
            failed = len(self.trace)
        return Pass(
            cpu_s=cpu,
            wall_s=wall,
            lists=len(self.trace),
            failed=failed,
            digest=_digest(lines + state.ledger.snapshot_lines()),
            avg_ndcg=sum(values) / len(values),
            dpf=fairsort.dpf(state.ledger, catalog, config.notion),
            request_ms=[ns / 1e6 for ns in latencies],
        )


class CliOnlineFiles:
    """``fairsort run`` on TSV files: parsing, online cell, calibration, writers."""

    name = "cli-online-files"
    layers = ("catalog.load", "catalog.ranking", "reranker.search", "reranker.pool",
              "reranker.step", "velocity.lifts", "exposure.ledger", "quality.ndcg",
              "baselines.serve", "metrics.running", "harness.cell", "harness.report")
    rounds = 4
    density = 0.2
    # at the default 0.9 floor the sparse data leaves fairsort room to make
    # exposure almost exactly fair, and the tiny leftover dpf swings several
    # fold between seeds; at 0.97 the floor binds and dpf is steady
    threshold = 0.97

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        users, items, providers = (40, 80, 5) if small else (500, 1000, 40)
        self.seed = seed
        self.config = RunConfig(k=K, notion=FairnessNotion.UNIFORM, threshold=self.threshold)
        self.matrix_path = workdir / "matrix.tsv"
        self.provider_path = workdir / "providers.tsv"
        self.config_path = workdir / "config.json"
        self.out_dir = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)

        # sparse two-decimal scores: most pairs are absent (score 0) and the
        # rest collide often, so rankings are full of ties
        dense, catalog = fairsort.generate_synthetic(users, items, providers, 1.5, seed)
        rng = np.random.default_rng((seed, 7))
        scores = np.round(dense.scores, 2) * (rng.random(dense.scores.shape) < self.density)
        rows = [f"{u}\t{i}\t{float(scores[u, i])!r}" for u, i in zip(*np.nonzero(scores))]
        self.matrix_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self.provider_path.write_text(
            "".join(f"{i}\t{p}\n" for i, p in enumerate(catalog.provider_of.tolist())),
            encoding="utf-8",
        )
        self.rows_per_load = len(rows) + items
        self.config_path.write_text(json.dumps({
            "model": "fairsort",
            "scenario": "online",
            "k": K,
            "notion": self.config.notion.value,
            "threshold": self.threshold,
            "rounds": self.rounds,
            "seed": seed,
            "dataset": "files",
            "matrix": str(self.matrix_path),
            "provider_map": str(self.provider_path),
            "out": str(self.out_dir),
        }), encoding="utf-8")
        self.files = (
            f"timeseries_fairsort_K{K}.csv",
            f"ledger_fairsort_online_K{K}.tsv",
            "summary.csv",
        )

    def setup(self):
        return fairsort.load_dataset(self.matrix_path, self.provider_path)

    def prepare(self, data) -> None:
        """Replay the CLI's trace through the library for reference outputs."""
        matrix, catalog = data
        self.trace = harness.make_trace(matrix.n_users, self.rounds, self.seed)
        state = fairsort.OnlineState.fresh(catalog, self.config.notion)
        self.expected_ndcg = []
        for user in self.trace:
            rlist, state = fairsort.fairsort_online_step(state, matrix, catalog, user, self.config)
            ok, value = _list_ok(matrix, user, rlist, self.config, state.ndcg_log[-1][1])
            self.expected_ndcg.append(value if ok else None)
        self.expected_ledger = [line + "\n" for line in state.ledger.snapshot_lines()]

    def run_pass(self, data) -> Pass:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        printed = io.StringIO()
        wall, cpu = time.perf_counter(), time.thread_time()
        with contextlib.redirect_stdout(printed):
            code = harness.main(["run", "--config", str(self.config_path)])
        cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall

        steps = len(self.trace)
        listed = sorted(Path(line).name for line in printed.getvalue().split())
        if code != 0 or listed != sorted(self.files):
            return Pass(cpu_s=cpu, wall_s=wall, lists=steps, failed=steps, digest="",
                        avg_ndcg=0.0, dpf=0.0)

        contents = {name: (self.out_dir / name).read_bytes() for name in self.files}
        timeseries = list(csv.DictReader(io.StringIO(contents[self.files[0]].decode())))
        failed = abs(len(timeseries) - steps)
        for row, user, expected in zip(timeseries, self.trace, self.expected_ndcg):
            value = float(row["ndcg"])
            failed += not (
                int(row["user"]) == user and expected is not None and value == expected
            )
        ledger_lines = contents[self.files[1]].decode().splitlines(keepends=True)
        budget = fairsort.total_exposure(steps, K)
        exposure_total = sum(float(line.split("\t")[1]) for line in ledger_lines)
        if ledger_lines != self.expected_ledger or abs(exposure_total - budget) > 1e-9 * budget:
            failed = steps
        (summary,) = csv.DictReader(io.StringIO(contents["summary.csv"].decode()))

        h = hashlib.sha256()
        for name in self.files:
            h.update(name.encode() + b"\0" + contents[name])
        return Pass(
            cpu_s=cpu,
            wall_s=wall,
            lists=steps,
            failed=min(failed, steps),
            digest=h.hexdigest(),
            avg_ndcg=float(summary["avg_quality"]),
            dpf=float(summary[f"dpf_{self.config.notion.value}"]),
            out_bytes=sum(len(c) for c in contents.values()),
        )


WORKLOADS = {w.name: w for w in (OfflineProbe, OnlineRank, CliOnlineFiles)}
