"""Evaluation metrics computed from run traces.

Four headline figures: packet delivery ratio (gateway receptions over origin
transmission attempts), average end-to-end delay over delivered packets only,
attacker detection accuracy (fraction of suspicion events whose subject really
is an attacker), and per-attacker first response time (first suspicion minus
attack launch).  Permanent-block times are reported separately from
suspicions.  Aggregation over replications uses mean and a two-sided 95%
t-interval; undetected attackers enter FRT aggregation right-censored at
(run duration - attack start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class RunMetrics:
    pdr: float | None
    ae2ed_ms: float | None
    ada: float | None
    frt_ms: dict[int, int | None]  # per attacker; None = never suspected
    block_ms: dict[int, int | None]  # per attacker; first permanent block
    dio_sent: int
    dis_sent: int
    dao_sent: int
    data_sent: int
    data_delivered: int
    false_suspicions: int
    legit_blocks: int
    overflow_events: int
    loop_drops: int


def _attack_truth(trace) -> tuple[range, int]:
    """The attacker ids and the attack start, from the ``run_info`` record."""
    for rec in trace:
        if rec[2] == "run_info":
            _, _, _, _name, _seed, _sensors, n_attackers, start, _duration, first = rec
            return range(first, first + n_attackers), start
    raise ValueError("trace has no run_info record")


def _since_attack(first: dict[int, int], attackers: range, start: int) -> dict[int, int | None]:
    return {
        attacker: first[attacker] - start if attacker in first else None
        for attacker in attackers
    }


def from_trace(trace) -> RunMetrics:
    """The headline figures and the record counts in one pass."""
    attackers, attack_start_ms = _attack_truth(trace)
    counts = dict.fromkeys(("dio_sent", "dis_sent", "dao_sent", "data_sent", "data_delivered",
                            "loop_drop", "ids_overflow", "ids_suspect", "ids_block"), 0)
    delay_total = 0
    first = {"ids_suspect": {}, "ids_block": {}}  # attacker -> first record time
    wrong = {"ids_suspect": 0, "ids_block": 0}  # records naming a legitimate node
    for rec in trace:
        kind = rec[2]
        if kind in counts:
            counts[kind] += 1
            if kind == "data_delivered":
                delay_total += rec[0] - rec[5]
            elif kind in first:
                if rec[3] in attackers:
                    first[kind].setdefault(rec[3], rec[0])
                else:
                    wrong[kind] += 1
    sent, delivered, suspicions = (counts[k] for k in ("data_sent", "data_delivered", "ids_suspect"))
    return RunMetrics(
        pdr=delivered / sent if sent else None,
        ae2ed_ms=delay_total / delivered if delivered else None,
        ada=(suspicions - wrong["ids_suspect"]) / suspicions if suspicions else None,
        frt_ms=_since_attack(first["ids_suspect"], attackers, attack_start_ms),
        block_ms=_since_attack(first["ids_block"], attackers, attack_start_ms),
        dio_sent=counts["dio_sent"],
        dis_sent=counts["dis_sent"],
        dao_sent=counts["dao_sent"],
        data_sent=sent,
        data_delivered=delivered,
        false_suspicions=wrong["ids_suspect"],
        legit_blocks=wrong["ids_block"],
        overflow_events=counts["ids_overflow"],
        loop_drops=counts["loop_drop"],
    )


# ---------------------------------------------------------------------------
# aggregation over replications

# two-sided 95% critical values of Student's t for df 1-5, where the series
# below, rounded to 3 decimals, misses the textbook value at every df but 4
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571}
# above the table: sum(g_k / df**k), the Cornish-Fisher series of the quantile
# around z = 1.959964 (Abramowitz and Stegun 26.7.5); rounded, it gives the
# textbook value at df 6-30, and it is within 1e-7 of exact above 30
_T95_SERIES = (1.959964, 2.372271, 2.822499, 2.555850, 1.589534)


@dataclass(frozen=True)
class Aggregate:
    n: int
    mean: float | None
    ci95: float | None


def aggregate(values) -> Aggregate:
    """Mean and 95% confidence half-width, skipping undefined entries."""
    data = [v for v in values if v is not None]
    n = len(data)
    if n == 0:
        return Aggregate(0, None, None)
    mean = sum(data) / n
    if n == 1:
        return Aggregate(1, mean, None)
    df = n - 1
    var = sum((v - mean) ** 2 for v in data) / df
    t_crit = _T95.get(df) or round(sum(g / df**k for k, g in enumerate(_T95_SERIES)), 3)
    return Aggregate(n, mean, t_crit * math.sqrt(var / n))


def censored_frt_values(
    runs: list[RunMetrics],
    duration_ms: int,
    attack_start_ms: int,
    attacker: int | None = None,
) -> list[float]:
    """Per-(attacker, run) response times, censored at run end.

    All attackers by default, or only ``attacker``'s times when given.  A
    run that ends before the attack starts has no response time to censor,
    so it gives no values.
    """
    horizon = float(duration_ms - attack_start_ms)
    if horizon <= 0:
        return []
    out: list[float] = []
    for run in runs:
        for subject in sorted(run.frt_ms):
            if attacker is None or subject == attacker:
                value = run.frt_ms[subject]
                out.append(horizon if value is None else float(value))
    return out


# ---------------------------------------------------------------------------
# CSV schema (golden-pinned by tests)

def fmt(value, scale=1.0) -> str:
    """One CSV or plot number: scaled, six decimals, ``NA`` when undefined."""
    if value is None:
        return "NA"
    return f"{value * scale:.6f}"


def _per_attacker(values: dict[int, int | None]) -> str:
    rendered = ";".join(
        f"{attacker}={fmt(value, 0.001)}" for attacker, value in sorted(values.items())
    )
    return rendered or "none"


# runs.csv after its scenario and seed columns: (column, cell of one run)
RUN_CSV_COLUMNS = (
    ("pdr", lambda m: fmt(m.pdr)),
    ("ae2ed_s", lambda m: fmt(m.ae2ed_ms, 0.001)),
    ("ada", lambda m: fmt(m.ada)),
    ("frt_s", lambda m: _per_attacker(m.frt_ms)),
    ("block_s", lambda m: _per_attacker(m.block_ms)),
) + tuple(
    (count, lambda m, count=count: str(getattr(m, count)))
    for count in ("dio_sent", "dis_sent", "dao_sent", "data_sent", "data_delivered",
                  "false_suspicions", "legit_blocks", "overflow_events", "loop_drops")
)
RUN_CSV_HEADER = ",".join(["scenario", "seed"] + [column for column, _ in RUN_CSV_COLUMNS])


def run_csv_row(label: str, seed: int, m: RunMetrics) -> str:
    return ",".join([label, str(seed)] + [cell(m) for _, cell in RUN_CSV_COLUMNS])


def summarize(runs: list[RunMetrics], duration_ms: int, attack_start_ms: int) -> dict[str, str]:
    """One variant's summary.csv cells by column, in file order, each aggregate made once."""
    pdr = aggregate([m.pdr for m in runs])
    delay = aggregate([m.ae2ed_ms for m in runs])
    ada = aggregate([m.ada for m in runs])
    frt = aggregate(censored_frt_values(runs, duration_ms, attack_start_ms))
    return {
        "runs": str(len(runs)),
        "pdr_mean": fmt(pdr.mean),
        "pdr_ci95": fmt(pdr.ci95),
        "ae2ed_mean_s": fmt(delay.mean, 0.001),
        "ae2ed_ci95_s": fmt(delay.ci95, 0.001),
        "ada_mean": fmt(ada.mean),
        "ada_ci95": fmt(ada.ci95),
        "frt_mean_s": fmt(frt.mean, 0.001),
        "frt_ci95_s": fmt(frt.ci95, 0.001),
        "detected_attackers": str(sum(v is not None for m in runs for v in m.frt_ms.values())),
        "attacker_slots": str(sum(len(m.frt_ms) for m in runs)),
        "false_suspicions_mean": fmt(aggregate([float(m.false_suspicions) for m in runs]).mean),
        "legit_blocks_total": str(sum(m.legit_blocks for m in runs)),
    }


# a variant with no runs still names every column
AGGREGATE_CSV_HEADER = ",".join(["scenario", *summarize([], 0, 0)])


def aggregate_csv_row(label: str, summary: dict[str, str]) -> str:
    return ",".join([label, *summary.values()])
