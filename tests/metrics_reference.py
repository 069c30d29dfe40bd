"""One-figure reference metrics, the oracle for ``rplsim.metrics.from_trace``.

Each function reads a trace (a sequence of record tuples) and computes one
headline figure on its own pass.  The module imports nothing from ``rplsim``
and shares no code with it, so a fault in ``from_trace`` or its helpers
cannot hide in both sides of the comparison.
"""

from __future__ import annotations


def _attack(trace) -> tuple[list[int], int]:
    """The attacker addresses, in order, and the attack launch time (ms)."""
    for rec in trace:
        if rec[2] == "run_info":
            n_attackers, attack_start_ms, first_attacker = rec[6], rec[7], rec[9]
            return list(range(first_attacker, first_attacker + n_attackers)), attack_start_ms
    raise ValueError("trace has no run_info record")


def compute_pdr(trace) -> float | None:
    sent = sum(1 for rec in trace if rec[2] == "data_sent")
    if sent == 0:
        return None
    received = sum(1 for rec in trace if rec[2] == "data_delivered")
    return received / sent


def compute_ae2ed(trace) -> float | None:
    """Mean delivery delay in milliseconds; lost packets are ignored."""
    delays = [rec[0] - rec[5] for rec in trace if rec[2] == "data_delivered"]
    if not delays:
        return None
    return sum(delays) / len(delays)


def compute_ada(trace) -> float | None:
    attackers = set(_attack(trace)[0])
    true_hits = false_hits = 0
    for rec in trace:
        if rec[2] == "ids_suspect":
            if rec[3] in attackers:
                true_hits += 1
            else:
                false_hits += 1
    total = true_hits + false_hits
    if total == 0:
        return None
    return true_hits / total


def compute_frt(trace, kind: str = "ids_suspect") -> dict[int, int | None]:
    """First ``kind`` record about each attacker minus attack launch (ms).

    The default gives the first response time; ``kind="ids_block"`` gives
    the first permanent-block time.  An attacker with no such record maps
    to None.
    """
    attackers, start = _attack(trace)
    response: dict[int, int | None] = dict.fromkeys(attackers)
    for rec in trace:
        if rec[2] == kind and rec[3] in response and response[rec[3]] is None:
            response[rec[3]] = rec[0] - start
    return response
