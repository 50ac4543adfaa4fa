"""Correctness gates. Each returns a list of failure messages (empty when
the gate holds); run.py counts every message as a failed check, which
feeds the error rate and makes the command exit non-zero."""

from __future__ import annotations

import hashlib
import math


def log_digest(log):
    """Bitwise digest of a sequence of numbers (a loss log)."""
    return hashlib.sha256(
        ",".join(float(x).hex() for x in log).encode()).hexdigest()


def finite_losses(session):
    bad = [x for x in session["losses"] if not math.isfinite(x)]
    return [f"{len(bad)} non-finite losses"] if bad else []


def same_log(session, reference, what):
    """The session's log is bitwise the reference's."""
    if log_digest(session["log"]) != log_digest(reference["log"]):
        return [f"loss log differs from {what}"]
    return []


def checkpoint_round_trip(session):
    """State digests taken before save and after load are all equal."""
    if len(set(session["state_digests"])) != 1:
        return ["checkpoint round trip changed parameters or moments"]
    return []


def unit_interval(session):
    bad = [v for v in session["unit_metrics"] if not 0.0 <= v <= 1.0]
    return [f"probe metric outside [0, 1]: {bad}"] if bad else []


def session_gates(session, reference):
    """Every per-session gate; the reference is the run's warm-up session,
    which used the same seed."""
    return (finite_losses(session)
            + same_log(session, reference, "the warm-up session's")
            + checkpoint_round_trip(session)
            + unit_interval(session))


SESSION_CHECKS = 4
