"""Correctness gate: every request must reproduce its pinned known answer.

`answers.json` maps a request key (its argv joined by spaces) to the exit
code, the list of report statuses and the SHA-256 of the stdout bytes the
seed commit produced.  The envelope is canonical JSON, so any change in a
report shows as a different digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

ANSWERS_PATH = Path(__file__).with_name("answers.json")


def key(argv):
    return " ".join(argv)


def load_answers(path=ANSWERS_PATH):
    with open(path) as fh:
        answers = json.load(fh)
    for name, pinned in answers.items():
        if pinned["exit"] == 0 and any(s != "verified" for s in pinned["statuses"]):
            raise ValueError(f"pinned answer of {name!r} exits 0 with an unverified report")
    return answers


def statuses(stdout: bytes):
    """Report statuses of an envelope; [] when stdout holds none."""
    if not stdout:
        return []
    body = json.loads(stdout)
    return [report.get("status") for report in body.get("reports", [])]


def answer_of(code, stdout: bytes):
    return {
        "exit": code,
        "statuses": statuses(stdout),
        "sha256": hashlib.sha256(stdout).hexdigest(),
    }


def check(answers, argv, expected_exit, code, stdout):
    """None when the outcome matches the known answer, else the reason it does not.

    Equal digests imply equal statuses, so the envelope is parsed only to
    explain a mismatch.
    """
    pinned = answers.get(key(argv))
    if pinned is None:
        return "no pinned answer"
    if code != expected_exit or code != pinned["exit"]:
        return f"exit {code}, expected {expected_exit}"
    if hashlib.sha256(stdout).hexdigest() == pinned["sha256"]:
        return None
    try:
        got = statuses(stdout)
    except ValueError:
        return "stdout is not a JSON envelope"
    if got != pinned["statuses"]:
        return f"statuses {got}, expected {pinned['statuses']}"
    return "envelope bytes differ from the pinned digest"
