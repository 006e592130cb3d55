"""Answer checker: compares a job's exit code and output with its expectation.

`check(job, code, out, err)` returns None for a right answer and a
one-line reason otherwise.  The expectation comes from the generator;
for documents that are not Bol algebras the defect at every reported
witness is recomputed with the benchmark's own evaluator.
"""

from __future__ import annotations

import json
from fractions import Fraction

from evaluator import IDENTITY_ARITY, Tensors

EXIT_UNDECIDED = 2
SESSION_KEYS = ("pass", "envelope_dim", "radical_dim", "radical_decided", "center_dim", "solvable", "components")


def check(job: dict, code: int | None, out: str, err: str) -> str | None:
    if code is None:
        return "timed out"
    expect = job["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}: {err.strip()[-200:]}"
    if expect["exit"] == 3:
        return None if not out and err.startswith("input error") else "malformed input not reported as an input error"
    if job["kind"] == "session":
        return _check_session(job, out)
    if job["argv"][0] == "check":
        return _check_report(job, out)
    # `radical` on a document that is not a Bol algebra refuses on stderr
    return None if not out and "not a Bol algebra" in err else "radical did not refuse a non-Bol document"


def _last_json(out: str):
    """The whole output as JSON (`--json` reports), else its last line."""
    for text in (out, out.strip().rsplit("\n", 1)[-1]):
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            continue
    return None


def _check_session(job: dict, out: str) -> str | None:
    got = _last_json(out)
    if not isinstance(got, dict):
        return "session printed no result"
    expect = job["expect"]
    for key in SESSION_KEYS:
        if got.get(key) != expect[key]:
            return f"{key} = {got.get(key)!r}, expected {expect[key]!r}"
    # every session algebra has a proper nonzero ideal by construction
    if got["simple"] == "yes":
        return "is_simple certified an algebra with a proper ideal"
    if got["simple"] == "no" and not (got["simple_witness_dim"] and 0 < got["simple_witness_dim"] < got["dim"]):
        return "is_simple said no without a proper ideal as witness"
    if got["report_components"] != expect["components"]:
        return f"structure report components {got['report_components']!r}, expected {expect['components']!r}"
    return None


def decided(job: dict, code: int | None, out: str) -> tuple[int, int]:
    """(decided results, results) of one finished job."""
    if job["kind"] != "session":
        return int(code is not None and code != EXIT_UNDECIDED), 1
    got = _last_json(out) or {}
    flags = [got.get("radical_decided") is True, got.get("simple") in ("yes", "no")]
    if got.get("components") is not None:
        flags.append(got.get("decomposition_certified") is True)
    return sum(flags), len(flags)


def _check_report(job: dict, out: str) -> str | None:
    got = _last_json(out)
    if not isinstance(got, dict) or "identities" not in got:
        return "check printed no report"
    expect = job["expect"]
    if got.get("pass") is not expect["pass"] or got.get("dim") != job["dim"]:
        return f"pass={got.get('pass')} dim={got.get('dim')}, expected pass={expect['pass']} dim={job['dim']}"
    ids = got["identities"]
    if list(ids) != ["A1", "A2", "A3", "A4", "A5"]:
        return f"identities {list(ids)}"
    if not (ids["A1"]["ok"] and ids["A2"]["ok"]):
        return "A1/A2 reported failing, but documents cannot violate them"
    tensors = Tensors.from_document(job["text"]) if not expect["pass"] else None
    for name, rep in ids.items():
        if rep["ok"]:
            if rep["failures"] != 0 or rep["witness"] is not None:
                return f"{name} ok but reports failures or a witness"
            continue
        if expect["pass"]:
            return f"{name} fails on a Bol algebra"
        witness = rep["witness"]
        if not (isinstance(witness, list) and len(witness) == IDENTITY_ARITY[name] and rep["failures"] >= 1):
            return f"{name}: malformed witness {witness!r}"
        want = tensors.defect(name, tuple(witness))
        if [Fraction(c) for c in rep["defect"]] != want or not any(want):
            return f"{name}: defect at {witness} is {rep['defect']}, evaluator gives {[str(c) for c in want]}"
    if not expect["pass"]:
        # the generator found the first failure in sweep order with the evaluator
        name, first = expect["fails"]
        earlier = [x for x in ids if x < name and not ids[x]["ok"]]
        if earlier:
            return f"{earlier[0]} reported failing, but the evaluator finds no failure before {name}"
        rep = ids[name]
        if rep["ok"] or tuple(rep["witness"]) != tuple(first):
            return f"{name}: witness {rep['witness']}, expected the first failing tuple {list(first)}"
    return None
