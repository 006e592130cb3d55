"""Tests of the benchmark itself: generator, evaluator, checker, tracer, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracer
import verify
from evaluator import Tensors, first_failure
from bolalg import catalog, check_axioms
from bolalg.cli import main as bol
from bolalg.errors import DocumentError
from bolalg.fileio import emit_bol_document, parse_bol_document

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WORKLOADS = sorted(gen.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = gen.WORKLOADS[workload](7)
    again = gen.WORKLOADS[workload](7)
    other = gen.WORKLOADS[workload](8)
    assert [(d.name, d.text, d.expect) for d in first] == [(d.name, d.text, d.expect) for d in again]
    assert [d.text for d in first] != [d.text for d in other]


@pytest.mark.parametrize("name", ["sl2bol", "so3bol", "lts_sl2", "heis3bol", "solv2", "abelian4"])
def test_basis_change_keeps_the_axioms_and_inverts(name):
    B = catalog(name)
    S = gen.random_basis(random.Random(name), B.n)
    moved = gen.change_basis(B, S)
    assert check_axioms(moved).ok
    assert first_failure(moved) is None
    back = [[int(c) for c in row] for row in gen.invert(S)]
    restored = gen.change_basis(moved, back, B.labels)
    assert (restored.T, restored.R) == (B.T, B.R)


def test_symmetric_matrices_form_a_lie_triple_system():
    for m in (2, 3):
        B = gen.symmetric_lts(m)
        assert B.n == m * (m + 1) // 2
        assert first_failure(B) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_documents_parse_back(workload):
    for doc in gen.WORKLOADS[workload](3):
        if doc.expect["exit"] == 3:
            with pytest.raises(DocumentError):
                parse_bol_document(doc.text)
            continue
        B, name = parse_bol_document(doc.text)
        assert B.n == doc.dim
        assert emit_bol_document(B, name) == doc.text


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bol(argv)
    return code, out.getvalue(), err.getvalue()


def _check_job(tmp_path, doc) -> tuple[dict, int, str, str]:
    path = tmp_path / "doc.json"
    path.write_text(doc.text, encoding="utf-8")
    job = {"kind": "cli", "argv": ["check", "--json", str(path)], "dim": doc.dim, "text": doc.text, "expect": doc.expect}
    return (job, *_cli(job["argv"]))


def test_checker_accepts_a_right_report_and_flags_a_wrong_one(tmp_path):
    B = gen.change_basis(catalog("sl2bol"), gen.signed_permutation(random.Random(1), 3))
    doc = gen.Doc("sl2", emit_bol_document(B, "sl2"), 3, {"exit": 0, "pass": True})
    job, code, out, err = _check_job(tmp_path, doc)
    assert verify.check(job, code, out, err) is None
    assert verify.check(job, 1, out, err) is not None
    assert verify.check(job, None, out, err) == "timed out"
    wrong = json.loads(out)
    wrong["identities"]["A5"]["failures"] = 3
    assert verify.check(job, code, json.dumps(wrong), err) is not None


def test_checker_recomputes_the_witness_defect(tmp_path):
    rng = random.Random(5)
    while True:
        bad, _ = gen.mutate(catalog("so3bol"), rng)
        failing = first_failure(bad)
        if failing is not None:
            break
    doc = gen.Doc("near", emit_bol_document(bad, "near"), 3, {"exit": 1, "pass": False, "fails": failing})
    job, code, out, err = _check_job(tmp_path, doc)
    assert code == 1
    assert verify.check(job, code, out, err) is None
    report = json.loads(out)
    name = failing[0]
    defect = report["identities"][name]["defect"]
    report["identities"][name]["defect"] = [str(int(defect[0]) + 1)] + defect[1:]
    assert "defect" in verify.check(job, code, json.dumps(report), err)
    report["identities"][name]["defect"] = defect
    report["identities"][name]["witness"] = [0] * len(failing[1])
    assert verify.check(job, code, json.dumps(report), err) is not None


def test_evaluator_matches_check_axioms_on_random_constants():
    B = gen.random_constants(random.Random(2), 3)
    t = Tensors.from_document(emit_bol_document(B, "r"))
    for c in check_axioms(B).identities:
        if not c.ok and c.name in ("A3", "A4", "A5"):
            assert t.defect(c.name, c.witness) == list(c.defect)


def test_checker_flags_a_wrong_session_answer():
    doc = gen.session_dense(1)[3]  # heis3bol + solv2
    job = {"kind": "session", "dim": doc.dim, "text": doc.text, "expect": doc.expect}
    right = {key: doc.expect[key] for key in verify.SESSION_KEYS}
    right.update(dim=doc.dim, simple="no", simple_witness_dim=1, report_components=doc.expect["components"])
    assert verify.check(job, 0, json.dumps(right), "") is None
    assert verify.decided(job, 0, json.dumps(right)) == (2, 2)
    for key, value in (("envelope_dim", 99), ("radical_decided", False), ("simple", "yes")):
        assert verify.check(job, 0, json.dumps(dict(right, **{key: value})), "") is not None


def test_self_time_subtracts_child_spans():
    dump = {
        "names": ["core.check_axioms", "linalg.rref"],
        "spans": [[0, 0.0, 1.0, -1], [1, 0.25, 0.5, 0], [1, 0.5, 0.75, 0]],
        "counts": {"core.binary.calls": 4},
    }
    got = tracer.summarize([dump, dump])
    assert got["core.check_axioms.self_s"] == pytest.approx(1.0)
    assert got["linalg.rref.self_s"] == pytest.approx(1.0)
    assert got["linalg.rref.calls"] == 4
    assert got["core.self_s"] == pytest.approx(1.0)
    assert got["core.binary.calls"] == 8


def test_traced_job_wraps_functions_imported_by_name(tmp_path):
    B = gen.change_basis(catalog("heis3bol"), gen.signed_permutation(random.Random(3), 3))
    doc, spans = tmp_path / "doc.json", tmp_path / "spans.json"
    doc.write_text(emit_bol_document(B, "heis"), encoding="utf-8")
    argv = [sys.executable, str(run.HERE / "job.py"), "session", str(doc), "--spans", str(spans)]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(run.SRC)), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["envelope_dim"] == 4
    got = tracer.summarize([json.loads(spans.read_text(encoding="utf-8"))])
    # check_axioms is reached through core.require_verified, which holds it by name
    assert got["core.check_axioms.calls"] > got["core.check_axioms.unique"] >= 1
    assert got["envelope.envelope.unique"] >= 1
    assert got["linalg.rref.calls"] >= got["linalg.span.calls"] > 0
    assert got["core.ternary.calls"] > 0 and got["lie.bracket.calls"] > 0
    assert got["fileio.bytes_parsed"] == len(doc.read_bytes())
    assert 0 < got["radical.certified_ratio"] <= 1


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_the_benchmark_file_agree():
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(tracer.PER_LAYER) + [("trace.overhead_ratio", "ratio")]
    names = [n for n, _ in e2e + layers] + [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
