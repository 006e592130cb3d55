import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def run_bol(*args, cwd=None):
    # module mode keeps the tests independent of console-script installation
    cmd = [sys.executable, "-m", "bolalg.cli", *args]
    return subprocess.run(cmd, text=True, capture_output=True, cwd=cwd)


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(no_floats(v) for v in obj)
    return True


def test_check_catalog_file_passes(tmp_path):
    f = tmp_path / "sl2bol.json"
    assert run_bol("examples", "sl2bol", "--emit", str(f)).returncode == 0
    r = run_bol("check", str(f))
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout


def test_check_mutated_file_fails_with_witness(tmp_path):
    f = tmp_path / "sl2bol.json"
    run_bol("examples", "sl2bol", "--emit", str(f))
    doc = json.loads(f.read_text())
    doc["ternary"][0][-1] = "5"  # bump one coefficient
    f.write_text(json.dumps(doc))
    r = run_bol("check", str(f))
    assert r.returncode == 1
    assert "FAIL" in r.stdout and "witness" not in r.stderr


def test_check_malformed_file_exit_3():
    r = run_bol("check", str(FIXTURES / "malformed.json"))
    assert r.returncode == 3
    assert "input error" in r.stderr


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00{}", b"[" * 100_000, b'{"name": "x", "dim": 2, "binary": [[0, 1, 0, ' + b"7" * 5000 + b"]]}"],
    ids=["not-utf8", "deeply-nested", "long-integer"],
)
def test_unreadable_input_is_an_input_error_not_a_traceback(content, tmp_path):
    f = tmp_path / "doc.json"
    f.write_bytes(content)
    r = run_bol("check", str(f))
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.startswith("input error")


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_a_result_past_the_digit_limit_is_an_input_error(extra, tmp_path):
    # the document parses, but the defect of its failing identity has twice the digits
    big = "7" * 3000
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"name": "big", "dim": 2, "binary": [[0, 1, 0, big]], "ternary": [[0, 1, 0, 0, big]]}))
    r = run_bol("check", str(f), *extra)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.startswith("input error") and "Traceback" not in r.stderr


@pytest.mark.parametrize("cmd", ["info", "radical", "envelope", "decompose"])
def test_analysis_commands_refuse_a_non_bol_document(cmd):
    r = run_bol(cmd, str(FIXTURES / "not_a_bol_algebra.json"))
    assert (r.returncode, r.stdout) == (1, "")
    assert "not a Bol algebra" in r.stderr and "Traceback" not in r.stderr


def test_check_non_bol_file_exit_1():
    r = run_bol("check", str(FIXTURES / "not_a_bol_algebra.json"))
    assert r.returncode == 1
    assert "A5" in r.stdout


def test_check_json_output(tmp_path):
    f = tmp_path / "so3bol.json"
    run_bol("examples", "so3bol", "--emit", str(f))
    r = run_bol("check", str(f), "--json")
    data = json.loads(r.stdout)
    assert data["pass"] is True
    assert set(data["identities"]) == {"A1", "A2", "A3", "A4", "A5"}
    assert no_floats(data)


def test_info_solv2(tmp_path):
    f = tmp_path / "solv2.json"
    run_bol("examples", "solv2", "--emit", str(f))
    r = run_bol("info", str(f), "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["solvable"] is True
    assert data["series"]["bol"]["dims"] == [2, 1, 0]
    assert data["form_ranks"] == {"trace": 0, "envelope": 0}
    assert no_floats(data)


def test_info_abelian3(tmp_path):
    f = tmp_path / "abelian3.json"
    run_bol("examples", "abelian3", "--emit", str(f))
    r = run_bol("info", str(f), "--json")
    data = json.loads(r.stdout)
    assert data["center"]["dim"] == 3
    assert all(c == "0" for row in data["form_envelope"] for c in row)


def test_info_rejects_non_bol():
    r = run_bol("info", str(FIXTURES / "not_a_bol_algebra.json"))
    assert r.returncode == 1


def test_radical_mixed(tmp_path):
    f = tmp_path / "mixed.json"
    run_bol("examples", "mixed", "--emit", str(f))
    r = run_bol("radical", str(f), "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["decided"] is True
    assert data["radical"]["dim"] == 2
    assert data["strategy"] == "agreement"


def test_radical_undecided_fixture_exit_2():
    r = run_bol("radical", str(FIXTURES / "undecided_radical.json"), "--json")
    assert r.returncode == 2
    data = json.loads(r.stdout)
    assert data["decided"] is False
    assert len(data["strategies"]) == 2
    assert all(s["candidate_dim"] is not None for s in data["strategies"])


def test_envelope_solv2_emits_lie_file(tmp_path):
    f = tmp_path / "solv2.json"
    out = tmp_path / "env.json"
    run_bol("examples", "solv2", "--emit", str(f))
    r = run_bol("envelope", str(f), "--emit", str(out), "--json")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["total_dim"] == 3 and data["lie_solvable"] is True
    emitted = json.loads(out.read_text())
    assert emitted["dim"] == 3 and emitted["b_dim"] == 2
    assert len(emitted["h_basis"]) == 1


def test_envelope_round_trip_reparses(tmp_path):
    from bolalg.fileio import parse_lie_document

    f = tmp_path / "sl2bol.json"
    out = tmp_path / "env.json"
    run_bol("examples", "sl2bol", "--emit", str(f))
    run_bol("envelope", str(f), "--emit", str(out))
    L, name, b_dim, h_basis = parse_lie_document(out.read_text())
    assert L.m == 6 and b_dim == 3 and len(h_basis) == 3


@pytest.mark.parametrize("cmd", ["examples", "envelope"])
def test_emit_to_a_path_that_cannot_be_written_is_an_input_error(cmd, tmp_path):
    f = tmp_path / "solv2.json"
    run_bol("examples", "solv2", "--emit", str(f))
    target = tmp_path / "no-such-dir" / "out.json"
    r = run_bol(cmd, "solv2" if cmd == "examples" else str(f), "--emit", str(target))
    assert r.returncode == 3
    assert r.stderr.startswith("input error"), r.stderr
    assert not target.exists()


def test_decompose_two_summands(tmp_path):
    from bolalg.catalog import catalog
    from bolalg.core import direct_sum
    from bolalg.fileio import emit_bol_document

    f = tmp_path / "two.json"
    f.write_text(emit_bol_document(direct_sum(catalog("sl2bol"), catalog("so3bol")), "two"))
    r = run_bol("decompose", str(f), "--json")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["certified"] is True
    assert sorted(c["dim"] for c in data["components"]) == [3, 3]


def test_decompose_solv2_exit_2(tmp_path):
    f = tmp_path / "solv2.json"
    run_bol("examples", "solv2", "--emit", str(f))
    r = run_bol("decompose", str(f))
    assert r.returncode == 2
    assert "preconditions" in r.stderr


def test_examples_round_trip_byte_identical(tmp_path):
    from bolalg.catalog import catalog
    from bolalg.fileio import emit_bol_document, parse_bol_document

    for name in ("sl2bol", "mixed", "lts_sl2"):
        f = tmp_path / f"{name}.json"
        r = run_bol("examples", name, "--emit", str(f))
        assert r.returncode == 0
        text = f.read_text()
        B, parsed = parse_bol_document(text)
        assert emit_bol_document(B, parsed) == text
        assert text == emit_bol_document(catalog(name), name)


def test_examples_unknown_name_exit_3():
    r = run_bol("examples", "quux")
    assert r.returncode == 3


def test_examples_stdout_without_emit():
    r = run_bol("examples", "abelian2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["dim"] == 2


def test_radical_prop1_form_flag(tmp_path):
    f = tmp_path / "sl2bol.json"
    run_bol("examples", "sl2bol", "--emit", str(f))
    r = run_bol("radical", str(f), "--form", "prop1", "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["radical"]["dim"] == 0


def test_usage_errors_exit_3_with_usage_on_stderr():
    # exit 2 means "undecided", so a mistyped command line must not produce it
    for args in (("check",), ("check", "--bogus", "x.json"), ("frobnicate",)):
        r = run_bol(*args)
        assert r.returncode == 3, args
        assert r.stdout == "" and r.stderr.startswith("usage: bol"), args


def test_help_exits_0():
    for args in (("--help",), ("check", "--help")):
        r = run_bol(*args)
        assert r.returncode == 0 and r.stdout.startswith("usage: bol"), args


# The flags each subcommand's handler reads; the CLI offers these and no other.
ROWS = {
    "check": ("--json",),
    "info": ("--json", "--form", "--invariance"),
    "radical": ("--json", "--form"),
    "envelope": ("--json", "--emit"),
    "decompose": ("--json", "--form", "--invariance"),
    "examples": ("--emit",),
}
FLAG_VALUES = {
    "--json": (),
    "--emit": ("out.json",),
    "--seed": ("5",),
    "--form": ("prop1",),
    "--invariance": ("paper",),
    "--ideal-mode": ("def3",),
}
UNREAD = [(cmd, flag) for cmd, row in ROWS.items() for flag in FLAG_VALUES if flag not in row]


@pytest.mark.parametrize("cmd,flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(cmd, flag, tmp_path, capsys):
    from bolalg.cli import main

    target = "abelian2" if cmd == "examples" else str(FIXTURES / "undecided_radical.json")
    values = [str(tmp_path / v) if flag == "--emit" else v for v in FLAG_VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        main([cmd, target, flag, *values])
    out, err = capsys.readouterr()
    assert exc.value.code == 3
    assert out == "" and err.startswith("usage: bol") and f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd,flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
def test_an_unread_flag_shows_the_usage_of_its_subcommand(cmd, flag, tmp_path, capsys):
    from bolalg.cli import main

    target = "abelian2" if cmd == "examples" else str(FIXTURES / "undecided_radical.json")
    values = [str(tmp_path / v) if flag == "--emit" else v for v in FLAG_VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        main([cmd, target, flag, *values])
    _, err = capsys.readouterr()
    assert exc.value.code == 3
    assert err.startswith(f"usage: bol {cmd} ")
    assert f"bol {cmd}: error: unrecognized arguments: {' '.join([flag, *values])}" in err


@pytest.mark.parametrize("cmd", ROWS)
def test_help_lists_exactly_the_flags_the_subcommand_reads(cmd, capsys):
    from bolalg.cli import main

    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert re.findall(r"^  (?:-h, )?(--[a-z-]+)", out, re.M) == ["--help", *ROWS[cmd]]


def test_decompose_reports_an_undecided_component(tmp_path):
    # sl2bol over Q(sqrt 2) is simple, but the simplicity search cannot certify it
    from support import restrict_scalars

    from bolalg.catalog import catalog
    from bolalg.fileio import emit_bol_document

    f = tmp_path / "sl2bol_sqrt2.json"
    f.write_text(emit_bol_document(restrict_scalars(catalog("sl2bol"), 2), "sl2bol_sqrt2"), encoding="utf-8")
    r = run_bol("decompose", str(f), "--json")
    assert r.returncode == 2, r.stderr
    doc = json.loads(r.stdout)
    assert not doc["certified"] and [c["dim"] for c in doc["components"]] == [6]
    assert doc["notes"] == ["component of dimension 6: simplicity undecided"]
