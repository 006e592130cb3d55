"""One benchmark job, run in a fresh interpreter so no job sees another's caches.

    python3 perfbench/job.py session DOC [--spans OUT]
    python3 perfbench/job.py cli --spans OUT -- ARGS...

`session` runs the library analysis session on one document and prints
its answers as one JSON line.  `cli` runs `bolalg.cli.main(ARGS)` in
process; the untraced benchmark runs `python3 -m bolalg.cli` instead, so
this form exists only to trace the command.  With `--spans`, the
`bolalg` functions are wrapped before the job starts and the spans are
written to OUT when it ends.  The caller puts the repository's `src` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def session(text: str) -> dict:
    """parse -> axioms -> center/series -> forms -> envelope -> radical
    -> simplicity -> decomposition -> structure report."""
    import bolalg
    import bolalg.fileio
    from bolalg.errors import PreconditionViolation

    B, name = bolalg.fileio.parse_bol_document(text)
    report = bolalg.check_axioms(B)
    full = bolalg.full_space(B.n)
    center = bolalg.center(B)
    series = bolalg.bol_derived_series(B, full)
    bolalg.trace_form(B)
    bolalg.envelope_form(B)
    E = bolalg.envelope(B)
    cert = bolalg.radical(B)
    simple = bolalg.is_simple(B)
    try:
        dec = bolalg.decompose_semisimple(B)
    except PreconditionViolation:
        components, certified = None, None
    else:
        components, certified = sorted(c.n for c in dec.components), dec.certified
    rep = bolalg.structure_report(B)
    return {
        "name": name,
        "dim": B.n,
        "pass": report.ok,
        "center_dim": center.dim,
        "solvable": series.solvable,
        "envelope_dim": E.total_dim,
        "radical_dim": cert.radical.dim if cert.radical is not None else None,
        "radical_decided": cert.decided,
        "simple": simple.status,
        "simple_witness_dim": simple.witness.dim if simple.witness is not None else None,
        "components": components,
        "decomposition_certified": certified,
        "report_components": sorted(rep.component_dims) if rep.decomposition_ran else None,
    }


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    spans = None
    if "--spans" in rest:
        at = rest.index("--spans")
        spans = rest[at + 1]
        rest = rest[:at] + rest[at + 2 :]
    if rest and rest[0] == "--":
        rest = rest[1:]

    tracer = None
    if spans is not None:
        t0 = time.perf_counter()
        import bolalg.cli  # noqa: F401 - timed: what every `bol` invocation pays

        import_s = time.perf_counter() - t0
        from tracer import Tracer, install

        tracer = Tracer()
        tracer.count("cli.import_s", import_s)
        install(tracer)
    try:
        if kind == "session":
            print(json.dumps(session(Path(rest[0]).read_text(encoding="utf-8"))))
            return 0
        if kind == "cli":
            import bolalg.cli

            return bolalg.cli.main(rest)
        raise SystemExit(f"unknown job kind {kind!r}")
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
