"""Frozen traces of every bundled scenario.

Each ``tests/golden/<name>.trace`` holds the exact bytes ``run()`` emits
for the bundled scenario of that name. Any change to scheduling order,
blockers, governance or trace formatting shows up here as a diff. After a
deliberate behaviour change, regenerate with

    PYTHONPATH=src python -c "from pathlib import Path; \\
    from commitsched.scenarios import bundled_names, load_text; \\
    from commitsched.scenario import parse; from commitsched.simulator import run; \\
    [Path('tests/golden', n + '.trace').write_bytes( \\
        run(parse(load_text(n))).trace.text().encode()) for n in bundled_names()]"

and review the diff line by line.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

import pytest

from commitsched.cli import main
from commitsched.scenario import parse
from commitsched.scenarios import bundled_names, load_text
from commitsched.simulator import run
from commitsched.trace import EventKind, parse_event

GOLDEN = Path(__file__).parent / "golden"
NAMES = bundled_names()


def _trace(name: str) -> str:
    return run(parse(load_text(name), source=name)).trace.text()


def test_every_bundled_scenario_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.trace")) == sorted(NAMES)
    assert len(NAMES) == 16


@pytest.mark.parametrize("name", NAMES)
def test_trace_matches_golden_byte_for_byte(name):
    assert _trace(name).encode("utf-8") == (GOLDEN / f"{name}.trace").read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_golden_lines_parse_back_to_themselves(name):
    *lines, end = (GOLDEN / f"{name}.trace").read_text(encoding="utf-8").splitlines()
    assert end.split(" ")[1] == "END"
    assert [parse_event(line).line() for line in lines] == lines


@pytest.mark.parametrize("name", NAMES)
def test_trace_events_are_its_lines_parsed(name):
    trace = run(parse(load_text(name), source=name)).trace
    events = trace.events
    assert [e.line() for e in events] == trace.lines()[:-1]
    assert trace.ok is all(e.kind is not EventKind.VIOLATION for e in events)


@pytest.mark.parametrize("name", [n for n in NAMES if n.endswith("-breach")])
def test_breach_scenario_fails_on_its_own_responsibility(name):
    lines = _trace(name).splitlines()
    resp = name.split("-")[0]
    breached = {m.group(1) for line in lines if (m := re.search(r" Violation .* resp=(resp\d)", line))}
    assert breached == {resp}
    assert lines[-1].endswith("END ok=false")


@pytest.mark.parametrize(
    "name", [n for n in NAMES if n.endswith("-compliant") or n.startswith(("rules-", "policy-"))]
)
def test_compliant_scenario_ends_ok(name):
    lines = _trace(name).splitlines()
    assert not any(" Violation " in line for line in lines)
    assert lines[-1].endswith("END ok=true")


def test_cli_golden_flag_accepts_match_and_rejects_drift(tmp_path, capsys):
    scn = resources.files("commitsched.scenarios").joinpath("policy-fcfs.scn")
    golden = GOLDEN / "policy-fcfs.trace"
    assert main(["run", str(scn), "--golden", str(golden)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    drifted = tmp_path / "drifted.trace"
    drifted.write_bytes(golden.read_bytes().replace(b"END ok=true", b"END ok=false"))
    assert main(["run", str(scn), "--golden", str(drifted)]) == 1
    assert "-t=6 END ok=false" in capsys.readouterr().err
