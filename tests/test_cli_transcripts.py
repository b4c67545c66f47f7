"""Golden transcripts of the baseline-writing CLI surface.

Each scenario runs a short sequence of ``bench``/``faults``/``ras``
invocations in one fresh ``--dir``.  Every step records its exit code,
stdout, stderr and the text of every file it wrote or changed.  The
transcript is normalised so it is a pure function of the code: the
directory reads ``<DIR>``, the provenance block written into baselines
and history is pinned, and the wall-clock fields of the parallel bench
are masked.  The ``--help`` text of every subcommand is recorded too.

After an intended output change, regenerate the fixture with::

    PYTHONPATH=src python tests/test_cli_transcripts.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

import repro.obs.baseline
from repro.cli import build_parser, main

FIXTURE = Path(__file__).parent / "data" / "cli_transcripts.json"

ENVIRONMENT = {"python": "<python>", "platform": "<platform>",
               "git_sha": "0123456789abcdef0123456789abcdef01234567"}


def _baseline_steps(command, name, *flags, write=None):
    """No-baseline check, write, passing check, perturbed check, trend."""
    argv = [*command, *flags]
    return [argv + ["--check"], argv + (write or []), argv + ["--check"],
            {"perturb": name}, argv + ["--check"],
            ["bench", "--workload", name, "--history"]]


def _bench(workload, *flags):
    return _baseline_steps(["bench", "--workload", workload], workload,
                           *flags)


SCENARIOS = {
    "bench-HELR": _bench("HELR"),
    "bench-overload": _bench("overload"),
    "bench-ras": _bench("ras"),
    "bench-parallel": _bench("parallel", "--units", "4", "--workers", "4"),
    # Two workers can never beat the 2x floor the write path demands.
    "bench-parallel-refused": [["bench", "--workload", "parallel",
                                "--units", "4", "--workers", "2"]],
    "faults": _baseline_steps(["faults"], "faults", "--seeds", "0",
                              "--layer", "analytic",
                              write=["--write-baseline"]),
    "ras": [["ras", "--no-wall", "--layer", "analytic", "--check"],
            ["ras", "--no-wall", "--write-baseline"],
            ["ras", "--no-wall", "--check"],
            # The functional_* metrics the run lacks are regressions.
            ["ras", "--no-wall", "--layer", "analytic", "--check"],
            ["ras", "--no-wall", "--layer", "analytic",
             "--retention-rates", "1000", "--check"],
            ["bench", "--workload", "ras", "--history"]],
}

HELP = [[], *([name] for name in sorted(
    build_parser()._subparsers._group_actions[0].choices))]


def _normalise(text, directory=None) -> str:
    if directory is not None:
        text = text.replace(str(directory), "<DIR>")
    text = re.sub(r"wall \d+\.\d+s -> \d+\.\d+s", "wall <T>s -> <T>s", text)
    text = re.sub(r'("wall_\w+": )[-+.\deE]+', r'\1"<T>"', text)
    # argparse before 3.10 titles the options section differently.
    return text.replace("optional arguments:", "options:")


def _invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _perturb(directory, name) -> None:
    """Move every non-zero baseline metric 50% off its recorded value."""
    path = Path(directory) / f"BENCH_{name}.json"
    doc = json.loads(path.read_text())
    doc["metrics"] = {key: value * 1.5 if value else value
                      for key, value in doc["metrics"].items()}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _snapshot(directory) -> dict:
    return {str(path.relative_to(directory)): path.read_text()
            for path in sorted(Path(directory).rglob("*")) if path.is_file()}


def run_scenario(steps, directory) -> list:
    transcript = []
    before = _snapshot(directory)
    for step in steps:
        if isinstance(step, dict):
            _perturb(directory, step["perturb"])
            transcript.append(step)
        else:
            record = _invoke(step + ["--dir", str(directory)])
            record = {"argv": step, **{key: _normalise(value, directory)
                                       if isinstance(value, str) else value
                                       for key, value in record.items()}}
            after = _snapshot(directory)
            record["files"] = {name: _normalise(text, directory)
                               for name, text in after.items()
                               if before.get(name) != text}
            transcript.append(record)
        before = _snapshot(directory)
    return transcript


def run_help(argv) -> dict:
    return {key: _normalise(value) if isinstance(value, str) else value
            for key, value in _invoke(argv + ["--help"]).items()}


def _pinned_environment():
    return dict(ENVIRONMENT)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(autouse=True)
def _pin(monkeypatch):
    monkeypatch.setattr(repro.obs.baseline, "environment_info",
                        _pinned_environment)
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.timeout(300)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_transcript(name, golden, tmp_path):
    assert run_scenario(SCENARIOS[name], tmp_path) \
        == golden["scenarios"][name]


@pytest.mark.parametrize("argv", HELP, ids=lambda argv: argv[0] if argv
                         else "top-level")
def test_help_transcript(argv, golden):
    assert run_help(argv) == golden["help"][" ".join(argv) or "-"]


def test_fixture_covers_every_subcommand(golden):
    assert sorted(golden["help"]) == sorted(" ".join(a) or "-" for a in HELP)
    assert sorted(golden["scenarios"]) == sorted(SCENARIOS)


def regenerate() -> None:
    repro.obs.baseline.environment_info = _pinned_environment
    os.environ["COLUMNS"] = "80"
    scenarios = {}
    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory(prefix="anaheim-cli-") as tmp:
            scenarios[name] = run_scenario(SCENARIOS[name], tmp)
    document = {"scenarios": scenarios,
                "help": {" ".join(argv) or "-": run_help(argv)
                         for argv in HELP}}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
