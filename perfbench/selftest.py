"""Tests of the benchmark itself (quick mode: each workload runs briefly).

Run from the repository root, either way::

    python3 -m pytest perfbench/selftest.py -q
    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that no run fails, that the per-layer counts repeat exactly across
two traced runs of one seed, that the traced run separates the layers
by workload, that the seed-0 counts match the recorded ones, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUICK_SECONDS = "2"

#: Counts that must repeat exactly for a seed.
DETERMINISTIC = (
    "process.send_calls",
    "process.receive_calls",
    "process.next_activity_calls",
    "engine.rounds",
    "vec.kernel_steps",
    "runtime.rounds",
    "codec.encode_calls",
    "transport.frames_delivered",
)

#: Layers whose metrics are non-zero on one workload only.
OWNED = {
    "vec.": "kernel-vec",
    "codec.": "serve-open",
    "transport.": "serve-open",
    "runtime.": "serve-open",
    "serve.": "serve-open",
}


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", QUICK_SECONDS]
    return subprocess.run(
        command + args + ["--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def parse(done) -> tuple[dict, list]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module")
def runs() -> dict:
    """``(workload, trace, repeat) -> (result, human-readable lines)``."""
    out = {}
    for workload in WORKLOADS:
        out[workload, 0, 0] = parse(bench(workload, 0))
        for repeat in (0, 1):
            out[workload, 1, repeat] = parse(bench(workload, 1))
    return out


def assert_printed(result: dict, lines: list, metrics: list) -> None:
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit, name
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)), name
        assert f"{name} {value} {unit}" in lines, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_and_no_failures(runs, workload):
    result, lines = runs[workload, 0, 0]
    assert_printed(result, lines, SPEC["end_to_end"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"failed_ratio 0.0 (0/{result['attempted']} runs)" in lines
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_and_counts_repeat(runs, workload):
    first, lines = runs[workload, 1, 0]
    second, _ = runs[workload, 1, 1]
    assert_printed(first, lines, SPEC["per_layer"])
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_layers_separate_by_workload(runs):
    def value(workload, name):
        return runs[workload, 1, 0][0]["metrics"][name]["value"]

    assert value("paper-crash", "process.send_idle_ratio") > 0.5
    assert value("flood-dense", "process.send_calls") > 0
    assert value("flood-dense", "process.send_idle_ratio") == 0
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        owner = next((w for prefix, w in OWNED.items() if name.startswith(prefix)), None)
        if owner is None:
            continue
        for workload in WORKLOADS:
            nonzero = value(workload, name) != 0
            assert nonzero == (workload == owner), (name, workload)


def counted(lines: list) -> dict:
    rows = [json.loads(line[len("count "):]) for line in lines if line.startswith("count ")]
    return {row["cell"].split("/s")[0]: row for row in rows}


def test_seed0_counts(runs):
    consensus = counted(runs["paper-crash", 1, 0][1])["consensus/n800/t80"]
    assert (consensus["sends"], consensus["idle_sends"]) == (68033, 62588)
    assert (consensus["receives"], consensus["idle_receives"]) == (67953, 61785)
    gossip = counted(runs["paper-crash", 1, 0][1])["gossip/n160/t16"]
    assert (gossip["sends"], gossip["idle_sends"]) == (26114, 15034)
    flooding = counted(runs["flood-dense", 1, 0][1])["flooding/n600/t6"]
    assert (flooding["sends"], flooding["idle_sends"]) == (4186, 0)


def test_refuses_without_program_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(WORKLOADS[0], 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
