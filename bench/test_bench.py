"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _texts(rounds, count=3):
    return [[job.text for job in next(rounds)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_under_a_seed(name):
    workload = WORKLOADS[name]
    first = _texts(workload.rounds(11))
    assert first == _texts(workload.rounds(11))
    assert first != _texts(workload.rounds(12))
    assert len(first[0]) % 2 == 1, "a round needs an odd number of jobs"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_catalogue_script_has_a_reference_hash(name):
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))[name]
    for jobs in WORKLOADS[name].catalogue().values():
        for job in jobs:
            assert checks.script_key(job.text) in reference


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("job", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 3.5, 6.0, 0),  # overlaps a
        ("d", 9.0, 12.0, 0),  # ends after its parent
    ]
    # job: children cover [1, 6] and [9, 10], so 10 - 5 - 1 = 4.
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_scaled_time_leaves_out_calibration_and_scales_each_stretch():
    nominal = run.CALIBRATION_S
    marks = [
        (0.0, 0.0, nominal),
        (1.0, 1.5, 3 * nominal),  # a sample taken inside; 0.5 s of calibrating
        (2.5, 2.5, nominal),
    ]
    raw, scaled = run.scaled_time(marks)
    assert raw == pytest.approx(2.0)
    assert scaled == pytest.approx(1.0 / 2 + 1.0 / 2)


def test_one_byte_change_to_an_output_counts_as_failed():
    from noethops import cli

    job = WORKLOADS["chain-membership"].catalogue()["2v-point-chk2-b4"][0]
    text = run.render(cli.run(cli.parse_script(job.text)))
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))[job.workload]
    assert checks.job_problems(job, text, reference) == []
    # A tab for the first indenting space: the same JSON, one byte apart.
    changed = text.replace("\n  ", "\n\t ", 1)
    assert json.loads(changed) == json.loads(text)
    assert checks.job_problems(job, changed, reference) == [
        "report sha256 differs from the reference"
    ]
