"""Same bytes as the benchmark's reference: variant 0 of every shape in the
four bench catalogues, each report checked by ``bench/checks.py`` against
``bench/reference.json``.  A change that moves one byte of a report fails
here, not only in a bench run.  Nothing under ``bench/`` is written."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from noethops import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_catalogue_reports_match_the_reference(name):
    reference = json.loads(bench_run.REFERENCE.read_text(encoding="utf-8"))[name]
    problems = {}
    for shape, jobs in WORKLOADS[name].catalogue().items():
        job = jobs[0]
        text = bench_run.render(cli.run(cli.parse_script(job.text)))
        problems[shape] = checks.job_problems(job, text, reference)
    assert {shape: p for shape, p in problems.items() if p} == {}


def test_tracer_finds_every_entry_point():
    """The bench tracer wraps engine functions by name: a rename in the
    engine would zero its layer's metrics, so every name must resolve, the
    kernel must be traced, and tracing must not change a report."""
    from tracing import Tracer

    reference = json.loads(bench_run.REFERENCE.read_text(encoding="utf-8"))
    jobs = [
        WORKLOADS["noeth-dual"].catalogue()["3v-k334-fp-point"][0],
        WORKLOADS["chain-membership"].catalogue()["2v-origin-classical4"][0],
    ]
    tracer = Tracer()
    tracer.install()
    try:
        texts = []
        for job in jobs:
            tracer.job += 1
            texts.append(bench_run.render(cli.run(cli.parse_script(job.text))))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert {s[4] for s in tracer.spans if s[0] == "linalg.kernel_basis"} == {0, 1}
    assert tracer.counters["linalg.errors"] == 0
    for job, text in zip(jobs, texts):
        assert checks.job_problems(job, text, reference[job.workload]) == []
