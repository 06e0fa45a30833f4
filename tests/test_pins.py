"""Byte pins on the demos, the built-in regression set and two long
Zariski-Nagata chains: the sha256 of their output must not move unless an
answer or a printed form changes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noethops
from noethops import cli
from noethops.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(noethops.__file__).resolve().parents[1])

DEMO_SHA256 = {
    "01_rings_and_groebner.py": "cc9c7507e072bc32a1dd783bc9a0166e5a90dee27c74b7106dcc7fc4d1bc6d2b",
    "02_noetherian_operators.py": "e3e6bcef048a5547b1e29b6c86b82c7d7507f819895d80f6858715ca9fb46524",
    "03_singular_cubic.py": "62e68256a3c7e29c81277d355e28af805b787e7cba260330bc350a982a483f76",
    "04_inseparable_point.py": "46f335df91dee550141ed0e803b16e57205a2b6ab14d64a59ed1be4e4c288fdb",
    "05_power_chain.py": "4a956b294f66ae7550547ed4367e27791f395629e6f3005004946c1db0dc8bb0",
}
EXAMPLES_JSON_SHA256 = "21f756e838b0d876880cfd8e358fb9915a1a9613dcd389abf1a50dc428622981"


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo]


def test_examples_json_pinned(capsys):
    assert main(["examples", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLES_JSON_SHA256


CHAIN_PINS = {
    "origin-m30": (
        "field QQ; ring [x, y]; prime m = x, y : point (0, 0); check-zn m 30;",
        "7758f9949beb29cf1c4f77a9d9facc3a1bfc2450cea43ebc99053649918b3c8d",
    ),
    "point-m16-b8": (
        "field QQ; ring [x, y]; prime m = x - 1, y + 2 : point (1, -2); check-zn m 16 bound 8;",
        "d1d2ba9cf0715faa4747ab0edf7f1e98fe5b3c48aa46949c2c696d5448a02c6f",
    ),
}


@pytest.mark.parametrize("name", sorted(CHAIN_PINS))
def test_long_chain_report_pinned(name):
    text, sha256 = CHAIN_PINS[name]
    report = json.dumps(cli.run(cli.parse_script(text)), indent=2)
    assert hashlib.sha256(report.encode()).hexdigest() == sha256
