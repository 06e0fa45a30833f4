"""Seeded fuzzing of coefficient-field towers through the CLI.

Each tower starts at QQ or Fp(p) and takes up to three steps, any mix of
a rational function variable ``(t)`` and a square root ``ext(..., w,
w^2 - g)`` of a generator g below that no earlier step has rooted, so
every declared minimal polynomial is irreducible.  One script names every
generator in ``gb``, ``nf`` and ``diffpow --new`` on a univariate prime.
Every such script is valid input, so it must exit 0 with no traceback,
and print the same bytes on a second run.
"""

import random

import pytest

from noethops.cli import main

RATIONAL_NAMES = ("t", "s", "r")
ROOT_NAMES = ("u", "w")  # "u" also stems the engine's own root name


def _tower_script(rng):
    field = rng.choice(["QQ", "Fp(2)", "Fp(3)", "Fp(5)"])
    gens, rooted = [], set()
    for _ in range(rng.randint(1, 3)):
        radicands = [g for g in gens if g not in rooted]
        root = next((n for n in ROOT_NAMES if n not in gens), None)
        if radicands and root and rng.random() < 0.5:
            g = rng.choice(radicands)
            rooted.add(g)
            field = f"ext({field}, {root}, {root}^2 - {g})"
            gens.append(root)
        else:
            var = next(n for n in RATIONAL_NAMES if n not in gens)
            field = f"{field}({var})"
            gens.append(var)
    total = " + ".join(gens)
    product = "*".join(gens)
    return (
        f"field {field}; ring [x]; "
        f"ideal I = (x^2 - ({total}))*(x - {product}), (x^2 - ({total}))*(x + 1); gb I; "
        f"nf x^3 + {product}/({gens[0]} + 1)*x, I; "
        f"prime p = x^2 - {gens[-1]} : univariate; diffpow --new p {rng.randint(1, 4)};"
    )


SCRIPTS = [_tower_script(random.Random(f"tower-{seed}")) for seed in range(16)]


@pytest.mark.parametrize("text", SCRIPTS, ids=[f"tower-{i}" for i in range(len(SCRIPTS))])
def test_tower_scripts_keep_the_contract(tmp_path, capsys, text):
    path = tmp_path / "tower.ca"
    path.write_text(text)
    outputs = []
    for _ in range(2):
        code = main(["run", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "Traceback" not in captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
