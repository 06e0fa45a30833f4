import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import noethops
from noethops.cli import EXAMPLE_SCRIPTS, main, parse_script, run
from noethops.errors import ParseError, UndeclaredNameError
from noethops.fields import GF, QQ, RatFuncField
from noethops.groebner import Ideal, ideal_equal


BASIC_SCRIPT = "field QQ; ring QQ[x,y]; ideal I = x^2, y; point P = (0,0); noeth I at P;"


def test_parse_script_basic():
    script = parse_script(BASIC_SCRIPT)
    assert len(script.commands) == 1
    assert script.commands[0].kind == "noeth"
    assert script.ring.variables == ("x", "y")


def test_parse_script_undeclared_name():
    with pytest.raises(UndeclaredNameError):
        parse_script("field QQ; ring [x,y]; gb J;")


def test_parse_script_duplicate_name():
    with pytest.raises(ParseError):
        parse_script("field QQ; ring [x,y]; ideal I = x; ideal I = y;")


@pytest.mark.parametrize("text, pos", [
    ("field QQ; ring [x,y]; ideal I = x +;", 35),
    ("field QQ; # a long comment here\nring [x];\nbogus;", 42),
    ("field QQ;\r\nring [x];\r\nbogus;", 22),
], ids=["dangling-operator", "after-a-comment", "after-crlf"])
def test_parse_script_syntax_error_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse_script(text)
    assert err.value.pos == pos


def test_parse_example_53_script():
    script = parse_script(
        "field Fp(2)(t); ring [x]; prime p = x^2 - t : univariate; diffpow --new p 2;"
    )
    assert script.field == RatFuncField(GF(2), "t")
    kind, prime = script.objects["p"]
    assert kind == "prime"
    assert prime.kind == "univariate-algebraic"
    assert len(script.commands) == 1


def test_parse_qqt_field_descriptor():
    script = parse_script("field QQ(t); ring [x]; ideal I = t*x - 1; gb I;")
    assert script.field == RatFuncField(QQ, "t")
    report = run(script)
    assert report["commands"][0]["basis"] == ["x - 1/t"]


def test_parse_ext_field_descriptor():
    script = parse_script(
        "field ext(QQ, u, u^2 - 2); ring [x]; ideal I = x^2 - 2; "
        "poly g = u*x; nf u*x - u*x, I;"
    )
    field = script.field
    assert field.minpoly.degree == 2
    u = field.generator()
    assert u * u == field.from_int(2)
    report = run(script)
    assert report["commands"][0]["normal_form"] == "0"


def test_parse_ext_over_ratfunc_descriptor():
    # the Frobenius point setup, declared entirely through descriptors
    script = parse_script(
        "field ext(Fp(2)(t), u, u^2 - t); ring [x]; ideal I = x - u; gb I;"
    )
    report = run(script)
    assert report["commands"][0]["basis"] == ["x + u"]  # monic, char 2


def test_run_noeth_report():
    report = run(parse_script(BASIC_SCRIPT))
    entry = report["commands"][0]
    assert entry["status"] == "ok"
    assert entry["colength"] == 2
    assert len(entry["operators"]) == 2
    assert entry["operators"][1] == [{"xexp": [0, 0], "dexp": [1, 0], "coeff": "1"}]
    assert report["status"]["exit_code"] == 0


def test_run_check_zn_inseparable():
    script = parse_script(
        "field Fp(2)(t); ring [x]; prime p = x^2 - t : univariate; check-zn p 2;"
    )
    report = run(script)
    entry = report["commands"][0]
    assert entry["status"] == "ok"
    assert entry["new_diff"] == ["x^2 + t"]  # char 2: -t = t
    assert any(
        v["relation"] == "strict-subset" and v.get("witness") == "x^2 + t"
        for v in entry["verdicts"]
    )


def test_exit_code_assertion_failure():
    report = run(parse_script("field QQ; ring [x,y]; ideal I = x^2, y; assert-member x, I;"))
    assert report["status"]["exit_code"] == 1


def test_exit_code_runtime_input_error():
    report = run(parse_script("field QQ; ring [x,y]; ideal I = x; sat I, 0;"))
    assert report["commands"][0]["status"] == "error"
    assert report["status"]["exit_code"] == 2


def test_exit_code_unsupported():
    report = run(
        parse_script(
            "field Fp(5); ring [x,y]; ideal I = x, y; diffpow --classical I 2 bound 3;"
        )
    )
    assert report["commands"][0]["status"] == "unsupported"
    assert report["status"]["exit_code"] == 3


def test_subcommand_filtering():
    text = "field QQ; ring [x,y]; ideal I = x - y, x + y; gb I; assert-member x, I;"
    script = parse_script(text)
    report = run(script, only="gb")
    assert [e["command"] for e in report["commands"]] == ["gb"]
    assert report["commands"][0]["basis"] == ["y", "x"]


def test_run_leaves_the_script_unbound():
    script = parse_script("field QQ; ring [x]; ideal I = x^2; gb I as G; nf x, G;")
    assert run(script, only="nf")["status"]["exit_code"] == 2
    assert run(script)["status"]["exit_code"] == 0
    assert run(script, only="nf")["status"]["exit_code"] == 2
    assert script.objects["G"] == ("ideal", None)


def test_gb_and_binding_roundtrip():
    text = (
        "field QQ; ring [x,y]; ideal I = x^2 + y^2, x*y; gb I as G; assert-equal G, I;"
    )
    report = run(parse_script(text))
    assert report["status"]["exit_code"] == 0


def test_printed_ideals_reparse(tmp_path):
    script = parse_script("field QQ; ring [x,y,z]; ideal I = x*z - y^2, y*z - x^2; gb I;")
    report = run(script)
    ring = script.ring
    basis = report["commands"][0]["basis"]
    reparsed = Ideal(ring, [ring.parse(s) for s in basis])
    kind, original = script.objects["I"]
    assert ideal_equal(reparsed, original)


def test_deterministic_json():
    texts = [BASIC_SCRIPT, EXAMPLE_SCRIPTS[1][1], EXAMPLE_SCRIPTS[2][1]]
    for text in texts:
        a = json.dumps(run(parse_script(text)), indent=2)
        b = json.dumps(run(parse_script(text)), indent=2)
        assert a == b


def test_order_flag_changes_basis():
    text = "field QQ; ring [x,y]; ideal I = x^2 - y; gb I;"
    grev = run(parse_script(text, order_kind="grevlex"))
    lex = run(parse_script(text, order_kind="lex"))
    assert grev["commands"][0]["basis"] == ["x^2 - y"]
    assert lex["commands"][0]["basis"] == ["x^2 - y"]


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_rational_point_prime_keeps_the_script_order(order):
    text = (
        "field QQ; ring [x, y, z]; prime m = x - 1, y - 2, z + 3 : point (1, 2, -3); "
        "ideal Q = (x - 1)^2, (x - 1)*(y - 2), (x - 1)*(z + 3), (y - 2)^2, "
        "(y - 2)*(z + 3), (z + 3)^2; sympow m 2; gb Q;"
    )
    sympow, gb = run(parse_script(text, order_kind=order))["commands"]
    assert sympow["result"] == gb["basis"]


def test_main_run(tmp_path, capsys):
    path = tmp_path / "script.ca"
    path.write_text(BASIC_SCRIPT)
    code = main(["run", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["commands"][0]["command"] == "noeth"


def test_check_zn_unavailable_verdict_names_symbolic_for_a_witness_prime(tmp_path, capsys):
    path = tmp_path / "script.ca"
    path.write_text(
        "field Fp(7); ring [x, y, z, w]; prime c = x*z - y^2, y*w - z^2, x*w - y*z : witness x;"
        " check-zn c 2 bound 2;"
    )
    assert main(["run", str(path), "--json"]) == 0
    entry = json.loads(capsys.readouterr().out)["commands"][0]
    assert entry["new_diff"] is None and not entry["classical_available"]
    assert entry["verdicts"][-1] == {
        "lhs": "symbolic",
        "relation": "unavailable",
        "rhs": "classical",
        "holds": True,
        "note": "classical differential power refused in positive characteristic",
    }


def test_main_run_text_report(tmp_path, capsys):
    path = tmp_path / "script.ca"
    path.write_text("field QQ; ring [x,y]; ideal I = x^2, y; gb I; nf x*y + x^2, I;")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        'gb [ok] {"ideal": "I", "basis": ["y", "x^2"]}',
        'nf [ok] {"poly": "x^2 + x*y", "ideal": "I", "normal_form": "0"}',
        "done: 0 errors, 0 unsupported, 0 failed assertions",
    ]


def test_main_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.ca"
    path.write_text("field QQ; ring [x]; gb nope;")
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nope" in err


def test_main_deep_nesting_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.ca"
    path.write_text("field QQ; ring [x]; ideal I = " + "(" * 1000 + "x" + ")" * 1000 + ";")
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "nested too deeply (at position 20)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, text",
    [
        ("run", "ideal A = x*y; sat A, 0 as S; gb S;"),
        ("gb", "ideal A = x*y; sat A, y as S; gb S;"),
        ("noeth", "ideal A = x*y; sat A, 0 as S; noeth S at (0, 0);"),
        ("diffpow", "ideal A = x*y; sat A, y as S; diffpow --new S at (0, 0) 2;"),
    ],
    ids=["failed-sat", "gb-skips-sat", "noeth", "diffpow-at"],
)
def test_name_bound_by_a_command_that_did_not_run(tmp_path, capsys, subcommand, text):
    path = tmp_path / "unbound.ca"
    path.write_text("field QQ; ring [x, y]; " + text)
    code = main([subcommand, str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    entry = json.loads(captured.out)["commands"][-1]
    assert entry["status"] == "error"
    assert "'S' is unbound" in entry["error"]


def test_bound_name_in_an_expression_is_refused(tmp_path, capsys):
    with pytest.raises(ParseError, match="'r' is a command result and cannot appear"):
        parse_script("field QQ; ring [x]; ideal A = x^2; gb A as r; assert-member r, A;")
    path = tmp_path / "named.ca"
    for text, message in [
        ("ideal I = x; assert-member I, I;", "'I' is a declared ideal and"),
        ("point P = (0, 0); poly f = P + x;", "'P' is a declared point and"),
        ("prime Q = x, y : point (0, 0); ideal J = Q*x;", "'Q' is a declared prime and"),
    ]:
        path.write_text("field QQ; ring [x, y]; " + text)
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err


# Each row: a script, its exit code, and the fields of its last report entry
# (or the stderr text of a script that does not parse).
CONTRACT = [
    ("duplicate-variable", "field QQ; ring [x, x];", 2,
     {"stderr": "input error: variable names must be distinct and nonempty (at position 10)"}),
    # the ring is built over the field already, so a later field is refused
    ("field-after-ring", "field QQ; ring [x]; field Fp(5); ideal I = 5*x; gb I;", 2,
     {"stderr": "input error: field declared after the ring (at position 20)"}),
    ("huge-sympow", "field QQ; ring [x, y]; prime m = x, y : point (0, 0); "
     "sympow m 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    ("huge-diffpow", "field QQ; ring [x, y]; prime m = x, y : point (0, 0); "
     "diffpow --new m 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    ("huge-check-zn", "field QQ; ring [x, y]; prime m = x, y : point (0, 0); "
     "check-zn m 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    # a univariate prime's m^j is refused before any product is taken
    ("huge-sympow-univariate", "field QQ; ring [x]; prime q = x^2 - 2 : univariate; "
     "sympow q 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    ("huge-diffpow-univariate", "field QQ; ring [x]; prime q = x^2 - 2 : univariate; "
     "diffpow --new q 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    ("huge-check-zn-univariate", "field QQ; ring [x]; prime q = x^2 - 2 : univariate; "
     "check-zn q 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    # ceil(n / 3) still exceeds sys.maxsize
    ("huge-diffpow-inseparable", "field Fp(3)(t); ring [x]; prime q = x^3 - t : univariate; "
     "diffpow --new q 99999999999999999999;", 2, {"error": "ideal power exponent exceeds "}),
    ("curvilinear", "field QQ; ring [x, y]; ideal I = y - x^2, y^4; noeth I at (0, 0);",
     0, {"colength": 8, "truncation_order": 7}),
    ("not-zero-dimensional", "field QQ; ring [x, y]; ideal I = x; noeth I at (0, 0);",
     2, {"error": "the standard-monomial count is infinite: "}),
    ("failed-assertion", "field QQ; ring [x, y]; ideal I = x^2, y; assert-member x, I;",
     1, {"ok": False}),
    ("variable-shadows-generator", "field ext(QQ, u, u^2 - 2); ring [x, u]; "
     "ideal I = x - u; gb I;", 2,
     {"stderr": "input error: name 'u' shadows a generator of QQ[u]/(u^2 - 2) (at position 27)"}),
    ("ext-shadows-generator", "field ext(Fp(3)(t), t, t^2 - 2); ring [x]; "
     "ideal I = x - t; gb I;", 2,
     {"stderr": "input error: name 't' shadows a generator of GF(3)(t) (at position 6)"}),
    ("ratfunc-shadows-generator", "field Fp(3)(t)(t); ring [x];", 2,
     {"stderr": "input error: name 't' shadows a generator of GF(3)(t) (at position 15)"}),
    # the engine's own auxiliary variable and root names avoid the field's
    ("auxiliary-name-taken", "field QQ(_w); ring [x]; ideal I = _w*x^2, x - 1; sat I, x;",
     0, {"result": ["1"]}),
    ("root-name-taken", "field QQ(u); ring [x]; prime p = x^2 - u : univariate; "
     "diffpow --new p 2;", 0, {"result": ["x^4 - 2*u*x^2 + u^2"]}),
    # values of every level of a field tower lift into the top field
    ("ext-univariate", "field ext(QQ, v, v^2 - 2); ring [x]; prime p = x^2 - v : univariate; "
     "diffpow --new p 2; check-zn p 2;", 0,
     {"symbolic": ["x^4 - 2*v*x^2 + 2"], "new_diff": ["x^4 - 2*v*x^2 + 2"]}),
    ("nested-ext", "field ext(ext(QQ, v, v^2 - 2), w, w^2 - 3); ring [x]; "
     "ideal I = x^2 - v*w; gb I;", 0, {"basis": ["x^2 - v*w"]}),
    ("nested-ratfunc", "field Fp(5)(t)(s); ring [x]; ideal I = x^2 - t*s; gb I;", 0,
     {"basis": ["x^2 + 4*t*s"]}),
    ("ext-over-ratfunc-diffpow-4", "field ext(Fp(3)(t), u, u^3 - t); ring [x]; "
     "prime q = x^3 - u : univariate; diffpow --new q 4;", 0,
     {"result": ["x^6 + u*x^3 + u^2"]}),
    ("ext-over-ratfunc-diffpow-7", "field ext(Fp(3)(t), u, u^3 - t); ring [x]; "
     "prime q = x^3 - u : univariate; diffpow --new q 7;", 0, {"result": ["x^9 + 2*t"]}),
    ("x4-plus-t-diffpow-5", "field Fp(2)(t); ring [x]; prime q = x^4 + t : univariate; "
     "diffpow --new q 5;", 0, {"result": ["x^8 + t^2"]}),
    ("ext-over-ratfunc-check-zn", "field ext(Fp(3)(t), u, u^3 - t); ring [x]; "
     "prime q = x^3 - u : univariate; check-zn q 2;", 0,
     {"symbolic": ["x^6 + u*x^3 + u^2"], "new_diff": ["x^3 + 2*u"]}),
    # a zero divisor of a reducible minimal polynomial is an input error
    # where the parser divides by it
    ("zero-divisor-nf", "field ext(QQ, u, u^2 - 1); ring [x]; ideal I = x; nf 1/(u - 1), I;",
     2, {"stderr": "input error: zero divisor u - 1 in QQ[u]/(u^2 - 1); minimal polynomial "
                   "is reducible (at position 54)"}),
    ("zero-divisor-poly", "field ext(QQ, u, u^2 - 1); ring [x]; poly f = 1/(u - 1);",
     2, {"stderr": "input error: zero divisor u - 1 in QQ[u]/(u^2 - 1); minimal polynomial "
                   "is reducible (at position 47)"}),
    ("zero-divisor-point", "field ext(QQ, u, u^2 - 1); ring [x]; point P = (1/(u + 1));",
     2, {"stderr": "input error: zero divisor u + 1 in QQ[u]/(u^2 - 1); minimal polynomial "
                   "is reducible (at position 49)"}),
    ("zero-divisor-prime", "field ext(QQ, u, u^2 - 1); ring [x]; "
     "prime q = x - 1/(u - 1) : univariate;",
     2, {"stderr": "input error: zero divisor u - 1 in QQ[u]/(u^2 - 1); minimal polynomial "
                   "is reducible (at position 52)"}),
    # chain checks at rational points that once took seconds
    ("check-zn-60-at-origin", "field QQ; ring [x, y]; prime m = x, y : point (0, 0); "
     "check-zn m 60;", 0, {"verdicts": [
         {"lhs": "p^n", "relation": "subset", "rhs": "symbolic", "holds": True},
         {"lhs": "symbolic", "relation": "equal", "rhs": "new_diff", "holds": True},
         {"lhs": "new_diff", "relation": "subset", "rhs": "classical", "holds": True}]}),
    ("check-zn-12-bound-12-off-origin", "field QQ; ring [x, y, z]; point a = (1, 2, 3); "
     "prime m = x - 1, y - 2, z - 3 : point a; check-zn m 12 bound 12;", 0, {"verdicts": [
         {"lhs": "p^n", "relation": "subset", "rhs": "symbolic", "holds": True},
         {"lhs": "symbolic", "relation": "equal", "rhs": "new_diff", "holds": True},
         {"lhs": "new_diff", "relation": "subset", "rhs": "classical", "holds": True},
         {"lhs": "new_diff", "relation": "agrees-on-monomials", "rhs": "classical",
          "holds": True, "note": "all monomials of degree <= 12"}]}),
]


@pytest.mark.parametrize("text, code, fields", [row[1:] for row in CONTRACT],
                         ids=[row[0] for row in CONTRACT])
def test_exit_code_contract(tmp_path, capsys, text, code, fields):
    path = tmp_path / "contract.ca"
    path.write_text(text)
    assert main(["run", str(path), "--json"]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if not captured.out:
        assert code == 2 and fields["stderr"] in captured.err
        return
    report = json.loads(captured.out)
    assert (code == 1) == (report["status"]["failed_assertions"] > 0)
    entry = report["commands"][-1]
    for key, value in fields.items():
        if key == "error":
            assert entry[key].startswith(value)
        else:
            assert entry[key] == value


def test_agreement_walk_stops_at_the_first_disagreeing_degree(tmp_path):
    # x*y disagrees first at y^2, in degree 2: the walk must get there without
    # listing every monomial up to the bound.  The child's address space is
    # capped, so a walk that builds them fails fast instead of filling memory.
    path = tmp_path / "huge-bound.ca"
    path.write_text("field QQ; ring [x, y]; prime c = x*y : witness x; "
                    "check-zn c 2 bound 99999999999999;")
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "noethops.cli", "run", str(path), "--json"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(noethops.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 1, proc.stderr
    verdict = json.loads(proc.stdout)["commands"][0]["verdicts"][-1]
    assert verdict == {"lhs": "symbolic", "relation": "agrees-on-monomials", "rhs": "classical",
                       "holds": False, "witness": "y^2",
                       "note": "all monomials of degree <= 99999999999999"}


def test_a_command_out_of_memory_is_unsupported(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("noethops.cli.chain_check", exhausted)
    path = tmp_path / "memory.ca"
    path.write_text("field QQ; ring [x, y]; prime m = x, y : point (0, 0); "
                    "check-zn m 2; sympow m 2;")
    assert main(["run", str(path), "--json"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert [(e["status"], e.get("error")) for e in report["commands"]] == [
        ("unsupported", "out of memory"), ("ok", None)]
    assert report["status"] == {"errors": 0, "unsupported": 1, "failed_assertions": 0, "exit_code": 3}


def test_main_examples(capsys):
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    for name, _ in EXAMPLE_SCRIPTS:
        assert f"{name}: ok" in out


def test_intersect_and_nf_commands():
    text = (
        "field QQ; ring [x,y]; ideal A = x; ideal B = y; "
        "intersect A, B as C; nf x*y + 1, C; assert-member x*y, C;"
    )
    report = run(parse_script(text))
    assert report["status"]["exit_code"] == 0
    entries = {e["command"]: e for e in report["commands"]}
    assert entries["intersect"]["result"] == ["x*y"]
    assert entries["nf"]["normal_form"] == "1"


def test_point_literal_in_commands():
    text = "field QQ; ring [x,y]; ideal I = x - 1, y - 2; noeth I at (1, 2);"
    report = run(parse_script(text))
    assert report["commands"][0]["colength"] == 1
    assert report["commands"][0]["point"] == ["1", "2"]


def test_every_command_in_one_script():
    text = """
    field QQ;
    ring [x, y];
    point O = (0, 0);
    poly f = x^2 + y^2;
    ideal I = x^2, y;
    ideal A = x*y;
    prime m = x, y : point O;
    gb I as G;
    nf f, I;
    sat A, y as S;
    intersect I, A as T;
    noeth I at O;
    sympow m 2 as P2;
    diffpow --new m 2 as N2;
    diffpow --classical m 2 bound 3 as C2;
    check-zn m 2 bound 3;
    assert-equal P2, N2;
    assert-equal P2, C2;
    assert-member x^2*y, T;
    """
    report = run(parse_script(text))
    assert report["status"]["exit_code"] == 0
    kinds = [e["command"] for e in report["commands"]]
    assert kinds == [
        "gb", "nf", "sat", "intersect", "noeth", "sympow", "diffpow",
        "diffpow", "check-zn", "assert-equal", "assert-equal", "assert-member",
    ]
    entries = {(e["command"], e.get("n")): e for e in report["commands"]}
    assert entries[("sympow", 2)]["result"] == ["y^2", "x*y", "x^2"]


def test_comments_and_whitespace():
    text = """
    # declare the base objects
    field QQ;   # rationals
    ring [x, y];
    ideal I = x^2, y;  # a primary ideal
    gb I;
    """
    report = run(parse_script(text))
    assert report["commands"][0]["basis"] == ["y", "x^2"]


def test_bound_zero_is_honoured():
    head = "field QQ; ring [x, y]; point O = (0, 0); prime m = x, y : point O; "
    for text, default in (("check-zn m 2 bound 0;", 3), ("check-zn m 2;", 0)):
        report = run(parse_script(head + text), default_bound=default)
        entry = report["commands"][0]
        assert entry["status"] == "ok"
        agree = [v for v in entry["verdicts"] if v["relation"] == "agrees-on-monomials"]
        assert [v["note"] for v in agree] == ["all monomials of degree <= 0"]


def test_negative_bound_is_an_input_error(tmp_path, capsys):
    # no monomial has degree <= -1, so agreement would hold vacuously
    path = tmp_path / "negative.ca"
    path.write_text(
        "field QQ; ring [x, y]; prime m = x, y : point (0, 0); check-zn m 2; "
        "diffpow --classical m 2 as C; assert-equal C, m;"
    )
    code = main(["run", str(path), "--json", "--bound", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    errors = [entry["error"] for entry in json.loads(captured.out)["commands"]]
    assert errors[:2] == ["agreement bound must be >= 0", "degree bound must be >= 0"]


# Every malformed statement below, after MALFORMED_HEAD, raises this exact
# exception with this exact message.  The order of the checks is part of
# the contract: a missing ';' is reported before an undeclared name, and
# the arguments are looked up before an 'as NAME' clause is declared.
MALFORMED_HEAD = (
    "field QQ; ring [x, y]; point O = (0, 0); poly f = x + y; "
    "ideal I = x^2, y; prime m = x, y : point O; "
)
MALFORMED = [
    ("gb nope", ParseError, "expected ';', found None (at position 108)"),
    ("gb nope;", UndeclaredNameError, "undeclared name 'nope' (at position 104)"),
    ("gb I as I;", ParseError, "name 'I' already declared (at position 109)"),
    ("gb nope as nope;", UndeclaredNameError, "undeclared name 'nope' (at position 104)"),
    ("gb O as O;", ParseError,
     "'O' is a point, expected one of ['ideal', 'prime'] (at position 104)"),
    ("gb O;", ParseError, "'O' is a point, expected one of ['ideal', 'prime'] (at position 104)"),
    ("gb I as;", ParseError, "expected 'name', found ';' (at position 108)"),
    ("gb I J;", ParseError, "expected ';', found 'J' (at position 106)"),
    ("gb G; gb I as G;", UndeclaredNameError, "undeclared name 'G' (at position 104)"),
    ("nf x, nope;", UndeclaredNameError, "undeclared name 'nope' (at position 107)"),
    ("nf x I;", ParseError, "expected ',', found 'I' (at position 106)"),
    ("nf x, O;", ParseError, "'O' is a point, expected one of ['ideal', 'prime'] (at position 107)"),
    ("nf I, I;", ParseError,
     "'I' is a declared ideal and cannot appear in an expression (at position 104)"),
    ("sat I x;", ParseError, "expected ',', found 'x' (at position 107)"),
    ("sat nope, x;", UndeclaredNameError, "undeclared name 'nope' (at position 105)"),
    ("sat I, x as G as H;", ParseError, "expected ';', found 'as' (at position 115)"),
    ("sat O, x;", ParseError, "'O' is a point, expected one of ['ideal', 'prime'] (at position 105)"),
    ("intersect I;", ParseError, "expected ',', found ';' (at position 112)"),
    ("intersect I, nope;", UndeclaredNameError, "undeclared name 'nope' (at position 114)"),
    ("intersect nope, O;", UndeclaredNameError, "undeclared name 'nope' (at position 111)"),
    ("intersect I, O;", ParseError,
     "'O' is a point, expected one of ['ideal', 'prime'] (at position 114)"),
    ("noeth I on O;", ParseError, "expected 'at' in noeth command (at position 109)"),
    ("noeth I at nope;", UndeclaredNameError, "undeclared name 'nope' (at position 112)"),
    ("noeth I at I;", ParseError, "'I' is an ideal, expected one of ['point'] (at position 112)"),
    ("noeth I at (0);", ParseError, "point arity 1 != ring arity 2 (at position 101)"),
    ("noeth I at O as N;", ParseError, "expected ';', found 'as' (at position 114)"),
    ("noeth O at O;", ParseError, "'O' is a point, expected one of ['ideal', 'prime'] (at position 107)"),
    ("sympow I 2;", ParseError, "'I' is an ideal, expected one of ['prime'] (at position 108)"),
    ("sympow m x;", ParseError, "expected 'int', found 'x' (at position 110)"),
    ("sympow m 2 as m;", ParseError, "name 'm' already declared (at position 115)"),
    ("gb I as G; sympow G 2;", ParseError,
     "'G' is an ideal, expected one of ['prime'] (at position 119)"),
    ("diffpow --old m 2;", ParseError, "diffpow expects --new or --classical (at position 111)"),
    ("diffpow --new m at O;", ParseError, "expected 'int', found ';' (at position 121)"),
    ("diffpow -new m 2;", ParseError, "expected '-', found 'new' (at position 110)"),
    ("diffpow --new I 2;", ParseError, "'I' is an ideal, expected one of ['prime'] (at position 115)"),
    ("diffpow --classical O 2 bound 3;", ParseError,
     "'O' is a point, expected one of ['ideal', 'prime'] (at position 121)"),
    ("diffpow --new m 2 bound x;", ParseError, "expected 'int', found 'x' (at position 125)"),
    ("diffpow --new nope at O 2;", UndeclaredNameError, "undeclared name 'nope' (at position 115)"),
    ("check-zn m 2 bound;", ParseError, "expected 'int', found ';' (at position 119)"),
    ("check-zn I 2;", ParseError, "'I' is an ideal, expected one of ['prime'] (at position 110)"),
    ("check-zn m 2 as Z;", ParseError, "expected ';', found 'as' (at position 114)"),
    ("assert-equal I, nope;", UndeclaredNameError, "undeclared name 'nope' (at position 117)"),
    ("assert-equal I;", ParseError, "expected ',', found ';' (at position 115)"),
    ("assert-equal O, I;", ParseError,
     "'O' is a point, expected one of ['ideal', 'prime'] (at position 114)"),
    ("assert-member f, nope;", UndeclaredNameError, "undeclared name 'nope' (at position 118)"),
    ("assert-member x, m as A;", ParseError, "expected ';', found 'as' (at position 120)"),
    ("assert-member O, I;", ParseError,
     "'O' is a declared point and cannot appear in an expression (at position 115)"),
    ("frobnicate I;", ParseError, "unknown statement 'frobnicate' (at position 101)"),
]


@pytest.mark.parametrize("statement, error, message", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_statement_message(statement, error, message):
    with pytest.raises(ParseError) as err:
        parse_script(MALFORMED_HEAD + statement)
    assert (type(err.value), str(err.value)) == (error, message)


def test_nf_binds_nothing(tmp_path, capsys):
    path = tmp_path / "nf.ca"
    path.write_text("field QQ; ring [x]; ideal I = x^2; nf x, I as r;")
    assert main(["run", str(path)]) == 2
    assert "expected ';', found 'as'" in capsys.readouterr().err


# Exact reports of error, unsupported and failed entries, and of a chain
# whose commands read names bound by earlier ones.
REPORTS = [
    (
        MALFORMED_HEAD + "sat I, 0;",
        {"schema": 1,
         "commands": [{"command": "sat", "status": "error", "error": "cannot saturate by zero"}],
         "status": {"errors": 1, "unsupported": 0, "failed_assertions": 0, "exit_code": 2}},
    ),
    (
        MALFORMED_HEAD + "diffpow --classical m 2;",
        {"schema": 1,
         "commands": [{"command": "diffpow", "status": "error",
                       "error": "diffpow --classical requires a degree bound"}],
         "status": {"errors": 1, "unsupported": 0, "failed_assertions": 0, "exit_code": 2}},
    ),
    (
        "field Fp(5); ring [x, y]; ideal I = x, y; diffpow --classical I 2 bound 3;",
        {"schema": 1,
         "commands": [{"command": "diffpow", "status": "unsupported",
                       "error": "classical differential powers are only computed over "
                                "characteristic zero"}],
         "status": {"errors": 0, "unsupported": 1, "failed_assertions": 0, "exit_code": 3}},
    ),
    (
        MALFORMED_HEAD + "assert-member x, I;",
        {"schema": 1,
         "commands": [{"command": "assert-member", "status": "failed", "poly": "x",
                       "ideal": "I", "ok": False}],
         "status": {"errors": 0, "unsupported": 0, "failed_assertions": 1, "exit_code": 1}},
    ),
    (
        MALFORMED_HEAD + "sat I, 0 as S; gb S;",
        {"schema": 1,
         "commands": [{"command": "sat", "status": "error", "error": "cannot saturate by zero"},
                      {"command": "gb", "status": "error",
                       "error": "'S' is unbound: the command that binds it failed or did "
                                "not run (at position 116)"}],
         "status": {"errors": 2, "unsupported": 0, "failed_assertions": 0, "exit_code": 2}},
    ),
    (
        MALFORMED_HEAD + "gb I as G; nf f + y, G; intersect G, m as T; sat T, x;",
        {"schema": 1,
         "commands": [{"command": "gb", "status": "ok", "ideal": "I", "basis": ["y", "x^2"]},
                      {"command": "nf", "status": "ok", "poly": "x + 2*y", "ideal": "G",
                       "normal_form": "x"},
                      {"command": "intersect", "status": "ok", "left": "G", "right": "m",
                       "result": ["y", "x^2"]},
                      {"command": "sat", "status": "ok", "ideal": "T", "witness": "x",
                       "result": ["1"]}],
         "status": {"errors": 0, "unsupported": 0, "failed_assertions": 0, "exit_code": 0}},
    ),
]


@pytest.mark.parametrize(
    "text, expected", REPORTS,
    ids=["error", "no-bound", "unsupported", "failed", "unbound", "bound-chain"],
)
def test_report_bytes(text, expected):
    # json.dumps keeps key order, so the dict literal pins the bytes.
    assert json.dumps(run(parse_script(text)), indent=2) == json.dumps(expected, indent=2)


@pytest.mark.parametrize(
    "codes, worst",
    [((0,), 0), ((1, 0), 1), ((1, 3), 3), ((3, 1), 3), ((1, 3, 2), 2), ((2, 3), 2), ((3, 2, 0), 2)],
)
def test_examples_exit_with_the_worst_code(monkeypatch, capsys, codes, worst):
    head = "field QQ; ring [x, y]; ideal I = x^2, y; "
    by_code = {
        0: head + "assert-member y, I;",
        1: head + "assert-member x, I;",
        2: head + "sat I, 0;",
        3: "field Fp(5); ring [x, y]; ideal I = x, y; diffpow --classical I 2 bound 3;",
    }
    monkeypatch.setattr(
        "noethops.cli.EXAMPLE_SCRIPTS", [(f"exit-{c}", by_code[c]) for c in codes]
    )
    assert main(["examples"]) == worst
    assert [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()] == [
        "ok" if c == 0 else f"exit {c}" for c in codes
    ]
