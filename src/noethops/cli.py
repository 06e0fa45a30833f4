"""Batch command-line front end.

A script declares a coefficient field, a ring, and named objects, then
issues commands against them::

    field QQ;
    ring QQ[x, y];
    ideal I = x^2, y;
    point P = (0, 0);
    noeth I at P;

Statements end with ';' and '#' starts a comment.  The commands that
result in an ideal (gb, sat, intersect, sympow, diffpow) may bind it to a
new name with ``as N``; later commands take a bound ideal as an argument,
but no expression can read a bound name.  Output is deterministic:
generator lists are reduced Groebner bases sorted ascending by leading
monomial, and JSON reports carry ``schema: 1``.

Exit codes: 0 ok, 1 failed assertion or failed chain verdict, 2 input
error, 3 unsupported computation.
"""

import argparse
import copy
import json
import re
import sys

from .dualspace import noetherian_operators
from .errors import (
    NoethopsError,
    ParseError,
    UndeclaredNameError,
    UnsupportedCharacteristicError,
)
from .fields import GF, QQ, AlgExtField, RatFuncField
from .groebner import Ideal, MonomialOrder, ideal_equal, intersect, saturate
from .poly import (
    END,
    INT,
    NAME,
    SYM,
    PolyRing,
    TokenStream,
    _PolyParser,
    to_unipoly,
    tokenize,
)
from .powers import (
    PrimeData,
    _ideal_json,
    chain_check,
    diff_power_classical_graded,
    diff_power_new,
    diff_power_new_point,
    symbolic_power,
)

SCHEMA_VERSION = 1

# The statement keywords.  The parser's stmt_<keyword> method ('-' read
# as '_') is the one definition of a statement: declarations are evaluated
# while parsing, and every other statement is parsed, checked and given
# the closure that runs it and builds its report.  Each COMMANDS keyword
# is also a subcommand that runs only the commands of that kind.
DECLARATIONS = ("field", "ring", "poly", "ideal", "point", "prime")
COMMANDS = ("gb", "nf", "sat", "intersect", "noeth", "sympow", "diffpow", "check-zn")
ASSERTIONS = ("assert-equal", "assert-member")
KEYWORDS = DECLARATIONS + COMMANDS + ASSERTIONS
IDEAL_KINDS = {"ideal", "prime"}


# A comment runs from '#' to the end of its line, as str.splitlines ends it.
_COMMENT_RE = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def _strip_comments(text):
    """text with each comment blanked out, so that positions count in text."""
    return _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)


def parse_field_descriptor(ts):
    """QQ | Fp(p) | <field>(t) | ext(<base>, u, <minpoly>)"""
    tok = ts.expect(NAME)
    if tok[1] == "QQ":
        field = QQ
    elif tok[1] == "Fp":
        ts.expect(SYM, "(")
        p = ts.expect(INT)[1]
        ts.expect(SYM, ")")
        try:
            field = GF(p)
        except ValueError as exc:
            raise ParseError(str(exc), tok[2])
    elif tok[1] == "ext":
        ts.expect(SYM, "(")
        base = parse_field_descriptor(ts)
        ts.expect(SYM, ",")
        gen = ts.expect(NAME)[1]
        ts.expect(SYM, ",")
        try:
            scratch = PolyRing(base, [gen])
        except ValueError as exc:
            raise ParseError(str(exc), tok[2]) from None
        minpoly = _PolyParser(ts, scratch).parse_expr()
        ts.expect(SYM, ")")
        try:
            field = AlgExtField(base, gen, to_unipoly(minpoly))
        except ValueError as exc:
            raise ParseError(str(exc), tok[2])
    else:
        raise ParseError(f"unknown field descriptor {tok[1]!r}", tok[2])
    while ts.peek()[:2] == (SYM, "("):
        save = ts.i
        ts.next()
        var = ts.accept(NAME)
        if var is None or ts.peek()[:2] != (SYM, ")"):
            ts.i = save
            break
        ts.next()
        try:
            field = RatFuncField(field, var[1])
        except ValueError as exc:
            raise ParseError(str(exc), var[2]) from None
    return field


class _ScriptPolyParser(_PolyParser):
    """Polynomial expressions inside scripts may also reference declared
    poly objects by name (ring variables and field generators win), but
    not other declared kinds, nor names bound by a command, whose values
    exist only once it runs."""

    def __init__(self, ts, ring, script):
        super().__init__(ts, ring)
        self.script = script

    def parse_atom(self):
        tok = self.ts.peek()
        if (
            tok[0] == NAME
            and tok[1] not in self.ring.variables
            and tok[1] not in self.generators
        ):
            entry = self.script.objects.get(tok[1])
            if entry is not None:
                kind, value = entry
                if value is None:
                    what = "a command result"
                elif kind != "poly":
                    what = f"a declared {kind}"
                else:
                    self.ts.next()
                    return value
                raise ParseError(
                    f"{tok[1]!r} is {what} and cannot appear in an expression", tok[2]
                )
        return super().parse_atom()


class Command:
    """One command statement: `execute(script, default_bound)` resolves its
    names, computes, and returns (report fields, value to bind)."""

    def __init__(self, kind, pos, bind, execute):
        self.kind = kind
        self.pos = pos
        self.bind = bind
        self.execute = execute


class Script:
    """Validated script: declared objects plus the command list."""

    def __init__(self, order_kind="grevlex"):
        self.field = None
        self.ring = None
        self.order_kind = order_kind
        self.objects = {}  # name -> (kind, object or None for future bindings)
        self.commands = []

    @property
    def order(self):
        if self.order_kind == "lex":
            return MonomialOrder.lex(self.ring)
        return MonomialOrder.grevlex(self.ring)

    def declare(self, name, kind, obj, pos):
        if name in self.objects:
            raise ParseError(f"name {name!r} already declared", pos)
        self.objects[name] = (kind, obj)

    def lookup(self, name, kinds, pos):
        if name not in self.objects:
            raise UndeclaredNameError(f"undeclared name {name!r}", pos)
        kind, obj = self.objects[name]
        if kind not in kinds:
            raise ParseError(
                f"{name!r} is {'an' if kind[0] in 'aeiou' else 'a'} {kind}, "
                f"expected one of {sorted(kinds)}", pos
            )
        return obj

    def as_ideal(self, name, pos):
        """The ideal an ideal or prime name holds once the script runs."""
        obj = self.lookup(name, IDEAL_KINDS, pos)
        if obj is None:
            raise UndeclaredNameError(
                f"{name!r} is unbound: the command that binds it failed or did not run",
                pos,
            )
        return obj.ideal if isinstance(obj, PrimeData) else obj


class _ScriptParser:
    def __init__(self, text, order_kind="grevlex"):
        self.ts = TokenStream(tokenize(_strip_comments(text), symbols="+-*/^(),;=:[]"))
        self.script = Script(order_kind)

    def parse(self):
        while self.ts.peek()[0] != END:
            pos = self.ts.peek()[2]
            try:
                self.statement()
            except RecursionError:
                raise ParseError("statement nested too deeply", pos) from None
        if self.script.ring is None and self.script.commands:
            raise ParseError("no ring declared", 0)
        return self.script

    # -- helpers ----------------------------------------------------------

    def _keyword(self):
        tok = self.ts.expect(NAME)
        word = tok[1]
        # hyphenated keywords arrive as NAME '-' NAME
        while self.ts.peek()[:2] == (SYM, "-") and any(
            k.startswith(word + "-") for k in KEYWORDS
        ):
            self.ts.next()
            word += "-" + self.ts.expect(NAME)[1]
        return word, tok[2]

    def _require_ring(self, pos):
        if self.script.ring is None:
            raise ParseError("ring must be declared first", pos)
        return self.script.ring

    def _parse_poly(self, pos):
        ring = self._require_ring(pos)
        return _ScriptPolyParser(self.ts, ring, self.script).parse_expr()

    def _parse_constant(self, pos):
        f = self._parse_poly(pos)
        if f.total_degree() > 0:
            raise ParseError("expected a constant coordinate", pos)
        return f.coefficient((0,) * self.script.ring.nvars)

    def _parse_point_literal(self, pos):
        self.ts.expect(SYM, "(")
        coords = [self._parse_constant(pos)]
        while self.ts.accept(SYM, ","):
            coords.append(self._parse_constant(pos))
        self.ts.expect(SYM, ")")
        if len(coords) != self.script.ring.nvars:
            raise ParseError(
                f"point arity {len(coords)} != ring arity {self.script.ring.nvars}", pos
            )
        return tuple(coords)

    def _parse_point_ref(self, pos):
        tok = self.ts.peek()
        if tok[:2] == (SYM, "("):
            return self._parse_point_literal(pos)
        name = self.ts.expect(NAME)
        return self.script.lookup(name[1], {"point"}, name[2])

    def _parse_gens(self, pos):
        gens = [self._parse_poly(pos)]
        while self.ts.accept(SYM, ","):
            gens.append(self._parse_poly(pos))
        return gens

    def _parse_bound(self):
        if self.ts.accept(NAME, "bound"):
            return self.ts.expect(INT)[1]
        return None

    def _close(self, *args, binds=False):
        """End a statement: 'as NAME' if the command binds an ideal, ';', then
        check each (name token, kinds) argument; declare and return NAME."""
        bind = self.ts.expect(NAME) if binds and self.ts.accept(NAME, "as") else None
        self.ts.expect(SYM, ";")
        for tok, kinds in args:
            self.script.lookup(tok[1], kinds, tok[2])
        if bind:
            self.script.declare(bind[1], "ideal", None, bind[2])
        return bind and bind[1]

    # -- statements -------------------------------------------------------

    def statement(self):
        word, pos = self._keyword()
        if word not in KEYWORDS:
            raise ParseError(f"unknown statement {word!r}", pos)
        command = getattr(self, "stmt_" + word.replace("-", "_"))(pos)
        if word not in DECLARATIONS:
            self.script.commands.append(Command(word, pos, *command))

    def stmt_field(self, pos):
        if self.script.ring is not None:  # the ring is built over the field already
            raise ParseError("field declared after the ring", pos)
        self.script.field = parse_field_descriptor(self.ts)
        self._close()

    def stmt_ring(self, pos):
        if self.script.ring is not None:
            raise ParseError("ring already declared", pos)
        if self.ts.peek()[0] == NAME:
            self.script.field = parse_field_descriptor(self.ts)
        if self.script.field is None:
            raise ParseError("no coefficient field declared", pos)
        self.ts.expect(SYM, "[")
        names = [self.ts.expect(NAME)[1]]
        while self.ts.accept(SYM, ","):
            names.append(self.ts.expect(NAME)[1])
        self.ts.expect(SYM, "]")
        self._close()
        try:
            self.script.ring = PolyRing(self.script.field, names)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def stmt_poly(self, pos):
        name = self.ts.expect(NAME)
        self.ts.expect(SYM, "=")
        f = self._parse_poly(pos)
        self._close()
        self.script.declare(name[1], "poly", f, name[2])

    def stmt_ideal(self, pos):
        name = self.ts.expect(NAME)
        self.ts.expect(SYM, "=")
        gens = self._parse_gens(pos)
        self._close()
        I = Ideal(self.script.ring, gens, self.script.order)
        self.script.declare(name[1], "ideal", I, name[2])

    def stmt_point(self, pos):
        name = self.ts.expect(NAME)
        self.ts.expect(SYM, "=")
        self._require_ring(pos)
        coords = self._parse_point_literal(pos)
        self._close()
        self.script.declare(name[1], "point", coords, name[2])

    def stmt_prime(self, pos):
        name = self.ts.expect(NAME)
        self.ts.expect(SYM, "=")
        gens = self._parse_gens(pos)
        self.ts.expect(SYM, ":")
        kind_tok = self.ts.expect(NAME)
        ring = self.script.ring
        try:
            if kind_tok[1] == "point":
                point = self._parse_point_ref(kind_tok[2])
                prime = PrimeData.rational_point(
                    ring, point, ideal=Ideal(ring, gens, self.script.order)
                )
            elif kind_tok[1] == "univariate":
                if len(gens) != 1:
                    raise ParseError(
                        "univariate primes take a single generator", kind_tok[2]
                    )
                prime = PrimeData.univariate(gens[0])
            elif kind_tok[1] == "witness":
                witness = self._parse_poly(kind_tok[2])
                prime = PrimeData.with_witness(
                    Ideal(ring, gens, self.script.order), witness
                )
            else:
                raise ParseError(f"unknown prime kind {kind_tok[1]!r}", kind_tok[2])
        except (ValueError, NoethopsError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), kind_tok[2])
        self._close()
        self.script.declare(name[1], "prime", prime, name[2])

    # Each command statement below returns (bound name, execute).  Its
    # execute(script, default_bound) resolves names when the script runs,
    # because a bound name holds a value only once its command has run.

    def stmt_gb(self, pos):
        tok = self.ts.expect(NAME)
        bind = self._close((tok, IDEAL_KINDS), binds=True)

        def execute(script, default_bound):
            I = script.as_ideal(tok[1], pos)
            basis = list(I.groebner_basis)
            fields = {"ideal": tok[1], "basis": [str(g) for g in basis]}
            return fields, Ideal(I.ring, basis, I.order, reduced=True)

        return bind, execute

    def stmt_nf(self, pos):
        f = self._parse_poly(pos)
        self.ts.expect(SYM, ",")
        tok = self.ts.expect(NAME)
        self._close((tok, IDEAL_KINDS))

        def execute(script, default_bound):
            r = script.as_ideal(tok[1], pos).normal_form(f)
            return {"poly": str(f), "ideal": tok[1], "normal_form": str(r)}, None

        return None, execute

    def stmt_sat(self, pos):
        tok = self.ts.expect(NAME)
        self.ts.expect(SYM, ",")
        s = self._parse_poly(pos)
        bind = self._close((tok, IDEAL_KINDS), binds=True)

        def execute(script, default_bound):
            result = saturate(script.as_ideal(tok[1], pos), s)
            return {"ideal": tok[1], "witness": str(s), "result": _ideal_json(result)}, result

        return bind, execute

    def stmt_intersect(self, pos):
        left = self.ts.expect(NAME)
        self.ts.expect(SYM, ",")
        right = self.ts.expect(NAME)
        bind = self._close((left, IDEAL_KINDS), (right, IDEAL_KINDS), binds=True)

        def execute(script, default_bound):
            result = intersect(script.as_ideal(left[1], pos), script.as_ideal(right[1], pos))
            return {"left": left[1], "right": right[1], "result": _ideal_json(result)}, result

        return bind, execute

    def stmt_noeth(self, pos):
        tok = self.ts.expect(NAME)
        at = self.ts.expect(NAME)
        if at[1] != "at":
            raise ParseError("expected 'at' in noeth command", at[2])
        point = self._parse_point_ref(pos)
        self._close((tok, IDEAL_KINDS))

        def execute(script, default_bound):
            res = noetherian_operators(script.as_ideal(tok[1], pos), point)
            return {"ideal": tok[1], **res.to_json()}, None

        return None, execute

    def stmt_sympow(self, pos):
        tok = self.ts.expect(NAME)
        n = self.ts.expect(INT)[1]
        bind = self._close((tok, {"prime"}), binds=True)

        def execute(script, default_bound):
            result = symbolic_power(script.objects[tok[1]][1], n)
            return {"prime": tok[1], "n": n, "result": _ideal_json(result)}, result

        return bind, execute

    def stmt_diffpow(self, pos):
        self.ts.expect(SYM, "-")
        self.ts.expect(SYM, "-")
        flag = self.ts.expect(NAME)
        variant = flag[1]
        if variant not in ("new", "classical"):
            raise ParseError("diffpow expects --new or --classical", flag[2])
        tok = self.ts.expect(NAME)
        point = None
        if self.ts.accept(NAME, "at"):
            point = self._parse_point_ref(pos)
        n = self.ts.expect(INT)[1]
        bound = self._parse_bound()
        on_prime = variant == "new" and point is None
        bind = self._close((tok, {"prime"} if on_prime else IDEAL_KINDS), binds=True)

        def execute(script, default_bound):
            if on_prime:
                result = diff_power_new(script.objects[tok[1]][1], n)
            elif variant == "new":
                result = diff_power_new_point(script.as_ideal(tok[1], pos), point, n)
            else:
                I = script.as_ideal(tok[1], pos)
                degree = default_bound if bound is None else bound
                if degree is None:
                    raise ValueError("diffpow --classical requires a degree bound")
                result = diff_power_classical_graded(I, n, degree)
            fields = {"variant": variant, "name": tok[1], "n": n, "result": _ideal_json(result)}
            return fields, result

        return bind, execute

    def stmt_check_zn(self, pos):
        tok = self.ts.expect(NAME)
        n = self.ts.expect(INT)[1]
        bound = self._parse_bound()
        self._close((tok, {"prime"}))

        def execute(script, default_bound):
            degree = default_bound if bound is None else bound
            report = chain_check(script.objects[tok[1]][1], n, agreement_bound=degree)
            return {"prime": tok[1], **report.to_json(), "failed": not report.all_hold()}, None

        return None, execute

    def stmt_assert_equal(self, pos):
        left = self.ts.expect(NAME)
        self.ts.expect(SYM, ",")
        right = self.ts.expect(NAME)
        self._close((left, IDEAL_KINDS), (right, IDEAL_KINDS))

        def execute(script, default_bound):
            ok = ideal_equal(script.as_ideal(left[1], pos), script.as_ideal(right[1], pos))
            return {"left": left[1], "right": right[1], "ok": ok, "failed": not ok}, None

        return None, execute

    def stmt_assert_member(self, pos):
        f = self._parse_poly(pos)
        self.ts.expect(SYM, ",")
        tok = self.ts.expect(NAME)
        self._close((tok, IDEAL_KINDS))

        def execute(script, default_bound):
            ok = script.as_ideal(tok[1], pos).contains(f)
            return {"poly": str(f), "ideal": tok[1], "ok": ok, "failed": not ok}, None

        return None, execute


def parse_script(text, order_kind="grevlex"):
    """Parse and validate a script; raises ParseError with position."""
    return _ScriptParser(text, order_kind).parse()


# Exit codes from best to worst: a run exits with the worst code of its
# commands, and a set of runs with the worst code of its runs.
_EXIT_ORDER = (0, 1, 3, 2)


def _worst(codes):
    return max(codes, key=_EXIT_ORDER.index, default=0)


def run(script, only=None, default_bound=None):
    """Execute a parsed script.  Per-command errors are captured and the
    run continues; the report carries everything needed for the exit
    code.  Results are bound in a scope of this run, so the script is left
    as parsing made it."""
    scope = copy.copy(script)
    scope.objects = dict(script.objects)
    entries = []
    counts = {"errors": 0, "unsupported": 0, "failed_assertions": 0}
    for cmd in script.commands:
        if only is not None and cmd.kind != only:
            continue
        entry = {"command": cmd.kind}
        try:
            fields, value = cmd.execute(scope, default_bound)
        except (UnsupportedCharacteristicError, MemoryError) as exc:
            entry["status"] = "unsupported"
            entry["error"] = "out of memory" if isinstance(exc, MemoryError) else str(exc)
            counts["unsupported"] += 1
        except (NoethopsError, ValueError, ZeroDivisionError) as exc:
            entry["status"] = "error"
            entry["error"] = str(exc)
            counts["errors"] += 1
        else:
            if cmd.bind:
                scope.objects[cmd.bind] = ("ideal", value)
            if fields.pop("failed", False):
                entry["status"] = "failed"
                counts["failed_assertions"] += 1
            else:
                entry["status"] = "ok"
            entry.update(fields)
        entries.append(entry)
    codes = {"errors": 2, "unsupported": 3, "failed_assertions": 1}
    exit_code = _worst(codes[key] for key, count in counts.items() if count)
    return {
        "schema": SCHEMA_VERSION,
        "commands": entries,
        "status": dict(counts, exit_code=exit_code),
    }


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for entry in report["commands"]:
        kind = entry["command"]
        status = entry["status"]
        detail = {
            k: v for k, v in entry.items() if k not in ("command", "status")
        }
        print(f"{kind} [{status}] {json.dumps(detail)}")
    status = report["status"]
    print(
        f"done: {status['errors']} errors, {status['unsupported']} unsupported, "
        f"{status['failed_assertions']} failed assertions"
    )


# Built-in regression scripts covering the library's worked examples.
EXAMPLE_SCRIPTS = []


def _register_examples():
    EXAMPLE_SCRIPTS.append((
        "grobner-duality",
        """
        field QQ;
        ring [x, y];
        point O = (0, 0);
        ideal I1 = x^2, y;
        ideal I2 = x^2, x*y, y^2;
        ideal I3 = x^3, y;
        ideal I4 = x^2, y + x;
        noeth I1 at O;
        noeth I2 at O;
        noeth I3 at O;
        noeth I4 at O;
        assert-member x^2, I1;
        assert-member (x + y)^3, I2;
        assert-member y + x, I4;
        """,
    ))
    EXAMPLE_SCRIPTS.append((
        "singular-cubic",
        """
        field QQ;
        ring [x, y, z];
        ideal J = x^3 + y^3 + z^3;
        point O = (0, 0, 0);
        prime m = x, y, z : point O;
        sympow m 2 as M2;
        diffpow --new J at O 2 as D2;
        assert-equal D2, M2;
        sympow m 3 as M3;
        diffpow --new J at O 3 as D3;
        assert-equal D3, M3;
        diffpow --new J at O 4 as D4;
        ideal E4 = x^3 + y^3 + z^3, x^4, x^3*y, x^3*z, x^2*y^2, x^2*y*z,
                   x^2*z^2, x*y^3, x*y^2*z, x*y*z^2, x*z^3, y^4, y^3*z,
                   y^2*z^2, y*z^3, z^4;
        assert-equal D4, E4;
        """,
    ))
    for p in (2, 3, 5):
        EXAMPLE_SCRIPTS.append((
            f"inseparable-p{p}",
            f"""
            field Fp({p})(t);
            ring [x];
            prime q = x^{p} - t : univariate;
            ideal P1 = x^{p} - t;
            ideal P2 = (x^{p} - t)^2;
            diffpow --new q 2 as D;
            assert-equal D, P1;
            sympow q 2 as S;
            assert-equal S, P2;
            check-zn q 2;
            """,
        ))
    EXAMPLE_SCRIPTS.append((
        "separable-control",
        """
        field QQ;
        ring [x];
        prime q = x^2 - 2 : univariate;
        ideal E = (x^2 - 2)^2;
        diffpow --new q 2 as D;
        assert-equal D, E;
        check-zn q 2;
        """,
    ))
    lines = [
        "field QQ;",
        "ring [x, y];",
        "point O = (0, 0);",
        "prime m = x, y : point O;",
    ]
    for n in (1, 2, 3, 4):
        lines += [
            f"sympow m {n} as S{n};",
            f"diffpow --new m {n} as D{n};",
            f"diffpow --classical m {n} bound {n + 1} as C{n};",
            f"assert-equal S{n}, D{n};",
            f"assert-equal S{n}, C{n};",
        ]
    EXAMPLE_SCRIPTS.append(("smooth-collapse", "\n".join(lines)))
    EXAMPLE_SCRIPTS.append((
        "twisted-cubic",
        """
        field QQ;
        ring [x, y, z, w];
        prime c = x*z - y^2, y*w - z^2, x*w - y*z : witness x;
        check-zn c 2 bound 6;
        sympow c 2 as S2;
        assert-member (x*z - y^2)^2, S2;
        """,
    ))


_register_examples()


def _read_script(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="noethops",
        description="Exact computations with Noetherian operators, dual "
        "spaces and differential powers of ideals.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subcommands = [("run", "run every command in a script")]
    subcommands += [(kind, f"run only the {kind} commands of a script") for kind in COMMANDS]
    subcommands.append(("examples", "run the built-in regression scripts"))
    for name, help_text in subcommands:
        p = sub.add_parser(name, help=help_text)
        if name != "examples":
            p.add_argument("script", help="script path, or - for stdin")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--order", choices=["lex", "grevlex"], default="grevlex")
        p.add_argument("--bound", type=int, default=None, help="default degree bound")
    args = parser.parse_args(argv)

    if args.subcommand == "examples":
        scripts = []
        for name, text in EXAMPLE_SCRIPTS:
            script = parse_script(text, order_kind=args.order)
            report = run(script, default_bound=args.bound)
            scripts.append({"name": name, **report})
        if args.json:
            print(json.dumps({"schema": SCHEMA_VERSION, "scripts": scripts}, indent=2))
        else:
            for entry in scripts:
                status = entry["status"]
                ok = "ok" if status["exit_code"] == 0 else f"exit {status['exit_code']}"
                print(f"{entry['name']}: {ok}")
        return _worst(entry["status"]["exit_code"] for entry in scripts)

    only = None if args.subcommand == "run" else args.subcommand
    try:
        text = _read_script(args.script)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        script = parse_script(text, order_kind=args.order)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    report = run(script, only=only, default_bound=args.bound)
    _print_report(report, args.json)
    return report["status"]["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
