"""Spans and counters for the traced run, recorded from the benchmark's own
files: the engine is not edited, its public entry points are wrapped.

A wrapped function is replaced under every name that binds it, so that
``noethops.dualspace.kernel_basis`` is traced as well as
``noethops.linalg.kernel_basis``.  Each call records a span (name, start,
end, parent, job) in memory; the spans are written out at the end of the
run.  A layer's self time is the time of its spans minus the part their
child spans cover.  Functions called millions of times a job (field
arithmetic, monomial helpers) are not wrapped: their time counts to the
span that called them.  ``fields.invert`` is only counted.

Time the tracer spends in its own hooks is recorded as a ``trace.hook``
span, so it is excluded from the self time of the layer that called.
"""

import json
import random
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

LAYERS = ("cli", "linalg", "groebner", "weyl", "dualspace", "powers", "poly", "fields")

# (layer, module, attribute) of every wrapped entry point; "Class.method"
# wraps a method.  The span is named "<layer>.<function name>".
SPANNED = (
    ("cli", "noethops.cli", "parse_script"),
    ("cli", "noethops.cli", "run"),
    ("linalg", "noethops.linalg", "kernel_basis"),
    ("groebner", "noethops.groebner", "Ideal.normal_form"),
    ("groebner", "noethops.groebner", "Ideal.standard_monomials"),
    ("groebner", "noethops.groebner", "ideal_power"),
    ("groebner", "noethops.groebner", "ideal_sum"),
    ("groebner", "noethops.groebner", "ideal_equal"),
    ("groebner", "noethops.groebner", "intersect"),
    ("groebner", "noethops.groebner", "saturate"),
    ("weyl", "noethops.weyl", "DiffOp.to_json"),
    ("weyl", "noethops.weyl", "DiffOp.from_functional"),
    ("dualspace", "noethops.dualspace", "truncated_dual"),
    ("dualspace", "noethops.dualspace", "stable_dual"),
    ("dualspace", "noethops.dualspace", "noetherian_operators"),
    ("dualspace", "noethops.dualspace", "functional_to_operator"),
    ("powers", "noethops.powers", "symbolic_power"),
    ("powers", "noethops.powers", "diff_power_classical_member"),
    ("powers", "noethops.powers", "diff_power_classical_graded"),
    ("powers", "noethops.powers", "diff_power_new_point"),
    ("powers", "noethops.powers", "diff_power_new_univariate"),
    ("powers", "noethops.powers", "chain_check"),
    ("poly", "noethops.poly", "Polynomial.translate"),
    ("poly", "noethops.poly", "Polynomial.diff_multi"),
    ("poly", "noethops.poly", "Polynomial.evaluate"),
)
COUNTED = (("fields", "noethops.fields", "invert"),)


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own.  A span is a tuple whose
    first four fields are (name, start, end, parent index or -1)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


class Tracer:
    """In-memory spans plus counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, job)
        self.stack = []
        self.job = -1
        self.counters = defaultdict(float)
        self.missing = []  # entry points this version of the engine lacks
        self._undo = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counters[name.split(".", 1)[0] + ".errors"] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def hook(self, fn, *args):
        """Run tracer bookkeeping in a span of its own, outside every layer."""
        self.call("trace.hook", fn, *args)

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                self.hook(after, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters
        errors = name.split(".", 1)[0] + ".errors"

        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counters[errors] += 1
                raise

        return wrapper

    # -- hooks that measure work ------------------------------------------

    def _after_kernel_basis(self, args, basis):
        rows, ncols = args[0], args[1]
        c = self.counters
        c["linalg.rows"] += len(rows)
        c["linalg.cells"] += len(rows) * ncols
        # Rows are lists today; a sparse kernel may pass {column: value}.
        c["linalg.nnz"] += sum(
            1 for row in rows for v in (row.values() if isinstance(row, dict) else row) if v
        )
        c["linalg.rank"] += ncols - len(basis)
        c["linalg.cols_max"] = max(c["linalg.cols_max"], ncols)

    def _after_truncated_dual(self, args, basis):
        ideal, k = args[0], args[2]
        self.counters["dualspace.columns"] += comb(ideal.ring.nvars + k, k)

    def _after_stable_dual(self, args, basis):
        self.counters["dualspace.final_dim"] += basis.dimension

    # -- patching -----------------------------------------------------------

    def _replace(self, module, attr, wrapper_for):
        """Swap `attr` of `module` (or of a class in it) for its wrapper,
        also in every noethops module that imported it by name.  An entry
        point the engine no longer has is listed in `missing` and its
        metrics read 0."""
        owner = sys.modules[module]
        path = attr
        if "." in attr:
            cls_name, attr = attr.split(".")
            orig = vars(getattr(owner, cls_name, object)).get(attr)
            if orig is None:
                self.missing.append(f"{module}.{path}")
                return
            if isinstance(orig, classmethod):
                orig = classmethod(wrapper_for(orig.__func__))
            elif isinstance(orig, property):
                orig = property(wrapper_for(orig.fget))
            else:
                orig = wrapper_for(orig)
            self._set(getattr(owner, cls_name), attr, orig)
            return
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{module}.{path}")
            return
        wrapper = wrapper_for(orig)
        for name, mod in list(sys.modules.items()):
            if name == "noethops" or name.startswith("noethops."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import noethops.cli  # noqa: F401  (loads every engine module)

        self.missing = []
        after = {
            "kernel_basis": self._after_kernel_basis,
            "truncated_dual": self._after_truncated_dual,
            "stable_dual": self._after_stable_dual,
        }
        for layer, module, attr in SPANNED:
            short = attr.rsplit(".", 1)[-1]
            name = f"{layer}.{short}"
            self._replace(module, attr, lambda f, n=name, a=after.get(short): self._spanned(n, f, a))
        for layer, module, attr in COUNTED:
            self._replace(module, attr, lambda f, n=f"{layer}.{attr}": self._counted(n, f))

        self._replace("noethops.groebner", "Ideal.groebner_basis", self._cached_basis)

    def _cached_basis(self, getter):
        """The reduced basis is built on first use and cached on the Ideal:
        a use that finds it cached counts as a hit, a build is a span."""
        counters = self.counters

        def after_build(args, basis):
            counters["groebner.basis_terms"] += sum(len(g.terms) for g in basis)

        def groebner_basis(ideal):
            counters["groebner.basis_requests"] += 1
            if vars(ideal).get("_gb") is not None:
                return getter(ideal)
            basis = self.call("groebner.build", getter, ideal)
            self.hook(after_build, (ideal,), basis)
            return basis

        return groebner_basis

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_us", "end_us", "parent", "job"],
                    "names": names,
                    "spans": [
                        [index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, j]
                        for n, s, e, p, j in self.spans
                    ],
                },
                handle,
                separators=(",", ":"),
            )

    def layer_metrics(self, jobs):
        """Per-layer metrics over `jobs` traced jobs; times are ms per job."""
        own = self_times(self.spans)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for span, t in zip(self.spans, own):
            self_ms[span[0]] += t * 1e3
            calls[span[0]] += 1
        c = self.counters
        per_job = 1.0 / jobs

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for layer in LAYERS:
            if layer != "fields":
                m[f"{layer}.self_ms"] = sum(
                    v for k, v in self_ms.items() if k.split(".", 1)[0] == layer
                ) * per_job
            m[f"{layer}.errors"] = c[f"{layer}.errors"]
        for name in (
            "cli.parse_script", "cli.run", "linalg.kernel_basis",
            "dualspace.truncated_dual", "dualspace.stable_dual",
            "dualspace.noetherian_operators", "groebner.build", "groebner.saturate",
            "groebner.intersect", "groebner.normal_form", "powers.chain_check",
            "powers.diff_power_classical_member", "powers.symbolic_power",
            "powers.diff_power_new_univariate", "weyl.to_json", "poly.translate",
        ):
            m[f"{name}.self_ms"] = self_ms[name] * per_job
        for name in (
            "linalg.kernel_basis", "dualspace.truncated_dual", "groebner.build",
            "groebner.normal_form", "powers.diff_power_classical_member", "poly.diff_multi",
        ):
            m[f"{name}.calls"] = calls[name] * per_job
        m["cli.render_ms"] = self_ms["cli.render"] * per_job
        m["linalg.cols_max"] = c["linalg.cols_max"]
        m["linalg.fill"] = ratio(c["linalg.nnz"], c["linalg.cells"])
        m["linalg.rank_ratio"] = ratio(c["linalg.rank"], c["linalg.rows"])
        m["dualspace.useful_ratio"] = ratio(c["dualspace.final_dim"], c["dualspace.columns"])
        m["groebner.basis_terms"] = ratio(c["groebner.basis_terms"], calls["groebner.build"])
        m["groebner.cache_hit_ratio"] = 1.0 - ratio(
            calls["groebner.build"], c["groebner.basis_requests"]
        )
        m["groebner.normal_form.us_per_call"] = ratio(
            self_ms["groebner.normal_form"] * 1e3, calls["groebner.normal_form"]
        )
        m["fields.invert.calls"] = c["fields.invert.calls"] * per_job
        layer_ms = sum(m[f"{layer}.self_ms"] for layer in LAYERS if layer != "fields")
        job_ms = sum(s[2] - s[1] for s in self.spans if s[0] == "job") * 1e3 * per_job
        m["trace.self_share"] = ratio(layer_ms, job_ms)
        return m


def field_rungs():
    """ops/s (unscaled) of a fixed seeded mul/add/invert rung in each kind
    of field."""
    from noethops import GF, QQ, AlgExtField, RatFuncField, UniPoly, invert

    rng = random.Random("field-rungs")

    def nz(lo, hi):
        while True:
            v = rng.randint(lo, hi)
            if v:
                return v

    F7t = RatFuncField(GF(7), "t")
    t = F7t.generator()
    F3t = RatFuncField(GF(3), "t")
    s = F3t.generator()
    ext = AlgExtField(F3t, "u", UniPoly(F3t, [-s, F3t.zero(), F3t.zero(), F3t.one()]))
    u = ext.generator()
    samples = {
        "qq": (lambda: QQ.coerce(nz(-99, 99)) / nz(1, 99), 20000),
        "gfp": (lambda: GF(32003).from_int(nz(1, 32002)), 20000),
        "ratfunc": (lambda: (t**2 + nz(0, 6) * t + nz(1, 6)) / (t + nz(1, 6)), 1500),
        "algext": (lambda: sum((u**i * (s + nz(1, 2)) for i in range(3)), ext.zero()) + 1, 40),
    }
    out = {}
    for name, (sample, iters) in samples.items():
        pool = [sample() for _ in range(16)]
        start = perf_counter()
        for i in range(iters):
            a, b = pool[i % 16], pool[(7 * i + 3) % 16]
            a * b + a
            invert(b)
        out[f"fields.{name}.ops_per_s"] = 3 * iters / (perf_counter() - start)
    return out
