"""noethops benchmark: batch-script jobs, end to end and layer by layer.

A job is what a user runs: one script's text through ``cli.parse_script``,
``cli.run`` and ``json.dumps(report, indent=2)``.  Jobs run in this
process, in a closed loop with one client and no think time, and each is
checked after the timed loop (see checks.py).

    python3 bench/run.py --workload noeth-dual --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare before.txt after.txt
    python3 bench/run.py --write-reference

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans go to ``.bench_out/``.  The line before it holds the run's metadata
and the sha256 of every report, which ``--compare`` reads.  Run from the
root of the repository.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
TAIL_BEYOND = 10
# Nominal time of one calibration() call: about its uncontended time on a
# 2-vCPU x86-64 VM under CPython 3.11.  See scaled_time().
CALIBRATION_S = 0.0004
SAMPLE_EVERY_S = 0.02


def _engine():
    """Put src/ on the path; refuse to run without the engine's sources."""
    if not (SRC / "noethops" / "__init__.py").is_file():
        sys.exit(f"error: no engine sources at {SRC / 'noethops'}; run from a checkout")
    sys.path.insert(0, str(SRC))


# -- timing ---------------------------------------------------------------------


def calibration():
    """Time of a fixed piece of pure-Python work (exact rationals and a
    tuple-keyed dict, like the engine's inner loops)."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 160):
        acc += Fraction(1, i % 31 + 1)
        table[(i % 7, i % 5)] = acc
    return perf_counter() - start


def scaled_time(marks):
    """(raw, scaled) seconds of a timed region from its calibration marks.

    On a shared host the same work can take 1.9x longer from one quarter
    second to the next, because other tenants' load slows the core; that
    moved whole 15-s runs by 25%.  So each stretch of the region between
    two calibration marks is scaled by CALIBRATION_S over the mean of the
    two calibration times: the figure is the time the work takes at the
    calibration loop's nominal speed.  It keeps every change to the
    engine's own cost and drops most of the host's.

    marks: (start, end, calibration seconds) in time order.  The first and
    last are the region's own start and end; the time inside the others is
    spent calibrating and is left out.
    """
    raw = scaled = 0.0
    for (_, left_end, left), (right_start, _, right) in zip(marks, marks[1:]):
        stretch = right_start - left_end
        raw += stretch
        scaled += stretch * CALIBRATION_S * 2 / (left + right)
    return raw, scaled


def timed(fn, sample=True):
    """(raw seconds, scaled seconds, fn()).  Calibrates before and after fn
    and, with `sample`, every SAMPLE_EVERY_S while it runs (from a SIGALRM
    handler, which Python runs between two bytecodes of fn)."""
    marks = []
    stopped = False

    def tick(signum, frame):
        if not stopped:
            start = perf_counter()
            cal = calibration()
            marks.append((start, perf_counter(), cal))

    before = calibration()
    previous = signal.signal(signal.SIGALRM, tick) if sample else None
    start = perf_counter()
    marks.append((start, start, before))
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result = fn()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            stopped = True
        end = perf_counter()
        if sample:
            signal.signal(signal.SIGALRM, previous)
    marks.append((end, end, calibration()))
    return scaled_time(marks) + (result,)


# -- set-up -----------------------------------------------------------------------


def setup(workload_name, seed):
    """Import the engine, generate the inputs and warm up: everything that
    comes before the first job.  Returns the workload's round iterator."""
    from noethops import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    rounds = workload.rounds(seed)
    first = next(rounds)
    json.dumps(cli.run(cli.parse_script(workload.warmup)), indent=2)

    def all_rounds():
        yield first
        yield from rounds

    return all_rounds()


def setup_seconds(workload, seed):
    """(raw, scaled) time from starting a fresh interpreter to its first
    job being ready.  Only the calibrations around it scale it: sampling
    inside would compete with the child for the CPU."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def until_ready():
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        return proc, proc.stdout.readline()

    raw, scaled, (proc, line) = timed(until_ready, sample=False)
    with proc:
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"error: set-up probe failed (exit {code}, said {line!r})")
    return raw, scaled


# -- the timed loop ---------------------------------------------------------------


def render(report):
    return json.dumps(report, indent=2)


def run_job(job, cli, tracer=None):
    """One job; returns (raw seconds, scaled seconds, report text or None,
    error or None).  Traced jobs are only calibrated around: a sample
    taken inside would land in some layer's self time."""
    def body():
        try:
            report = cli.run(cli.parse_script(job.text))
            if tracer is None:
                return render(report), None
            return tracer.call("cli.render", render, report), None
        except Exception as exc:  # a failed job is counted, the run goes on
            return None, f"{type(exc).__name__}: {exc}"

    if tracer is None:
        raw, scaled, (text, error) = timed(body)
    else:
        raw, scaled, (text, error) = timed(lambda: tracer.call("job", body), sample=False)
    return raw, scaled, text, error


def run_round(jobs, cli, tracer=None):
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.job += 1
        out.append((job,) + run_job(job, cli, tracer))
    # Collect between rounds, outside the timed jobs, so that every round
    # starts from the same heap instead of inheriting the last one's garbage.
    gc.collect()
    return out


def timed_rounds(rounds, seconds, cli, tracer=None):
    """Whole rounds while the next one is expected to end within `seconds`.
    With a tracer, each round runs untraced and then traced."""
    plain, traced = [], []
    start = perf_counter()
    done = 0
    while True:
        jobs = next(rounds)
        plain += run_round(jobs, cli)
        if tracer is not None:
            tracer.install()
            try:
                traced += run_round(jobs, cli, tracer)
            finally:
                tracer.uninstall()
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return plain, traced, done, elapsed


# -- checks and metrics -----------------------------------------------------------


def check_results(results):
    """Failed-job count and a few messages; each distinct (script, report)
    pair is checked once."""
    from checks import job_problems, report_sha256, script_key

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    memo = {}
    failed = 0
    messages = []
    outputs = {}
    for job, _, _, text, error in results:
        if error is not None:
            problems = [error]
        else:
            outputs[script_key(job.text)] = report_sha256(text)
            key = (job.text, text)
            if key not in memo:
                memo[key] = job_problems(job, text, reference.get(job.workload, {}))
            problems = memo[key]
        if problems:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{job.shape}/{job.variant}: {'; '.join(problems)}")
    return failed, messages, outputs


def tail(latencies):
    """Latency at the highest percentile with >= TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def timing_metrics(latencies, setups):
    """job_p50_ms, job_tail_ms, jobs_per_s and setup_s, plus the tail's
    percentile and its sample count."""
    tail_s, percentile, beyond = tail(latencies)
    metrics = {
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "jobs_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setups),
    }
    return metrics, {"samples": len(latencies), "tail_percentile": round(percentile, 2),
                     "tail_samples_beyond": beyond}


def end_to_end(results, failed, setups):
    """The end-to-end metrics from scaled times; the raw ones go to the
    metadata."""
    n = len(results)
    metrics, extra = timing_metrics([r[2] for r in results], [s[1] for s in setups])
    raw, _ = timing_metrics([r[1] for r in results], [s[0] for s in setups])
    units = {"job_p50_ms": "ms", "job_tail_ms": "ms", "jobs_per_s": "1/s", "setup_s": "s"}
    out = {k: (v, units[k]) for k, v in metrics.items()}
    out["ok_share"] = ((n - failed) / n, "share")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra["raw"] = raw
    return out, extra


PER_LAYER_UNITS = (
    ("self_ms", "ms/job"), ("render_ms", "ms/job"), ("calls", "count/job"), ("errors", "count"),
    ("cols_max", "count"), ("basis_terms", "count"), ("us_per_call", "us"), ("per_s", "1/s"),
)


def per_layer_unit(name):
    return next((unit for suffix, unit in PER_LAYER_UNITS if name.endswith(suffix)), "ratio")


def per_layer(plain, traced, tracer):
    from tracing import field_rungs

    metrics = tracer.layer_metrics(len(traced))
    metrics.update(field_rungs())
    plain_s = sum(r[2] for r in plain)
    traced_s = sum(r[2] for r in traced)
    metrics["trace.untraced_jobs_per_s"] = len(plain) / plain_s
    metrics["trace.traced_jobs_per_s"] = len(traced) / traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return {k: (v, per_layer_unit(k)) for k, v in sorted(metrics.items())}


# -- metadata -------------------------------------------------------------------


def git_rev():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_meta():
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


# -- modes ----------------------------------------------------------------------


def bench(args):
    from noethops import cli

    setups = [] if args.trace else [
        setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    rounds = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced, done, elapsed = timed_rounds(rounds, args.seconds, cli, tracer)
    failed, messages, outputs = check_results(plain + traced)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": done, "measured_s": round(elapsed, 3),
        "git_rev": git_rev(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
        **source_meta(), "problems": messages,
    }
    if args.trace:
        metrics = per_layer(plain, traced, tracer)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        meta["spans"] = str(spans_path.relative_to(ROOT))
        meta["span_count"] = len(tracer.spans)
        meta["untraced"] = tracer.missing
    else:
        metrics, extra = end_to_end(plain, failed, setups)
        meta.update(extra)
    meta["outputs"] = outputs
    attempted = len(plain) + len(traced)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_reference():
    """Run every catalogue job once and store the sha256 of each report.
    Refuses to write if any job fails its checks."""
    from noethops import cli
    from checks import job_problems, report_sha256, script_key
    from workloads import WORKLOADS

    reference = {}
    bad = 0
    for name, workload in WORKLOADS.items():
        table = reference[name] = {}
        for shape, jobs in workload.catalogue().items():
            for job in jobs:
                _, _, text, error = run_job(job, cli)
                problems = [error] if error else job_problems(job, text, None)
                if problems:
                    bad += 1
                    print(f"{name} {shape}/{job.variant}: {problems}", file=sys.stderr)
                    continue
                table[script_key(job.text)] = report_sha256(text)
        print(f"{name}: {len(table)} reports", file=sys.stderr)
    if bad:
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def read_results(path):
    """{(workload, trace): [(meta, result), ...]} from a file of run outputs."""
    runs = {}
    meta = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "meta" in obj:
            meta = obj["meta"]
        elif isinstance(obj, dict) and "metrics" in obj and meta is not None:
            runs.setdefault((meta["workload"], meta["trace"]), []).append((meta, obj))
            meta = None
    return runs


def compare(path_a, path_b):
    """Per-workload, per-metric ratio b/a of the medians over the runs in
    each file; exit 1 when a script has more than one report hash."""
    a, b = read_results(path_a), read_results(path_b)
    differing = 0
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(a[key])} vs {len(b[key])} runs")
        names = sorted(set(a[key][0][1]["metrics"]) & set(b[key][0][1]["metrics"]))
        for name in names:
            va = statistics.median(r["metrics"][name]["value"] for _, r in a[key])
            vb = statistics.median(r["metrics"][name]["value"] for _, r in b[key])
            ratio = f"{vb / va:8.3f}" if va else "     n/a"
            unit = a[key][0][1]["metrics"][name]["unit"]
            print(f"  {name:48s} {va:12.4f} {vb:12.4f} {unit:9s} ratio {ratio}")
        hashes = {}
        for meta, _ in a[key] + b[key]:
            for script, digest in meta["outputs"].items():
                hashes.setdefault(script, set()).add(digest)
        for script in sorted(hashes):
            if len(hashes[script]) > 1:
                differing += 1
                print(f"  output differs for script {script}")
    if differing:
        print(f"{differing} scripts gave different reports")
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _engine()
    if args.write_reference:
        return write_reference()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
