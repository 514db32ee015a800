"""End-to-end and per-layer benchmark of the pelliptic CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload lame-range --seed 1 --seconds 30 --trace 0

One client runs one query at a time in this process (a closed loop), each
query a call of ``pelliptic.cli.main`` on input documents that set-up
generated from the seed. Every answer is checked against a reference
computed apart from the program. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

numpy reads its BLAS thread settings when it is first imported, so every
module that imports numpy (pelliptic and this directory's own) is imported
only after _configure_threads has run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"   # metric names and units
MIN_QUERIES = 100        # so that ten latencies lie beyond the 90th percentile
CALIBRATION_S = 0.01     # a calibration sample's length at the reference host speed
SETUP_PROBES = 2         # extra set-ups in fresh processes; setup_s is the median
WORKLOAD_NAMES = ("lame-range", "complex-chain", "integral-falsify")


def _configure_threads():
    """Default pool policy, with BLAS threads capped so workers x BLAS <= nproc."""
    os.environ.pop("PELL_THREADS", None)
    cores = os.cpu_count() or 1
    blas = str(max(1, cores // min(4, cores)))   # runtime.worker_count's default is min(4, cores)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = blas


def _machine() -> dict:
    import numpy
    import scipy

    env = ("PELL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in env}}


def _set_up(workload: str, seed: int, directory: Path):
    """Import pelliptic, then generate and write the inputs; returns (workload, seconds)."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pelliptic.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    built = workloads.build(workload, seed, str(directory))
    return built, time.perf_counter() - started


def _probe_setup(workload: str, seed: int, tag: str) -> float:
    """Set-up time of a fresh process, which pays the imports again."""
    directory = OUT / f"{tag}-probe"
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", str(directory),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


def _execute(main, query):
    """Run one query; returns (latency_s, result or None, failure text or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(query.argv)
    except (Exception, SystemExit) as exc:
        latency = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return latency, None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code not in query.codes:
        return latency, None, f"exit code {code}: {err.getvalue().strip()[:300]}"
    try:
        return latency, json.loads(out.getvalue())["result"], None
    except (ValueError, KeyError) as exc:
        return latency, None, f"unreadable output: {exc!r}"


class Calibration:
    """Host speed, sampled with a fixed piece of work that pelliptic never runs.

    A sample is a batch of small symmetric eigenproblems (LAPACK) and a
    pure-Python loop, the two kinds of work a query spends its time in. On a
    shared host the speed of both drifts together by tens of percent over
    minutes; a sample taken after every query tracks that drift, and the
    untraced metrics are scaled to the speed at which a sample takes
    CALIBRATION_S.
    """

    def __init__(self):
        import numpy as np

        m = np.random.default_rng(0).standard_normal((64, 12, 12))
        self.matrices = m + m.transpose(0, 2, 1)
        self.samples = []

    def sample(self):
        import numpy as np

        start = time.perf_counter()
        for _ in range(10):
            np.linalg.eigvalsh(self.matrices)
            sum(i * i for i in range(3000))
        self.samples.append(time.perf_counter() - start)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed.

        The mean, not the median, of the samples: a query pays for the slow
        stretches of a run as well as the fast ones."""
        return CALIBRATION_S / statistics.fmean(self.samples)


class Session:
    """Plays rounds, checks every answer and keeps the tallies."""

    def __init__(self, main, calibration=None):
        self.main = main
        self.calibration = calibration   # sampled after every query, if given
        self.records = []     # (kind, latency_s, failure or None)
        self.payloads = []    # canonical result text per query, in order
        self.wrong = 0        # answers that failed their correctness check

    def play(self, round_factory):
        import checks

        gen = round_factory()
        reply = None
        while True:
            try:
                query = gen.send(reply)
            except StopIteration:
                return
            latency, result, failure = _execute(self.main, query)
            reply = None
            if result is not None:
                try:
                    query.check(result)
                    reply = result
                except checks.WRONG_ANSWER as exc:
                    failure = f"wrong answer: {exc}"
                    self.wrong += 1
            self.payloads.append(None if result is None else json.dumps(result, sort_keys=True))
            self.records.append((query.kind, latency, failure))
            if failure:
                print(f"FAILED {query.kind} {' '.join(query.argv)}: {failure}", file=sys.stderr)
            if self.calibration is not None:
                self.calibration.sample()

    @property
    def failed(self) -> int:
        return sum(1 for *_, failure in self.records if failure)


def _timed(workload, seconds: float, main):
    """Whole rounds until the time is up and at least MIN_QUERIES ran."""
    session = Session(main, Calibration())
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds or len(session.records) < MIN_QUERIES:
        session.play(workload.rounds[r % len(workload.rounds)])
        r += 1
    return session, time.perf_counter() - start, r


def _units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them under section."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics. A single order statistic jumps when the quantile falls
    between two clusters of latencies (a round mixes cheap checks and costly
    ranges); this weighted mean moves smoothly across such a gap."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def run_untraced(workload, seconds, setup_s, main):
    import resource

    session, wall, rounds = _timed(workload, seconds, main)
    latencies = [lat for _, lat, _ in session.records]
    answered = len(latencies) - session.failed
    calibration = session.calibration
    busy = wall - sum(calibration.samples)   # the timed phase without the samples
    measured = {
        "queries_per_s": answered / busy,
        "query_s_p50": _quantile(latencies, 0.5),
        "query_s_p90": _quantile(latencies, 0.9),
    }
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": measured["queries_per_s"] / calibration.scale,
        "query_s_p50": measured["query_s_p50"] * calibration.scale,
        "query_s_p90": measured["query_s_p90"] * calibration.scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {"rounds": rounds, "wall_s": wall, "measured": measured,
           "calibration_scale": calibration.scale, "calibration_s": calibration.samples,
           "queries": [{"kind": k, "latency_s": lat, "failure": f} for k, lat, f in session.records]}
    return session, metrics, raw


def run_traced(workload, main, trace_path):
    """The same rounds untraced and then traced; payloads must not change."""
    import trace

    rounds = workload.rounds[: workload.trace_rounds]
    plain = Session(main)
    start = time.perf_counter()
    for factory in rounds:
        plain.play(factory)
    plain_wall = time.perf_counter() - start

    tracer = trace.Tracer()
    traced = Session(tracer.wrap("cli.main", main))
    with trace.Instrumentation(tracer):
        start = time.perf_counter()
        for factory in rounds:
            traced.play(factory)
        traced_wall = time.perf_counter() - start
    changed = sum(1 for a, b in zip(plain.payloads, traced.payloads) if a != b)
    if changed or len(plain.payloads) != len(traced.payloads):
        print(f"FAILED tracing changed {changed} result payloads", file=sys.stderr)
    tracer.write(trace_path)

    metrics = trace.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    raw = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
           "spans": len(tracer.spans), "payloads_changed": changed,
           "queries": [{"kind": k, "latency_s": lat, "failure": f} for k, lat, f in traced.records]}
    print(f"trace: {len(tracer.spans)} spans, untraced {plain_wall:.3f} s, "
          f"traced {traced_wall:.3f} s, {changed} payloads changed", file=sys.stderr)
    return plain, traced, changed, metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pelliptic" / "__init__.py").is_file():
        print(f"pelliptic sources not found under {SRC}", file=sys.stderr)
        return 2
    _configure_threads()
    if args.setup_probe:
        _, seconds = _set_up(args.workload, args.seed, Path(args.setup_probe))
        print(repr(seconds))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"{tag}-{os.getpid()}"
    try:
        workload, setup_main = _set_up(args.workload, args.seed, inputs)
        import pelliptic.cli as cli

        if args.trace:
            plain, traced, changed, metrics, raw = run_traced(
                workload, cli.main, OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
            attempted = len(plain.records) + len(traced.records)
            failed = plain.failed + traced.failed + changed
            correct = plain.wrong + traced.wrong + changed == 0
        else:
            setups = [setup_main] + [_probe_setup(args.workload, args.seed, f"{tag}-{os.getpid()}-{k}")
                                     for k in range(SETUP_PROBES)]
            session, metrics, raw = run_untraced(workload, args.seconds, statistics.median(setups), cli.main)
            raw["setup_s"] = setups
            attempted, failed = len(session.records), session.failed
            correct = session.wrong == 0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    raw.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=_machine())
    (OUT / f"run-{tag}.json").write_text(json.dumps(raw, indent=1))
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print(f"metrics differ from {SPEC.name}: {sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
