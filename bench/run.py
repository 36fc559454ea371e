"""edgestab benchmark: calibrated end-to-end time and traced per-layer work.

    python3 bench/run.py --workload certify --seed 1 --seconds 18 --trace 0

Workloads (see README.md for their families and why each exists):

* ``certify``  serial analysis of RobustlyStable polytope families
* ``triage``   serial analysis of families with mixed verdicts
* ``oracle``   ``sample_family`` with the random and grid schemes
* ``parallel`` ``jobs=2`` analysis, checked against the serial run

The benchmark builds its families from ``--seed``, then repeats whole passes
over them until ``--seconds`` of passes have been measured.  Each pass times
every step (one family's public-API calls) with the fixed reference kernel
(``kernel.py``) interleaved, and ``wall_ref`` divides the one by the other.
Every output is checked against the independent reference in
``reference.py``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 5
RANDOM_BUDGET = 20_000
GRID_BUDGET = 1_000
SMALL_RANDOM_BUDGET = 2_000
SMALL_GRID_BUDGET = 200
COUNTEREXAMPLE_BUDGET = 400
COUNTEREXAMPLE_TARGET = -1e-4
JOBS = 2
KERNEL_INTERVAL = 0.05
KERNEL_SLICE_UNITS = 8
KERNEL_SHARE = 0.2


def _import_program():
    """Import edgestab from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import edgestab
        import edgestab.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import edgestab from {SRC}: {exc}")
    if not pathlib.Path(edgestab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: edgestab was imported from {edgestab.__file__}, not {SRC}")
    return edgestab


# ----------------------------------------------------------------------
# steps: one family's calls, timed, then judged by the reference


class Step:
    """A timed callable and the judge of what it returned.

    ``judge`` returns a list of (operation, problem) pairs, one per public
    call; ``problem`` is None when the reference accepts the output.
    """

    __slots__ = ("spec", "call", "judge", "serial")

    def __init__(self, spec, call, judge, serial=True):
        self.spec = spec
        self.call = call
        self.judge = judge
        self.serial = serial


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Workload:
    """Families of one workload, turned into steps."""

    def __init__(self, es, name: str, specs, fams, checks, seed: int, small: bool):
        self.es = es
        self.name = name
        self.specs = specs
        self.fams = fams
        self.checks = checks
        self.seed = seed
        self.small = small
        self.counters = {"stab.configs_total": 0, "stab.worker_cpu_s": 0.0}
        self.serial = {}

    def _analyze(self, spec, fam, jobs=1):
        if spec.interval:
            return self.es.analyze_interval_detailed(fam, jobs=jobs)
        return self.es.analyze_family_detailed(fam, jobs=jobs)

    def analysis_step(self, spec, fam, check) -> Step:
        es = self.es

        def call():
            total = es.count_configs(fam)
            verdict, outcomes = self._analyze(spec, fam)
            record = None
            if verdict.witness is not None:
                hint = (verdict.witness.config_index, verdict.witness.lam or ())
                record = es.find_counterexample_near(
                    fam, hint, budget=COUNTEREXAMPLE_BUDGET, seed=self.seed,
                    target=COUNTEREXAMPLE_TARGET,
                )
            self.counters["stab.configs_total"] += total
            return total, verdict, record

        def judge(out):
            total, verdict, record = out
            ops = [("count_configs", check.count(total)), ("analyze", check.verdict(verdict.describe()))]
            if verdict.witness is not None:
                problem = (
                    "no counterexample near the witness"
                    if record is None
                    else check.counterexample(record.weights, record.margin)
                )
                ops.append(("find_counterexample_near", problem))
            return ops

        return Step(spec, call, judge)

    def sample_step(self, spec, fam, check, scheme: str, budget: int) -> Step:
        def call():
            return self.es.sample_family(fam, budget=budget, seed=self.seed, scheme=scheme)

        def judge(report):
            return [(f"sample_family/{scheme}", check.sample_report(report.describe(), budget))]

        return Step(spec, call, judge)

    def parallel_step(self, spec, fam, check) -> Step:
        def call():
            before = _children_cpu()
            verdict, outcomes = self._analyze(spec, fam, jobs=JOBS)
            self.counters["stab.worker_cpu_s"] += _children_cpu() - before
            return verdict, outcomes

        def judge(out):
            got = _comparable(*out)
            problem = None if got == self.serial[spec.name] else "jobs=2 report differs from the serial one"
            return [("analyze/jobs=2", problem or check.verdict(got[0]))]

        return Step(spec, call, judge, serial=False)

    def steps(self) -> list[Step]:
        items = list(zip(self.specs, self.fams, self.checks))
        if self.name in ("certify", "triage"):
            return [self.analysis_step(s, f, c) for s, f, c in items]
        if self.name == "oracle":
            random_budget = SMALL_RANDOM_BUDGET if self.small else RANDOM_BUDGET
            grid_budget = SMALL_GRID_BUDGET if self.small else GRID_BUDGET
            out = []
            for s, f, c in items:
                if s.name == "vertex_insufficiency":
                    out.append(self.sample_step(s, f, c, "grid", grid_budget))
                else:
                    out.append(self.sample_step(s, f, c, "random", random_budget))
            return out
        if self.name == "parallel":
            for s, f, _ in items:  # the serial reports the jobs=2 runs must reproduce
                self.serial[s.name] = _comparable(*self._analyze(s, f))
            return [self.parallel_step(s, f, c) for s, f, c in items]
        raise ValueError(f"unknown workload {self.name!r}")


def _comparable(verdict, outcomes):
    return verdict.describe(), [(o.index, o.status.value, o.margin, o.reason) for o in outcomes]


# ----------------------------------------------------------------------
# measurement


def build(es, workload: str, seed: int, small: bool):
    """Generate, serialize, parse and validate the workload's families."""
    import families

    specs = families.WORKLOADS[workload](seed, small)
    fams = []
    for spec in specs:
        fam = es.cli.parse_family_dict(json.loads(json.dumps(spec.doc)))
        errors = [d.message for d in es.validate(fam) if d.level == "error"]
        if errors:
            raise SystemExit(f"error: generated family {spec.name} is invalid: {errors}")
        fams.append(fam)
    return specs, fams


class Interleaver:
    """Runs kernel slices from a wall-clock timer, inside and between steps.

    Every ``KERNEL_INTERVAL`` seconds a SIGALRM handler runs
    ``KERNEL_SLICE_UNITS`` kernel units, wherever the main thread is, so the
    kernel samples the machine's speed evenly over time even while one long
    public call runs.  The handler's own time is kept in ``inside`` and taken
    off the step it interrupted.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.kernel_s = 0.0
        self.units = 0
        self.inside = 0.0
        self._busy = False
        self._previous = None

    def sample(self, units: int) -> None:
        started = time.perf_counter()
        self.kernel_s += self.kernel.run(units)
        self.units += units
        self.inside += time.perf_counter() - started

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a slice slower than the interval must not nest
            self._busy = True
            self.sample(KERNEL_SLICE_UNITS)
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_INTERVAL, KERNEL_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(steps, kernel, tracer):
    """One pass over every step, with the reference kernel interleaved.

    Serial steps run under the kernel timer (``Interleaver``).  A step that
    starts worker processes runs without it, so the kernel never competes
    with the workers for the two cores, and is followed by a kernel slice
    of about ``KERNEL_SHARE`` of its time.  The pass's reference time is
    its step time divided by the kernel's mean seconds per unit over the
    pass.  A traced pass runs no kernel: its spans must not contain it.
    """
    took = 0.0
    outputs = []
    snap = tracer.snapshot() if tracer else None
    if tracer:
        tracer.reset_distinct()
    inter = Interleaver(kernel)
    if not tracer:
        inter.sample(KERNEL_SLICE_UNITS)
    for step in steps:
        timer = step.serial and not tracer
        if timer:
            inter.start()
        before = inter.inside
        started = time.perf_counter()
        try:
            out = step.call()
            error = None
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started - (inter.inside - before)
        if timer:
            inter.stop()
        took += elapsed
        if not (step.serial or tracer):
            inter.sample(max(KERNEL_SLICE_UNITS, round(KERNEL_SHARE * elapsed * inter.units / inter.kernel_s)))
        outputs.append((step, out, error))
    layers = None
    if tracer:
        from tracing import layer_metrics

        layers = layer_metrics(snap, tracer.snapshot())
    ref = took * inter.units / inter.kernel_s if inter.units else None
    return took, ref, outputs, layers


def judge(outputs) -> list:
    """(spec, operation, problem) for every public call of a pass."""
    ops = []
    for step, out, error in outputs:
        if error:
            judged = [("call", error)]
        else:
            try:
                judged = step.judge(out)
            except Exception as exc:  # a malformed output, e.g. a witness of the wrong shape
                judged = [("judge", f"{type(exc).__name__}: {exc}")]
        ops.extend((step.spec, op, problem) for op, problem in judged)
    return ops


def only_known_faults(failures) -> bool:
    """True when every (spec, operation, problem) failure is its spec's one known fault."""
    return all(spec.known_fault == (op, problem) for spec, op, problem in failures)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest worker, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["certify", "triage", "oracle", "parallel"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true", help="smaller families, for the self-check")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    es = _import_program()
    imported = time.perf_counter() - PROCESS_START

    import kernel
    import reference

    tracer = None
    if args.trace:
        from tracing import SETUP_LAYERS, Tracer

        tracer = Tracer().install()
        setup_snap = tracer.snapshot()

    rounds = []
    for _ in range(SETUP_ROUNDS):
        started = time.perf_counter()
        specs, fams = build(es, args.workload, args.seed, args.small)
        rounds.append(time.perf_counter() - started)
    setup_s = imported + statistics.median(rounds)
    if tracer:
        setup_layers = {
            metric: (tracer.total.get(span, 0.0) - setup_snap["total"].get(span, 0.0)) / SETUP_ROUNDS
            for metric, span in SETUP_LAYERS.items()
        }

    checks = [reference.FamilyCheck(spec.doc, args.seed, spec.unstable) for spec in specs]
    workload = Workload(es, args.workload, specs, fams, checks, args.seed, args.small)
    steps = workload.steps()

    passes = []
    measured = 0.0
    while True:
        before = dict(workload.counters)
        started = time.perf_counter()
        took, ref, outputs, layers = run_pass(steps, kernel, tracer)
        measured += time.perf_counter() - started
        ops = judge(outputs)
        if layers is not None:
            for key, value in workload.counters.items():
                layers[key] = value - before[key]
        passes.append((took, ref, ops, layers))
        if measured >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    attempted = sum(len(p[2]) for p in passes)
    failures = [(spec, op, problem) for p in passes for spec, op, problem in p[2] if problem]
    correct = only_known_faults(failures)
    for spec, op, problem in sorted({(s.name, op, pr) for s, op, pr in failures}):
        print(f"failed: {spec} {op}: {problem}", file=sys.stderr)

    wall_s = statistics.median(p[0] for p in passes)
    if tracer:
        metrics = {
            name: {"value": statistics.median(p[3][name] for p in passes), "unit": _unit(name)}
            for name in passes[0][3]
        }
        for name, value in setup_layers.items():
            metrics[name] = {"value": value, "unit": "s"}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": statistics.median(p[1] for p in passes), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    # raw seconds drift too much on a shared machine to gate on; shown here only
    print(
        f"{args.workload} seed={args.seed} passes={len(passes)} wall_s={wall_s:.3f} "
        f"pass_s={[round(p[0], 3) for p in passes]} pass_ref={[round(p[1] or 0) for p in passes]}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
