"""Benchmark of poisson-deconv, driven only through the package's public functions.

Run from the repository root:

    python3 perfbench/run.py --workload oned_high --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all               # every workload, untraced and traced
    python3 perfbench/run.py --record            # rewrite reference.json

Workloads (BASELINE.md records why each was chosen):

* ``oned_high``: one ``experiments.run_experiment`` call of the preset at
  50 trials;
* ``twod_splines``: one ``run_experiment`` call of the preset at 1 trial;
* ``solve_512``: one fresh Poisson draw of the 512x512 phantom, then one
  ``solvers.run_solver("srl", ...)`` call on a seeded patch dictionary,
  without ground truth and with objective recording left on.

One such call is a *unit*. An untraced run (``--trace 0``) runs rounds of
repeated set-up plus one unit until the next round would end after
``--seconds``, and reports medians. A traced run (``--trace 1``) runs a
fixed number of units untraced, then one set-up and the same units with
every function in ``spans.TARGETS`` wrapped in a span, and reports
per-span counts and times plus the tracing overhead.

Every unit's outputs are checked: estimates finite and nonnegative, a
repeated unit giving the same output, and, for seeds in reference.json,
agreement with the stored values to ``RTOL``. A unit that misses counts as
failed. The last line of standard output is the JSON result; the line
before it holds the sample counts, the environment and any failures.
"""

from __future__ import annotations

import os
import sys

# The benchmark measures one single-threaded process; thread scaling on a
# small shared machine would measure the scheduler. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import poisson_deconv  # noqa: E402
from poisson_deconv import experiments, io, operators, simulate, solvers  # noqa: E402
from poisson_deconv.metrics import nmse  # noqa: E402  (unpatched: checks stay untraced)

import spans  # noqa: E402

if not os.path.abspath(poisson_deconv.__file__).startswith(SRC + os.sep):
    raise ImportError(f"poisson_deconv loaded from {poisson_deconv.__file__}, not {SRC}")

WORKLOADS = ("oned_high", "twod_splines", "solve_512")
EXPERIMENT_TRIALS = {"oned_high": 50, "twod_splines": 1}
TRACED_UNITS = {"oned_high": 1, "twod_splines": 1, "solve_512": 3}

SOLVE_SHAPE = (512, 512)
SOLVE_ITERS = 15
SOLVE_LAMBDA = 0.1
SOLVE_SNR_DB = 15.0
ATOMS_SHAPE = (16, 8, 8)
ATOM_STRIDE = 4
RECORDED_SEEDS = range(0, 31)  # seeds stored in reference.json
RECORDED_SOLVES = 12  # solve_512 units stored per seed in reference.json

# Set-up repeats per round: at least this many, and for at least this long.
SETUP_SECONDS = 0.15
SETUP_MIN_REPEATS = 2
SETUP_MAX_REPEATS = 300

#: Relative tolerance against reference.json: admits last-digit changes from
#: a reordered sum, rejects any change in what was computed.
RTOL = 1e-7
REFERENCE_PATH = os.path.join(HERE, "reference.json")

SYNTHESIZE_SPANS = ("haar.synthesize", "spline.synthesize", "patch.synthesize")
STEP_SPANS = ("rl_step", "srl_step", "rltv_step")


@dataclass
class Unit:
    """One timed call: its wall time, the SRL solves in it, and its checks."""

    seconds: float
    solve_seconds: list[float]
    key: object  # units with equal keys must give equal outputs
    output: object
    failures: list[str] = field(default_factory=list)


def estimate_failures(method: str, estimate) -> list[str]:
    estimate = np.asarray(estimate)
    if not np.all(np.isfinite(estimate)):
        return [f"{method}: non-finite estimate"]
    if np.any(estimate < 0):
        return [f"{method}: negative estimate"]
    return []


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0)


def csv_rows(text: str) -> list[str]:
    """Data rows of a metrics.csv, without comments and header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]


def csv_failures(text: str, expected: list[str] | None) -> list[str]:
    failures = []
    rows = csv_rows(text)
    for row in rows:
        _, _, *scores, _ = row.split(",")
        values = [float(v) for v in scores if v]
        if not all(math.isfinite(v) for v in values) or values[0] < 0:
            failures.append(f"metrics.csv: bad scores in {row!r}")
    if expected is not None:
        same = len(rows) == len(expected) and all(
            len(r.split(",")) == len(e.split(","))
            and all(_close(a, b) for a, b in zip(r.split(","), e.split(",")))
            for r, e in zip(rows, expected)
        )
        if not same:
            failures.append(f"metrics.csv {rows} differs from reference {expected}")
    return failures


class SolverProbe:
    """Times SRL solves made through `experiments.run_solver`, checks every estimate."""

    def __init__(self):
        self.srl_seconds: list[float] = []
        self.failures: list[str] = []

    @contextmanager
    def attached(self):
        original = experiments.run_solver

        def probe(method, *args, **kwargs):
            start = time.perf_counter()
            result = original(method, *args, **kwargs)
            elapsed = time.perf_counter() - start
            if method == "srl":
                self.srl_seconds.append(elapsed)
            self.failures += estimate_failures(method, result.estimate)
            return result

        experiments.run_solver = probe
        try:
            yield self
        finally:
            experiments.run_solver = original


class ExperimentWorkload:
    """A preset experiment; the unit is one `run_experiment` call."""

    def __init__(self, name, seed, work_dir, reference=None, overrides=None):
        mapping = {
            "experiment": name,
            "seed": str(seed),
            "n_trials": str(EXPERIMENT_TRIALS.get(name, 1)),
            "out_dir": work_dir,
            "jobs": "1",
            **(overrides or {}),
        }
        self.cfg = experiments.build_config(mapping)
        self.csv_path = os.path.join(work_dir, "metrics.csv")
        self.reference = reference

    def setup(self) -> None:
        experiments.build_problem(self.cfg)

    def run_unit(self, index: int) -> Unit:
        probe = SolverProbe()
        with probe.attached():
            start = time.perf_counter()
            experiments.run_experiment(self.cfg)
            seconds = time.perf_counter() - start
        with open(self.csv_path) as fh:
            text = fh.read()
        failures = probe.failures + csv_failures(text, self.reference)
        return Unit(seconds, probe.srl_seconds, "metrics.csv", text, failures)

    def record(self, units: list[Unit]):
        return csv_rows(units[0].output)


class SolveWorkload:
    """Back-to-back single-image SRL solves on a seeded patch dictionary."""

    def __init__(self, seed, work_dir, reference=None, shape=SOLVE_SHAPE, max_iters=SOLVE_ITERS):
        self.seed = int(seed)
        self.shape = tuple(shape)
        self.reference = reference or []
        self.atoms_path = os.path.join(work_dir, "atoms.txt")
        atoms = np.random.default_rng(self.seed).uniform(0.0, 1.0, ATOMS_SHAPE)
        io.save_atoms(self.atoms_path, atoms, ATOM_STRIDE)
        kernel = operators.inverse_quadratic_kernel()
        truth = simulate.make_phantom(*self.shape)
        blurred = operators.conv_forward(kernel, truth)
        self.intensity = simulate.scale_to_snr(blurred, SOLVE_SNR_DB)
        self.truth = float(self.intensity.sum() / blurred.sum()) * truth
        self.config = solvers.SolverConfig(lam=SOLVE_LAMBDA, max_iters=max_iters)
        self.model = None

    def setup(self) -> None:
        atoms, stride = io.load_atoms(self.atoms_path)
        dictionary = operators.PatchDictionary(atoms, stride, self.shape)
        self.model = operators.ForwardModel(operators.inverse_quadratic_kernel(), dictionary)

    def run_unit(self, index: int) -> Unit:
        start = time.perf_counter()
        g = simulate.poisson_sample(self.intensity, simulate.rng_for_trial(self.seed, index))
        solve_start = time.perf_counter()
        result = solvers.run_solver("srl", g, model=self.model, config=self.config)
        end = time.perf_counter()
        trace = result.trace
        output = [nmse(self.truth, result.estimate), trace.n_iters, trace.terminated_by]
        failures = estimate_failures("srl", result.estimate)
        if not math.isfinite(output[0]):
            failures.append(f"solve {index}: non-finite nmse")
        if trace.terminated_by not in ("converged", "max_iters") or not (
            1 <= trace.n_iters <= self.config.max_iters
        ):
            failures.append(f"solve {index}: ended {trace.terminated_by} after {trace.n_iters}")
        if index < len(self.reference):
            expected = self.reference[index]
            if not (
                math.isclose(output[0], expected[0], rel_tol=RTOL) and output[1:] == expected[1:]
            ):
                failures.append(f"solve {index}: {output} differs from reference {expected}")
        return Unit(end - start, [end - solve_start], index, output, failures)

    def record(self, units: list[Unit]):
        return [u.output for u in units]


def work_dir_for(name: str):
    """A temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=f".perfbench-{name}-", dir=ROOT)


def make_workload(name: str, seed: int, work_dir: str, reference=None):
    if name == "solve_512":
        return SolveWorkload(seed, work_dir, reference)
    return ExperimentWorkload(name, seed, work_dir, reference)


def load_reference(name: str, seed: int):
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh).get(name, {}).get(str(seed))
    except FileNotFoundError:
        return None


class Runner:
    """Runs units, catching their errors and checking repeats agree."""

    def __init__(self, workload):
        self.workload = workload
        self.units: list[Unit] = []
        self.errors = 0
        self._outputs: dict = {}

    def run(self, index: int) -> Unit | None:
        try:
            unit = self.workload.run_unit(index)
        except Exception:  # a crashing unit is a failed operation, not a crashed run
            traceback.print_exc()
            self.errors += 1
            return None
        first = self._outputs.setdefault(unit.key, unit.output)
        if first != unit.output:
            unit.failures.append(f"unit {unit.key!r}: output changed on repeat")
        self.units.append(unit)
        return unit

    @property
    def attempted(self) -> int:
        return len(self.units) + self.errors

    @property
    def failed(self) -> int:
        return sum(1 for u in self.units if u.failures) + self.errors


def measure(workload, seconds: float):
    """Untraced run: rounds of repeated set-up plus one unit, until the next
    round would end after `seconds`. Sampling set-up in every round spreads
    its samples over the run, like the units'."""
    deadline = time.perf_counter() + seconds
    setup_seconds = []
    round_seconds = []
    runner = Runner(workload)
    while True:
        round_start = time.perf_counter()
        for repeat in range(1, SETUP_MAX_REPEATS + 1):
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
            setup_seconds.append(t1 - t0)
            if repeat >= SETUP_MIN_REPEATS and t1 - round_start >= SETUP_SECONDS:
                break
        runner.run(runner.attempted)
        if not runner.units:
            break
        now = time.perf_counter()
        round_seconds.append(now - round_start)
        if now + statistics.median(round_seconds) > deadline:
            break
    return setup_seconds, runner


def traced_run(workload, n_units: int):
    """Runs `n_units` untraced, then one set-up and the same units traced."""
    runner = Runner(workload)
    workload.setup()
    plain = [runner.run(i) for i in range(n_units)]
    tracer = spans.Tracer()
    cpu_start = time.process_time()
    with spans.instrument(tracer):
        workload.setup()
        traced = [runner.run(i) for i in range(n_units)]
    cpu_s = time.process_time() - cpu_start
    return runner, plain, traced, tracer, cpu_s


def _median_diff(traced: list[float], plain: list[float]) -> float:
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) - statistics.median(plain)


def end_to_end_metrics(setup_seconds: list[float], units: list[Unit]) -> dict:
    """End-to-end metrics of an untraced run, as {name: (value, unit)}."""
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "experiment_s": (statistics.median(u.seconds for u in units), "s"),
        "solve_s_p50": (statistics.median(s for u in units for s in u.solve_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def layer_metrics(tracer: spans.Tracer, cpu_s: float, plain, traced) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    out = {}
    for span in spans.SPAN_NAMES:
        calls, total, self_s = tracer.stats.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_s, "s")
        out[f"{span}.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
    iters = sum(tracer.calls(s) for s in STEP_SPANS)
    srl_iters = tracer.calls("srl_step")
    synth = sum(tracer.in_scope[s] for s in SYNTHESIZE_SPANS)
    out["solvers.iters"] = (iters, "count")
    out["solvers.synth_per_srl_iter"] = (synth / srl_iters if srl_iters else 0.0, "ratio")
    out["process.cpu_s"] = (cpu_s, "s")
    plain = [u for u in plain if u]
    traced = [u for u in traced if u]
    out["trace.experiment_overhead_s"] = (
        _median_diff([u.seconds for u in traced], [u.seconds for u in plain]),
        "s",
    )
    out["trace.solve_overhead_s"] = (
        _median_diff(
            [s for u in traced for s in u.solve_seconds],
            [s for u in plain for s in u.solve_seconds],
        ),
        "s",
    )
    return out


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(f"{index}/type") != "Instruction":
            caches[f"L{_read(f'{index}/level')}"] = _read(f"{index}/size")
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def summary(values: list[float]) -> dict:
    """Sample count, and p90 only when at least ten samples lie beyond it."""
    info = {"samples": len(values)}
    if len(values) >= 2:
        p90 = statistics.quantiles(values, n=10)[-1]
        if sum(v > p90 for v in values) >= 10:
            info["p90"] = p90
    return info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    with work_dir_for(name) as work_dir:
        workload = make_workload(name, seed, work_dir, load_reference(name, seed))
        detail = {"workload": name, "seed": seed, "trace": int(trace), "environment": environment()}
        if trace:
            runner, plain, traced, tracer, cpu_s = traced_run(workload, TRACED_UNITS[name])
            metrics = layer_metrics(tracer, cpu_s, plain, traced)
            detail["edges"] = [[p, c, n] for (p, c), n in sorted(tracer.edges.items(), key=str)]
            detail["missing_spans"] = tracer.missing
        else:
            setup_seconds, runner = measure(workload, seconds)
            if not runner.units:
                print("perfbench: every unit failed", file=sys.stderr)
                return 1
            solve_seconds = [s for u in runner.units for s in u.solve_seconds]
            if not solve_seconds:
                print("perfbench: no SRL solve was timed", file=sys.stderr)
                return 1
            metrics = end_to_end_metrics(setup_seconds, runner.units)
            detail["setup_s"] = summary(setup_seconds)
            detail["experiment_s"] = summary([u.seconds for u in runner.units])
            detail["solve_s_p50"] = summary(solve_seconds)
        detail["failures"] = [f for u in runner.units for f in u.failures][:20]
        for failure in detail["failures"]:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, one process each, as a table."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {name:13s} {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
            status |= not result["correct"]
    return status


def record() -> int:
    """Rewrite reference.json with the outputs of the current code."""
    reference = {}
    for name in WORKLOADS:
        for seed in RECORDED_SEEDS:
            with work_dir_for(name) as work_dir:
                workload = make_workload(name, seed, work_dir)
                workload.setup()
                count = RECORDED_SOLVES if name == "solve_512" else 1
                units = [workload.run_unit(i) for i in range(count)]
                bad = [f for u in units for f in u.failures]
                if bad:
                    print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                reference.setdefault(name, {})[str(seed)] = workload.record(units)
                print(f"recorded {name} seed {seed}", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record:
        return record()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("one of --workload, --all or --record is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
