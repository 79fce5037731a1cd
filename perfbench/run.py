"""panelmg benchmark: end-to-end timings, correctness gate and traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload cli-infer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run generates its inputs from ``--seed``, computes the expected results
with the package-free code in ``reference.py``, then repeats the workload's
operation in a closed loop (one caller, the next op starts when the last one
ends) until ``--seconds`` have passed, at least once. Every op's output is
checked against the reference. Op times are the process's CPU seconds,
expressed at a fixed reference CPU speed by ``speed.py``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Lines before it describe the run and
its environment.

The program is driven in-process through its public entry points
(``panelmg.cli.main``, ``panelmg.read_csv``, ``panelmg.estimate``) from the
``src`` tree of the checkout, with BLAS limited to one thread and
``PANELMG_THREADS`` removed, so ``simulate`` uses one worker and the
process's CPU time is the program's own work. Files go to
``.perfbench-work/`` in the checkout. See README.md for the workloads and
the map from layer metrics to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 5
IMPORT_MODULES = ("panelmg.simulation", "panelmg.estimators", "panelmg.inference", "panelmg.cli")

# BLAS reads its thread count when numpy is first imported, so this comes
# before the imports below; the import-time subprocesses inherit it too.
# One thread: idle BLAS threads spin, and their CPU time would count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PANELMG_THREADS", None)
os.environ["PYTHONPATH"] = str(SRC)
sys.path.insert(0, str(SRC))
# setup_s is what a user of an installed package pays, with its bytecode
# cached, whatever the caller's environment says about writing bytecode.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import reference  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

# name -> unit; BENCHMARK.json lists the same names (selftest.py checks it).
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "panel.without_unit.calls": "count",
    "panel.without_unit.busy_s": "s",
    "cli.estimate.panel.without_unit.calls": "count",
    "cli.test.panel.without_unit.calls": "count",
    "estimators.estimate.calls": "count",
    "estimators.estimate.busy_s": "s",
    "estimators.estimate.self_s": "s",
    "panel.double_demean.calls": "count",
    "panel.double_demean.busy_s": "s",
    "gram.build_gram.calls": "count",
    "gram.build_gram.busy_s": "s",
    "gram.factorize.calls": "count",
    "gram.factorize.busy_s": "s",
    "gram.solve.calls": "count",
    "gram.solve.busy_s": "s",
    "estimators.compute_ridge_kappa.calls": "count",
    "estimators.compute_ridge_kappa.busy_s": "s",
    "inference.jackknife.calls": "count",
    "inference.jackknife.busy_s": "s",
    "inference.poolability_test.busy_s": "s",
    "inference.loo.busy_s": "s",
    "inference.loo_us_per_unit": "us",
    "inference.jackknife.doubling_ratio": "ratio",
    "panel.read_csv.busy_s": "s",
    "panel.validate_panel.busy_s": "s",
    "panel.read_csv.rows_per_s": "rows/s",
    "simulation.simulate_dgp.busy_s": "s",
    "simulation.estimate.busy_s": "s",
    "simulation.loo.busy_s": "s",
    "simulation.self_s": "s",
    "cli.estimate.busy_s": "s",
    "cli.test.busy_s": "s",
    "cli.simulate.busy_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    **{f"setup.import.{m}_s": "s" for m in IMPORT_MODULES},
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class OpFailed(Exception):
    """An operation raised, exited nonzero or disagreed with the reference."""


def run_cli(argv: list[str], tracer=None) -> tuple[float, int]:
    """Run ``panelmg <argv>`` in-process; return CPU time and stdout bytes."""
    import panelmg.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = speed.program_cpu()
        if tracer is None:
            code = panelmg.cli.main(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", "bench", panelmg.cli.main, argv)
        cpu = speed.program_cpu() - start
    if code != 0:
        raise OpFailed(f"panelmg {argv[0]} exited with code {code}")
    return cpu, len(buf.getvalue().encode("utf-8"))


def check(got, ref, where: str) -> None:
    try:
        reference.check(got, ref, where)
    except reference.Mismatch as exc:
        raise OpFailed(f"output disagrees with the reference: {exc}") from None


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ workloads


class CliInfer:
    """``panelmg estimate`` (all four estimators) then ``panelmg test`` on one CSV."""

    name = "cli-infer"
    entry = "panelmg.cli"

    def __init__(self, seed: int, n: int = 1000, t: int = 10, k: int = 2, tag: str = "main"):
        self.seed, self.n, self.t, self.k = seed, n, t, k
        self.csv = WORK / f"{self.name}-{tag}.csv"
        self.est_out = WORK / f"{self.name}-{tag}-estimate.json"
        self.test_out = WORK / f"{self.name}-{tag}-test.json"

    def small(self):
        return CliInfer(self.seed, n=30, t=self.t, k=self.k, tag="warm")

    def prepare(self, lines: list[str] | None = None) -> None:
        """Write the CSV and the expected reports; ``lines`` replaces the CSV text."""
        y, x = reference.random_panel(self.seed, self.n, self.t, self.k)
        reference.write_csv(self.csv, lines if lines is not None else reference.csv_lines(y, x))
        self.ref_estimate = reference.estimate_report(y, x)
        self.ref_test = reference.test_report(y, x)

    def op(self, tracer=None) -> tuple[dict, int]:
        est_s, est_bytes = run_cli(
            ["estimate", "--input", str(self.csv), "--format", "json", "--output", str(self.est_out)],
            tracer,
        )
        check(load_json(self.est_out), self.ref_estimate, "estimate")
        test_s, test_bytes = run_cli(
            ["test", "--input", str(self.csv), "--output", str(self.test_out)], tracer
        )
        check(load_json(self.test_out), self.ref_test, "test")
        out_bytes = est_bytes + test_bytes + self.est_out.stat().st_size + self.test_out.stat().st_size
        return {"op_s": est_s + test_s, "estimate_s": est_s, "test_s": test_s}, out_bytes

    def doubling_probe(self):
        """Panels of N and N/2 units from the workload's generator."""
        import panelmg

        full = panelmg.PanelData.from_arrays(*reference.random_panel(self.seed, self.n, self.t, self.k))
        half = panelmg.PanelData.from_arrays(
            *reference.random_panel(self.seed, self.n // 2, self.t, self.k)
        )
        return full, half

    def files(self):
        return [self.csv, self.est_out, self.test_out]


class LoadFit:
    """``read_csv`` of a large CSV, then the four point estimates, no inference."""

    name = "load-fit"
    entry = "panelmg"
    methods = ("tw-mg", "tw-mg-ridge", "tw-pooled", "mg")

    def __init__(self, seed: int, n: int = 20000, t: int = 20, k: int = 3, tag: str = "main"):
        self.seed, self.n, self.t, self.k = seed, n, t, k
        self.csv = WORK / f"{self.name}-{tag}.csv"

    def small(self):
        return LoadFit(self.seed, n=200, t=self.t, k=self.k, tag="warm")

    def prepare(self) -> None:
        self.y, self.x = reference.random_panel(self.seed, self.n, self.t, self.k)
        reference.write_csv(self.csv, reference.csv_lines(self.y, self.x))
        self.ref = reference.fit(self.y, self.x, loo=False)
        self.units = tuple(f"u{i + 1}" for i in range(self.n))
        self.times = tuple(f"t{s + 1}" for s in range(self.t))

    def op(self, tracer=None) -> tuple[dict, int]:
        import panelmg

        start = speed.program_cpu()
        panel = panelmg.read_csv(self.csv)
        loaded = speed.program_cpu()
        fits = [panelmg.estimate(panel, m) for m in self.methods]
        done = speed.program_cpu()
        if panel.unit_labels != self.units or panel.time_labels != self.times:
            raise OpFailed("read_csv returned other unit or time labels than were written")
        check(panel.y, self.y, "read_csv.y")
        check(panel.x, self.x, "read_csv.x")
        for method, est in zip(self.methods, fits):
            ref = self.ref[method]
            check(est.beta_hat, ref["beta"], f"{method}.beta_hat")
            check(est.kappa_used, ref["kappa"], f"{method}.kappa_used")
            if ref["slopes"] is not None:
                check(est.unit_slopes, ref["slopes"], f"{method}.unit_slopes")
        return {"op_s": done - start, "load_s": loaded - start, "fit_s": done - loaded}, 0

    def doubling_probe(self):
        return None  # the jackknife does not run here, and is quadratic at this N

    def files(self):
        return [self.csv]


class McGrid:
    """``panelmg simulate --dgp 1,4 --n 100 --t 5,10 --reps 20`` with the run's seed."""

    name = "mc-grid"
    entry = "panelmg.cli"
    dgps, ts = (1, 4), (5, 10)

    def __init__(self, seed: int, n: int = 100, reps: int = 20, tag: str = "main"):
        self.seed, self.n, self.reps = seed, n, reps
        self.prefix = WORK / f"{self.name}-{tag}"

    def small(self):
        return McGrid(self.seed, n=30, reps=2, tag="warm")

    def prepare(self) -> None:
        self.ref_cells = reference.simulation_cells(self.dgps, [self.n], self.ts, self.reps, self.seed)

    def op(self, tracer=None) -> tuple[dict, int]:
        argv = [
            "simulate",
            "--dgp", ",".join(map(str, self.dgps)),
            "--n", str(self.n),
            "--t", ",".join(map(str, self.ts)),
            "--reps", str(self.reps),
            "--seed", str(self.seed),
            "--output-prefix", str(self.prefix),
        ]
        cpu, out_bytes = run_cli(argv, tracer)
        report = Path(f"{self.prefix}.json")
        check(load_json(report)["cells"], self.ref_cells, "simulate.cells")
        out_bytes += report.stat().st_size + Path(f"{self.prefix}.csv").stat().st_size
        return {"op_s": cpu}, out_bytes

    def reps_per_op(self) -> int:
        return self.reps * len(self.dgps) * len(self.ts)

    def doubling_probe(self):
        """Process-4 panels (T=10) of N and N/2 units, as one replication draws them."""
        import panelmg

        seed = reference.derive_seed(self.seed, 0, 0)
        full = panelmg.PanelData.from_arrays(*reference.simulate(4, self.n, 10, seed))
        half = panelmg.PanelData.from_arrays(*reference.simulate(4, self.n // 2, 10, seed))
        return full, half

    def files(self):
        return [Path(f"{self.prefix}.json"), Path(f"{self.prefix}.csv")]


WORKLOADS = {w.name: w for w in (CliInfer, LoadFit, McGrid)}


# ------------------------------------------------------------------ measuring


class Run:
    """Counts ops and failures; ``attempt`` runs one op and returns its result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, op, tracer=None, probe: bool = False):
        """Run one op; with ``probe``, its times are scaled to the reference speed.

        A probed op's stages also carry ``op_cpu_s``, the unscaled CPU time,
        and ``speed_factor``, the scale applied.
        """
        self.attempted += 1
        gc.collect()
        try:
            if not probe:
                return op(tracer)
            with speed.Probe() as measured:
                stages, out_bytes = op(tracer)
            if measured.factor is None:
                raise OpFailed("the op ended before the speed probe ran once")
            scaled = {k: v * measured.factor for k, v in stages.items()}
            return {**scaled, "op_cpu_s": stages["op_s"], "speed_factor": measured.factor}, out_bytes
        except OpFailed as exc:
            print(f"op failed: {exc}", file=sys.stderr)
        except Exception:  # an op that raises is a failed op, not the end of the run
            traceback.print_exc()
        self.failed += 1
        return None


def time_imports(module: str, samples: int, importtime: bool = False) -> list:
    """Fresh-interpreter import of ``module``: scaled CPU seconds, or -X importtime rows.

    The CPU seconds are the child's whole life, interpreter start-up
    included, less the speed probe's chunks, at the reference speed.
    """
    if importtime:
        cmd = [sys.executable, "-X", "importtime", "-c", f"import {module}"]
    else:
        cmd = [sys.executable, "-c", speed.child_code(module, str(Path(__file__).resolve().parent))]
    out = []
    for _ in range(samples):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed:\n{proc.stderr}")
        if importtime:
            out.append(_parse_importtime(proc.stderr))
            continue
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        chunk_cpu, chunks = proc.stdout.split()[-2:]
        factor = speed.factor(float(chunk_cpu), int(chunks))
        if factor is None:
            raise RuntimeError(f"import {module} ended before the speed probe ran once")
        out.append((cpu - float(chunk_cpu)) * factor)
    return out


def _parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if cum.strip().isdigit():
            cumulative[name.strip()] = int(cum) * 1e-6
    return cumulative


def openblas_info() -> dict:
    """OpenBLAS build string and runtime thread count, read from the loaded library."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"openblas": config().decode(), "openblas_threads": threads()}
    return {"openblas": "not found", "openblas_threads": None}


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **openblas_info(),
        "platform": platform.platform(),
    }


def run_untraced(workload, seconds: float, run: Run) -> tuple[dict, dict]:
    """Time ops with tracing off; returns end-to-end metrics and median stages."""
    setup_s = statistics.median(time_imports(workload.entry, SETUP_SAMPLES))
    stage_samples = []
    tried = 0
    start = time.perf_counter()
    while tried == 0 or time.perf_counter() - start < seconds:
        tried += 1
        result = run.attempt(workload.op, probe=True)
        if result is not None:
            stage_samples.append(result[0])
    if not stage_samples:
        raise OpFailed("every op failed; there is no time to report")
    stages = {k: statistics.median(s[k] for s in stage_samples) for k in stage_samples[0]}
    if hasattr(workload, "reps_per_op"):
        stages["reps_per_s"] = workload.reps_per_op() / stages["op_s"]
    metrics = {
        "setup_s": setup_s,
        "op_s": stages["op_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    stages["ops"] = len(stage_samples)
    return metrics, stages


def run_traced(workload, seconds: float, run: Run, env: dict) -> tuple[dict, dict]:
    """Alternate untraced and traced ops; per-layer metrics are per traced op.

    The spans, with ``env`` and the metrics, go to
    ``.perfbench-work/trace-<workload>.json`` when the ops are done.
    """
    imports = time_imports(workload.entry, SETUP_SAMPLES, importtime=True)
    tracer = tracing.Tracer()
    plain, traced, out_bytes = [], [], []
    tried = [0, 0]  # untraced, traced
    start = time.perf_counter()
    while 0 in tried or time.perf_counter() - start < seconds:
        use_tracer = tried[1] < tried[0]
        tried[use_tracer] += 1
        if not use_tracer:
            result = run.attempt(workload.op, probe=True)
            if result is not None:
                plain.append(result[0]["op_s"])
            continue
        tracer.op = len(traced)
        kept = len(tracer.spans)
        tracer.install()
        try:
            result = run.attempt(workload.op, tracer, probe=True)
        finally:
            tracer.uninstall()
        if result is None:
            del tracer.spans[kept:]  # a failed op's spans are partial
            continue
        traced.append(result[0]["op_s"])
        out_bytes.append(result[1])
    if not (plain and traced):
        raise OpFailed("no untraced or no traced op succeeded; there is nothing to report")

    spans = tracer.spans
    n_ops = len(traced)
    per_op = [tracing.aggregate(spans, op) for op in range(n_ops)]
    counts = [{k: v["calls"] for k, v in agg.items()} for agg in per_op]
    counts_repeat = all(c == counts[0] for c in counts)
    agg = tracing.aggregate(spans)

    def total(key, field="busy_s"):
        return agg[key][field] if key in agg else 0.0

    def calls(key):
        return per_op[0][key]["calls"] if key in per_op[0] else 0

    def busy(key):
        return total(key) / n_ops

    loo_units = total("inference.loo", "units")
    csv_busy = total("panel.read_csv")
    cli_roots = ("cli.estimate", "cli.test", "cli.simulate")
    metrics = {
        "panel.without_unit.calls": calls("panel.without_unit"),
        "panel.without_unit.busy_s": busy("panel.without_unit"),
        "cli.estimate.panel.without_unit.calls": tracing.root_counts(
            spans, "cli.estimate", "panel.without_unit", op=0
        ),
        "cli.test.panel.without_unit.calls": tracing.root_counts(
            spans, "cli.test", "panel.without_unit", op=0
        ),
        "estimators.estimate.calls": calls("estimators.estimate"),
        "estimators.estimate.busy_s": busy("estimators.estimate"),
        "estimators.estimate.self_s": total("estimators.estimate", "self_s") / n_ops,
        "panel.double_demean.calls": calls("panel.double_demean"),
        "panel.double_demean.busy_s": busy("panel.double_demean"),
        "gram.build_gram.calls": calls("gram.build_gram"),
        "gram.build_gram.busy_s": busy("gram.build_gram"),
        "gram.factorize.calls": calls("gram.factorize"),
        "gram.factorize.busy_s": busy("gram.factorize"),
        "gram.solve.calls": calls("gram.solve"),
        "gram.solve.busy_s": busy("gram.solve"),
        "estimators.compute_ridge_kappa.calls": calls("estimators.compute_ridge_kappa"),
        "estimators.compute_ridge_kappa.busy_s": busy("estimators.compute_ridge_kappa"),
        "inference.jackknife.calls": calls("inference.jackknife"),
        "inference.jackknife.busy_s": busy("inference.jackknife"),
        "inference.poolability_test.busy_s": busy("inference.poolability_test"),
        "inference.loo.busy_s": busy("inference.loo"),
        "inference.loo_us_per_unit": 1e6 * total("inference.loo") / loo_units if loo_units else 0.0,
        "inference.jackknife.doubling_ratio": doubling_ratio(workload),
        "panel.read_csv.busy_s": busy("panel.read_csv"),
        "panel.validate_panel.busy_s": busy("panel.validate_panel"),
        "panel.read_csv.rows_per_s": total("panel.read_csv", "units") / csv_busy if csv_busy else 0.0,
        "simulation.simulate_dgp.busy_s": busy("simulation.simulate_dgp"),
        "simulation.estimate.busy_s": busy("simulation/estimators.estimate"),
        "simulation.loo.busy_s": busy("simulation/inference.loo"),
        "simulation.self_s": (
            total("simulation.run_monte_carlo", "self_s") + total("simulation.replication", "self_s")
        )
        / n_ops,
        "cli.estimate.busy_s": busy("cli.estimate"),
        "cli.test.busy_s": busy("cli.test"),
        "cli.simulate.busy_s": busy("cli.simulate"),
        "cli.self_s": sum(total(r, "self_s") for r in cli_roots) / n_ops,
        "cli.output_bytes": out_bytes[0],
        **{
            f"setup.import.{m}_s": statistics.median(row.get(m, 0.0) for row in imports)
            for m in IMPORT_MODULES
        },
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "trace.spans": len(spans) // n_ops,
    }
    path = WORK / f"trace-{workload.name}.json"
    info = {
        "traced_ops": n_ops,
        "untraced_ops": len(plain),
        "counts_repeat": counts_repeat,
        "trace_file": str(path.relative_to(ROOT)),
    }
    tracer.dump(path, {"env": env, "metrics": metrics, **info})
    if not counts_repeat:
        print("traced ops disagree on call counts", file=sys.stderr)
    return metrics, info


def doubling_ratio(workload, pairs: int = 3) -> float:
    """Untraced tw-mg jackknife CPU time at N over time at N/2, median over pairs.

    The two sizes alternate so that a slow spell of the machine falls on
    both sides of a pair rather than on one size only.
    """
    import panelmg

    panels = workload.doubling_probe()
    if panels is None:
        return 0.0

    def timed(panel):
        gc.collect()
        start = speed.program_cpu()
        panelmg.jackknife(panel, "tw-mg")
        return speed.program_cpu() - start

    full, half = panels
    timed(half)  # warm the code path
    return statistics.median(timed(full) / timed(half) for _ in range(pairs))


def run_workload(workload, seconds: float, trace: int, env: dict) -> tuple[dict, dict, Run]:
    import panelmg  # noqa: F401  (writes the package's bytecode cache once)

    run = Run()
    WORK.mkdir(exist_ok=True)
    warm = workload.small()
    try:
        warm.prepare()
        workload.prepare()
        run.attempt(warm.op)  # warm-up op, checked and counted but not timed
        if trace:
            metrics, info = run_traced(workload, seconds, run, env)
        else:
            metrics, info = run_untraced(workload, seconds, run)
    finally:
        for path in warm.files() + workload.files():
            Path(path).unlink(missing_ok=True)
    return metrics, info, run


# ------------------------------------------------------------------ entry point


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print one table."""
    names = END_TO_END if not trace else PER_LAYER
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        info = [line for line in lines if line.startswith("# stages ")]
        results[name] = (json.loads(lines[-1]), json.loads(info[0][9:]) if info else {})
        if not results[name][0]["correct"]:
            status = 1
    header = f"{'metric':<44} {'unit':<7}" + "".join(f" {n:>14}" for n in results)
    print(header)
    rows = list(names) + ([] if trace else ["estimate_s", "test_s", "load_s", "fit_s", "reps_per_s"])
    for metric in rows:
        cells = []
        for name, (res, stages) in results.items():
            value = res["metrics"].get(metric, {}).get("value", stages.get(metric))
            cells.append(f" {value:>14.6g}" if isinstance(value, (int, float)) else f" {'-':>14}")
        unit = names.get(metric, "1/s" if metric == "reps_per_s" else "s")
        print(f"{metric:<44} {unit:<7}" + "".join(cells))
    fail = "".join(
        f" {res['failed'] / res['attempted']:>14.6g}" for res, _ in results.values()
    )
    print(f"{'fail_frac':<44} {'ratio':<7}" + fail)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "panelmg" / "__init__.py").is_file():
        print(f"no panelmg package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    workload = WORKLOADS[args.workload](args.seed)
    env = environment(workload.name, args.seed, args.trace)
    begin = time.perf_counter()
    metrics, info, run = run_workload(workload, args.seconds, args.trace, env)
    units = PER_LAYER if args.trace else END_TO_END
    correct = run.failed == 0 and info.get("counts_repeat", True)
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{run.attempted} ops, {run.failed} failed (fail_frac {run.failed / run.attempted:g}), "
        f"{time.perf_counter() - begin:.1f} s"
    )
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    print("# stages " + json.dumps({**info, "fail_frac": run.failed / run.attempted}))
    print("# env " + json.dumps(env))
    result = {
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
