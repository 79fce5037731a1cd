"""Self-test of the benchmark: its correctness gate, its trace and its metric list.

Run from the repository root (a few seconds):

    python3 perfbench/selftest.py

On small inputs it checks that

* a clean ``cli-infer`` op passes the gate;
* a CSV that writes one value as numpy 2's scalar repr, ``np.float64(...)``,
  fails the op (the CLI exits with a data error), so fail_frac > 0;
* a CSV with one value changed after the reference was computed fails the
  op, because the reports disagree with the reference;
* two traced runs of two ops each report identical call counts on every
  workload, and the ``cli-infer`` trace sees N x 4
  ``PanelData.without_unit`` calls under ``panelmg estimate`` (four
  estimators) and N under ``panelmg test``;
* the speed probe runs its chunks during a probed op and leaves their CPU
  time out of the op's;
* BENCHMARK.json lists exactly the metrics run.py reports.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time

import run as bench
import tracer as tracing


def gate_fail_frac(lines_edit) -> float:
    """fail_frac of one small cli-infer op whose CSV text ``lines_edit`` changed."""
    workload = bench.CliInfer(seed=7, n=40, t=8, k=2, tag="selftest")
    y, x = bench.reference.random_panel(workload.seed, workload.n, workload.t, workload.k)
    lines = bench.reference.csv_lines(y, x)
    workload.prepare(lines=lines_edit(list(lines)))
    run = bench.Run()
    try:
        run.attempt(workload.op)
    finally:
        for path in workload.files():
            path.unlink(missing_ok=True)
    return run.failed / run.attempted


def numpy_repr(lines):
    unit, time, y, *xs = lines[5].split(",")
    lines[5] = ",".join([unit, time, f"np.float64({y})", *xs])
    return lines


def shifted_value(lines):
    unit, time, y, x1, *rest = lines[9].split(",")
    lines[9] = ",".join([unit, time, y, repr(float(x1) + 1e-3), *rest])
    return lines


def traced_counts(workload, ops: int = 2) -> list[dict]:
    """Call counts per span name for each of ``ops`` traced ops of one run."""
    tracer = tracing.Tracer()
    for op in range(ops):
        tracer.op = op
        tracer.install()
        try:
            workload.op(tracer)
        finally:
            tracer.uninstall()
    runs = []
    for op in range(ops):
        counts = {name: agg["calls"] for name, agg in tracing.aggregate(tracer.spans, op).items()}
        for root in ("cli.estimate", "cli.test"):
            counts[f"{root}/panel.without_unit"] = tracing.root_counts(
                tracer.spans, root, "panel.without_unit", op
            )
        runs.append(counts)
    return runs


def probe_check() -> tuple:
    """The probe around a 0.3 s busy loop, and the CPU time left out of the loop's."""
    with bench.speed.Probe() as probe:
        net_begin, begin = bench.speed.program_cpu(), time.process_time()
        while time.process_time() - begin < 0.3:
            sum(range(1000))
        net = bench.speed.program_cpu() - net_begin
        total = time.process_time() - begin
    return probe, total - net


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    bench.WORK.mkdir(exist_ok=True)
    expect(gate_fail_frac(lambda lines: lines) == 0.0, "clean input: fail_frac is 0")
    expect(gate_fail_frac(numpy_repr) > 0.0, "np.float64(...) in the CSV: fail_frac above 0")
    expect(gate_fail_frac(shifted_value) > 0.0, "value changed by 1e-3: fail_frac above 0")

    n = 24
    small = {
        "cli-infer": bench.CliInfer(seed=3, n=n, t=6, k=2, tag="selftest"),
        "load-fit": bench.LoadFit(seed=3, n=n, t=6, k=3, tag="selftest"),
        "mc-grid": bench.McGrid(seed=3, n=n, reps=2, tag="selftest"),
    }
    for name, workload in small.items():
        workload.prepare()
        try:
            ops = traced_counts(workload) + traced_counts(workload)
        finally:
            for path in workload.files():
                path.unlink(missing_ok=True)
        first = ops[0]
        expect(
            all(counts == first for counts in ops) and len(first) > 2,
            f"{name}: two traced runs of two ops each, identical call counts",
        )
        if name == "cli-infer":
            expect(
                first["cli.estimate/panel.without_unit"] == 4 * n
                and first["cli.test/panel.without_unit"] == n,
                f"cli-infer: without_unit calls are N x 4 under estimate and N under test (N={n})",
            )

    probe, left_out = probe_check()
    expect(
        probe.chunks >= 5 and probe.factor is not None and abs(left_out - probe.chunk_cpu) < 1e-3,
        "speed probe: chunks ran during the op and their CPU time is left out",
    )

    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == bench.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == bench.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
           "BENCHMARK.json workloads match run.py")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
