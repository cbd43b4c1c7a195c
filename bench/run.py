"""Benchmark of the slfold command line, in-process and closed-loop.

Run from the repository root:

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 20 --trace 0

One process runs one ``slfold.cli.main(argv)`` at a time, on inputs this
benchmark generates from ``--seed`` (workloads.py holds the four workloads
and why each was chosen).  Each round of a run first sets up afresh, a new
import of ``slfold`` plus input generation, as every CLI invocation would,
then runs the workload's command sequence.  Rounds repeat while another one
is expected to end within ``--seconds``; every sequence's outputs are
checked and must be byte-identical to the first sequence's.

Timing on a shared host: on the 2-vCPU host the benchmark was tuned on, the
speed of the core flips between a fast and a slow state (about 1.7x apart)
every few seconds, and the share of slow time drifts over minutes; CPU time
drifts with wall time, so this is not descheduling.  Over ten runs,
``wall_s`` (the median sequence time) then spreads by 10-30 %.  So a short
reference kernel is timed before and after every command, and ``wall_ref``
expresses the sequence in units of it: the sum over commands of the median,
over the run, of the command's time divided by the mean of its two
reference times.  Both slow down together, so ``wall_ref`` holds to a few
percent.  ``setup_s`` is the median of the run's set-ups, which are spread
over the whole run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced sequences, then runs one sequence under the span tracer
(tracer.py) and reports per-layer metrics; its outputs are checked the same
way, which shows that tracing does not change them.  The spans are written
to .bench_run/<workload>/spans.npz; inputs and outputs of a run live in a
directory of their own under .bench_run/<workload>/ and are removed at exit.

Every metric is printed by name with its unit; the last line is one JSON
object with the metrics that BENCHMARK.json lists.  The exit code is 1 if an operation failed
(unexpected exit code, failed output check, unexpected skip) and 2 if the
benchmark could not run at all.
"""

from __future__ import annotations

import os

# One BLAS thread: the closed loop never runs more threads than cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Spans, Tracer
from workloads import WORKLOADS, Command, data_rows, files_under

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_run")

# Branch entry points by argument shape, for the branch.* counters.
SCALAR_BRANCH = ("branch.solve_branch", "branch.ellipticity_coefficient", "branch.eval_p",
                 "branch.eval_p_prime", "branch.branch_sensitivity")
ARRAY_BRANCH = ("branch.branch_w_array", "branch.ellipticity_array")

# Per-command timings reported next to the end-to-end metrics: command tag,
# work counter, metric name.  solve_s is a time, the others are rates.
RATES = (("solve", "solves", "solve_s"), ("verify", "frames", "verify_frames_per_s"),
         ("embed", "samples", "embed_samples_per_s"), ("hl", "hl_points", "hl_points_per_s"),
         ("joyce", "joyce_s_values", "joyce_s_values_per_s"),
         ("wind", "loop_samples", "wind_samples_per_s"))

Metrics = dict[str, tuple[float, str]]

# Reference kernel for wall_ref: a few milliseconds of numpy ufunc work.  Of
# the kernels tried (pure-Python loop, numpy, both), its time tracked the
# host's speed best, also on families-wind, which is mostly Python.
REF_INPUT = np.random.default_rng(0).random((100, 100))


def reference_seconds() -> float:
    t0 = time.perf_counter()
    x = REF_INPUT
    for _ in range(20):
        x = np.sin(x) * 1.0001 + REF_INPUT
    return time.perf_counter() - t0


@dataclass
class Outcome:
    cmd: Command
    code: int | str
    seconds: float
    stdout: str
    stderr: str
    ref: float          # mean of the reference times just before and after the command


SeqResult = tuple[float, list[Outcome]]   # wall seconds, one outcome per command


def import_slfold() -> None:
    for name in [m for m in sys.modules if m == "slfold" or m.startswith("slfold.")]:
        del sys.modules[name]
    cli = importlib.import_module("slfold.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"slfold imported from {cli.__file__}, not from {SRC}")


def set_up(workload, seed: int, inputs: Path, out: Path) -> tuple[float, list[Command]]:
    """Fresh import plus input generation; returns (seconds, commands)."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    gc.collect()
    t0 = time.perf_counter()
    import_slfold()
    commands = workload.build(np.random.default_rng(seed), inputs, out)
    return time.perf_counter() - t0, commands


def run_sequence(commands: list[Command], out: Path) -> SeqResult:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    outcomes = []
    ref = reference_seconds()
    for cmd in commands:
        so, se = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(so), redirect_stderr(se):
                code = sys.modules["slfold.cli"].main(cmd.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = "exception"
            se.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        ref_after = reference_seconds()
        outcomes.append(Outcome(cmd, code, seconds, so.getvalue(), se.getvalue(),
                                (ref + ref_after) / 2))
        ref = ref_after
    return sum(oc.seconds for oc in outcomes), outcomes


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in files_under(path):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Ledger:
    """Operations attempted and failed, work counters and output digests."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.counts: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def check(self, outcomes: list[Outcome]) -> None:
        """Check one sequence; its counters replace the previous sequence's."""
        counts: dict[str, float] = {"rows_read": 0}
        for oc in outcomes:
            cmd = oc.cmd
            self.attempted += 1
            problems = []
            if oc.code != cmd.expect:
                problems.append(f"exit code {oc.code}, expected {cmd.expect}")
            else:
                try:
                    found, got = cmd.check(cmd, oc.stdout)
                    problems += found
                    for key, val in got.items():
                        counts[key] = counts.get(key, 0) + val
                except Exception as exc:  # unreadable or missing output
                    problems.append(f"output check raised {exc!r}")
                seen = digest(cmd.outputs)
                if self.digests.setdefault(cmd.label, seen) != seen:
                    problems.append("outputs differ from the first sequence's")
            counts["rows_read"] += sum(data_rows(p) for p in cmd.reads)
            if problems:
                self.failed += 1
                print(f"FAILED {cmd.label}: {'; '.join(problems)}", file=sys.stderr)
                if oc.stderr:
                    print(oc.stderr.rstrip(), file=sys.stderr)
        self.counts = counts


def measure(workload, seed: int, inputs: Path, out: Path, ledger: Ledger,
            seconds: float) -> tuple[list[float], list[SeqResult], float]:
    """Set up and run the sequence while another round is expected to fit in `seconds`.

    Returns the set-up times, the sequences, and the process's peak resident
    memory in MB after the first sequence, which is what one CLI invocation
    per process would see.  Later sequences run on a fragmented heap, and the
    peak then depends on where the allocator happens to place them (86 or
    95 MB on embed-cloud).
    """
    setups, runs = [], []
    t_begin = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        secs, commands = set_up(workload, seed, inputs, out)
        setups.append(secs)
        wall, outcomes = run_sequence(commands, out)
        if not runs:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ledger.check(outcomes)
        runs.append((wall, outcomes))
        now = time.perf_counter()
        if now - t_begin + (now - t_iter) > seconds:
            return setups, runs, peak_mb


def end_to_end(setups: list[float], runs: list[SeqResult], counts: dict[str, float],
               peak_mb: float) -> Metrics:
    med = statistics.median
    m = {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(w for w, _ in runs), "s"),
        "wall_ref": (sum(med(outcomes[k].seconds / outcomes[k].ref for _, outcomes in runs)
                         for k in range(len(runs[0][1]))), "ref"),
        "peak_rss_MB": (peak_mb, "MB"),
    }
    for tag, work, name in RATES:
        secs = med(sum(oc.seconds for oc in outcomes if oc.cmd.tag == tag) for _, outcomes in runs)
        if secs > 0.0:
            m[name] = (secs, "s") if name == "solve_s" else (counts.get(work, 0) / secs, "1/s")
    return m


def per_layer(sp: Spans, counts: dict[str, float], traced_wall: float,
              untraced_wall: float) -> Metrics:
    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    def c(key: str) -> float:
        return counts.get(key, 0)

    own = {layer: sp.layer_self(layer) for layer in sorted(set(sp.layer))}

    def self_s(layer: str) -> float:
        return own.get(layer, 0.0)

    branch_in = (sp.layer == "branch") & (sp.entry == np.arange(len(sp)))
    scalar_in = branch_in & sp.calls(*SCALAR_BRANCH)
    array_in = branch_in & sp.calls(*ARRAY_BRANCH)
    parent = np.where(sp.parent >= 0, sp.parent, 0)
    from_solver = branch_in & (sp.parent >= 0) & sp.entered_by("pde.solve_dirichlet")[parent]
    writers = [n for n in sp.names if n.startswith("fieldio.write_")]
    write_s = sp.layer_self("fieldio", sp.entered_by(*writers))
    hl_time = float(sp.duration[sp.calls("families.hl_triple")].sum())
    m = {
        "pde.solve_calls": (int(sp.calls("pde.solve_dirichlet").sum()), "count"),
        "pde.sweeps": (c("sweeps"), "count"),
        "pde.coefficient_evals": (int(from_solver.sum()), "count"),
        "pde.self_s": (self_s("pde"), "s"),
        "pde.ns_per_node_sweep": (per(self_s("pde"), c("node_sweeps"), 1e9), "ns"),
        "branch.calls_scalar": (int(scalar_in.sum()), "count"),
        "branch.calls_array": (int(array_in.sum()), "count"),
        "branch.array_elements": (sum(sp.sizes.get(int(k), 0) for k in np.flatnonzero(array_in)),
                                  "count"),
        "branch.self_s": (self_s("branch"), "s"),
        "branch.us_per_scalar_call": (per(sp.layer_self("branch", sp.entered_by(*SCALAR_BRANCH)),
                                          int(scalar_in.sum()), 1e6), "us"),
        "embedding.lift_calls": (int(sp.calls("embedding.lift_point").sum()), "count"),
        "embedding.samples": (c("samples"), "count"),
        "embedding.skipped_nodes": (c("skipped_nodes"), "count"),
        "embedding.self_s": (self_s("embedding"), "s"),
        "embedding.us_per_sample": (per(self_s("embedding"), c("samples"), 1e6), "us"),
        "calibration.frames": (c("frames"), "count"),
        "calibration.frame_errors": (c("frame_errors"), "count"),
        "calibration.self_s": (self_s("calibration"), "s"),
        "calibration.us_per_frame": (per(self_s("calibration"), c("frames"), 1e6), "us"),
        "fieldio.rows_written": (c("rows_written"), "count"),
        "fieldio.bytes_written": (c("bytes_written"), "bytes"),
        "fieldio.rows_read": (c("rows_read"), "count"),
        "fieldio.write_s": (write_s, "s"),
        "fieldio.read_s": (sp.layer_self("fieldio", sp.entered_by("fieldio.read_field_csv")), "s"),
        "fieldio.write_MB_per_s": (per(c("bytes_written"), write_s, 1e-6), "MB/s"),
        "families.hl_points": (c("hl_points"), "count"),
        "families.hl_skipped": (c("hl_skipped"), "count"),
        "families.self_s": (self_s("families"), "s"),
        "families.us_per_hl_point": (per(hl_time, c("hl_points"), 1e6), "us"),
        "winding.loop_samples": (c("loop_samples"), "count"),
        "winding.self_s": (self_s("winding"), "s"),
        "grid.interp_calls": (int(sp.calls("grid.ScalarField2D.interp").sum()), "count"),
        "grid.self_s": (self_s("grid"), "s"),
        "config.self_s": (self_s("config"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "bench.self_s": (traced_wall - float(sp.duration[sp.parent < 0].sum()), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(sp), "count"),
    }
    for layer, secs in own.items():
        m.setdefault(f"{layer}.self_s", (secs, "s"))
    return m


def run(workload, args, inputs: Path, out: Path) -> tuple[Metrics, list[SeqResult], Ledger]:
    ledger = Ledger()
    setups, runs, peak_mb = measure(workload, args.seed, inputs, out, ledger,
                                    args.seconds / 2 if args.trace else args.seconds)
    if not args.trace:
        metrics = end_to_end(setups, runs, ledger.counts, peak_mb)
        metrics["error_rate"] = (ledger.failed / ledger.attempted, "1")
        return metrics, runs, ledger

    _, commands = set_up(workload, args.seed, inputs, out)
    with Tracer(sized=ARRAY_BRANCH) as tracer:
        traced_wall, outcomes = run_sequence(commands, out)
    ledger.check(outcomes)
    spans = tracer.spans()
    spans.save(WORK / workload.name / "spans.npz")
    untraced_wall = statistics.median(w for w, _ in runs)
    metrics = per_layer(spans, ledger.counts, traced_wall, untraced_wall)
    accounted = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    print(f"# traced wall_s {traced_wall:.6f} s = {accounted:.6f} s of layer self times "
          f"plus bench.self_s, over {len(spans)} spans")
    return metrics, runs, ledger


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slfold" / "cli.py").is_file():
        print(f"bench: no slfold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    listed = json.loads(Path("BENCHMARK.json").read_text())
    wanted = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    workload = WORKLOADS[args.workload]
    scratch = WORK / workload.name / f"run-{os.getpid()}"
    try:
        metrics, runs, ledger = run(workload, args, scratch / "inputs", scratch / "out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# {workload.name} seed={args.seed} sequences={len(runs)} "
          f"attempted={ledger.attempted} failed={ledger.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"bench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": float(metrics[n][0]), "unit": metrics[n][1]} for n in wanted},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
