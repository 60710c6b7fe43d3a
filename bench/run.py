"""specfam benchmark: time ``run_analysis`` end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload discrete_scan --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from the seed, then repeats passes over
its configs through ``specfam.run_analysis`` (``threads=1``) for about the
given number of seconds, checking every report.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs every config
untraced and traced back to back and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space of a run, relative to the checkout root
WORK = Path("bench") / "_work"
#: fresh processes timed for setup_s
SETUP_PROBES = 15
#: passes per run at least, so every config is repeated (criterion 8)
MIN_PASSES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Operations attempted and failed, and the first report bytes per config."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_bytes: dict[str, bytes] = {}

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, case_name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{case_name}: {p}" for p in problems)


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child process it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_case(case, out_dir: Path, tally: Tally) -> tuple[float, float, int]:
    """One ``run_analysis`` call, gated; returns (wall s, CPU s, bytes written).

    The CPU seconds include child processes, so work moved out of the process
    still counts.
    """
    # looked up per call: a traced run replaces the name with a wrapper
    from specfam import run_analysis
    from workloads import check_report

    shutil.rmtree(out_dir, ignore_errors=True)
    wall, cpu = time.perf_counter(), cpu_seconds()
    try:
        run_analysis(case.config, output_dir=out_dir, threads=1)
    except Exception:  # an operation that raises is counted as failed
        tally.record(case.name, [traceback.format_exc(limit=3)])
        return time.perf_counter() - wall, cpu_seconds() - cpu, 0
    wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
    data = (out_dir / "report.json").read_bytes()
    written = sum(f.stat().st_size for f in out_dir.iterdir())
    problems = check_report(json.loads(data), case)
    first = tally.first_bytes.setdefault(case.name, data)
    if data != first:
        problems.append("report.json differs from an earlier run of the same config")
    tally.record(case.name, problems)
    return wall, cpu, written


def run_pass(cases, work: Path, tally: Tally, tracer, pass_id: int) -> tuple[dict, int]:
    """Every config once, or with a tracer once untraced and once traced.

    The two runs of a config are back to back, and which goes first
    alternates, so both see the same host.  Returns the summed
    ``run_analysis`` wall and CPU seconds by kind, and the bytes the traced
    runs wrote.
    """
    times = {kind: [0.0, 0.0] for kind in (("untraced", "traced") if tracer else ("untraced",))}
    written = 0
    for i, case in enumerate(cases):
        out_dir = work / "out" / case.name
        kinds = list(times)
        if (i + pass_id) % 2:
            kinds.reverse()
        for kind in kinds:
            if kind == "traced":
                tracer.start_pass(pass_id)
                with tracer.installed():
                    wall, cpu, size = run_case(case, out_dir, tally)
                written += size
            else:
                wall, cpu, _ = run_case(case, out_dir, tally)
            times[kind][0] += wall
            times[kind][1] += cpu
    return times, written


def run_passes(cases, work: Path, seconds: float, tally: Tally, tracer=None,
               probes=None) -> dict:
    """Repeat passes until the next one would end after ``seconds``.

    Untraced, a run makes at least ``MIN_PASSES`` passes; traced, one pass
    already runs every config twice.  ``times`` maps "<kind> <clock>" to the
    per-pass seconds, kind untraced or traced and clock wall or cpu.  The
    ``probes`` run between passes, spread over the run, and their time does
    not count towards ``seconds``.
    """
    times: dict[str, list[float]] = {}
    written: list[int] = []
    start = time.perf_counter()
    probe_seconds = 0.0
    if tracer is not None:
        # the first call of a process pays one-off costs; keep them out of the
        # untraced/traced comparison
        run_case(cases[0], work / "out" / cases[0].name, tally)
    pass_id = 0
    while True:
        pass_times, size = run_pass(cases, work, tally, tracer, pass_id)
        for kind, (wall, cpu) in pass_times.items():
            times.setdefault(f"{kind} wall", []).append(wall)
            times.setdefault(f"{kind} cpu", []).append(cpu)
        written.append(size)
        if pass_id == 0:
            # later passes re-run the same configs; what they add to the peak is
            # allocator retention, which differs from process to process
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pass_id += 1
        elapsed = time.perf_counter() - start - probe_seconds
        done = (pass_id >= (1 if tracer else MIN_PASSES)
                and elapsed * (pass_id + 1) / pass_id > seconds)
        if probes is not None:
            probe_start = time.perf_counter()
            probes.run_due(1.0 if done or elapsed >= seconds else elapsed / seconds)
            probe_seconds += time.perf_counter() - probe_start
        if done:
            break
    return {"times": times, "passes": pass_id, "written": written,
            "peak_rss_mb": first_pass_rss / 1024.0}


class SetupProbes:
    """Wall seconds of ``import specfam`` plus ``validate_config`` per config,
    each in a fresh process.

    The host's CPU speed changes over tens of seconds, so the probes are
    spread over the run instead of sampling only its first seconds.
    """

    def __init__(self, configs_path: Path):
        self.configs_path = configs_path
        self.times: list[float] = []

    def run_due(self, share: float) -> None:
        """Run probes until ``share`` of the ``SETUP_PROBES`` have run."""
        while len(self.times) < min(SETUP_PROBES, round(share * SETUP_PROBES)):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
                 str(self.configs_path)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            self.times.append(float(done.stdout.split()[0]))


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, summed over all CPUs, if known."""
    stat = Path("/proc/stat")
    if not stat.is_file():
        return None
    fields = stat.read_text().splitlines()[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own, else None.

    Says on standard error why there is no commit.  Git is not asked when the
    checkout has no ``.git`` of its own, so it never searches the directories
    above the checkout.
    """
    if not (ROOT / ".git").exists():
        print(f"git commit unknown: {ROOT} has no .git", file=sys.stderr)
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError as exc:
        print(f"git commit unknown: {exc}", file=sys.stderr)
        return None
    if head.returncode != 0:
        print(f"git commit unknown: {head.stderr.strip()}", file=sys.stderr)
        return None
    return head.stdout.strip()


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(cases, work: Path, seconds: float, trace: int) -> dict:
    """Run the cases for about ``seconds``; the metrics of ``--trace`` ``trace``.

    Untraced, the metrics are the end-to-end ones; traced, the per-layer
    ones, with the spans written to ``work/spans.csv``.
    """
    from tracing import Tracer, layer_metrics

    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = Tracer() if trace else None
    probes = None
    if tracer is None:
        configs_path = work / "configs.json"
        configs_path.write_text(json.dumps([c.config for c in cases]), encoding="utf-8")
        probes = SetupProbes(configs_path)
    steal, start = steal_seconds(), time.perf_counter()
    passes = run_passes(cases, work, seconds, tally, tracer, probes)
    steal_share = None
    if steal is not None:
        steal_share = ((steal_seconds() - steal)
                       / ((time.perf_counter() - start) * os.cpu_count()))
    shutil.rmtree(work / "out", ignore_errors=True)
    times = passes["times"]
    if tracer is None:
        values = {"wall_s": statistics.median(times["untraced wall"]),
                  "setup_s": statistics.median(probes.times),
                  "peak_rss_mb": passes["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    else:
        tracer.write(work / "spans.csv")
        metrics = layer_metrics(tracer, range(passes["passes"]), passes["written"],
                                times["traced wall"], times["untraced wall"])
    return {"tally": tally, "metrics": metrics, "times": times,
            "setup": probes.times if probes else [],
            "steal_share": steal_share, "spans": len(tracer.spans) if tracer else 0}


def main(argv=None) -> int:
    # pin BLAS before NumPy loads, so one pass runs on one core as the CLI default
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    if not (SRC / "specfam" / "__init__.py").is_file():
        print(f"specfam sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    os.chdir(ROOT)

    from workloads import WORKLOADS
    import specfam  # noqa: F401  (imported before timing, like any caller)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = WORKLOADS[args.workload](args.seed, work)
    result = measure(cases, work, args.seconds, args.trace)
    tally = result["tally"]

    print(f"workload {args.workload} seed {args.seed} configs {len(cases)} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for case in cases:
        digest = hashlib.sha256(tally.first_bytes.get(case.name, b"")).hexdigest()
        print(f"report.json sha256 {case.name} {digest}")
    for key, values in result["times"].items():
        q1, median, q3 = quartiles(values)
        print(f"pass seconds, {key}: median {median:.6f} q1 {q1:.6f} q3 {q3:.6f} "
              f"n {len(values)}")
    if result["steal_share"] is not None:
        print(f"host steal share while passing {result['steal_share']:.4f}")
    if result["setup"]:
        print(f"setup_s samples {' '.join(f'{t:.6f}' for t in result['setup'])}")
    if args.trace:
        print(f"spans {result['spans']} written to {work / 'spans.csv'}")
    print(f"error_rate {tally.error_rate} ({tally.failed} of {tally.attempted} "
          f"run_analysis calls failed)")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
