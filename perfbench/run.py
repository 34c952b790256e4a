"""lamedit benchmark: three CLI workloads driven in process through ``lamedit.cli.main``.

    python3 perfbench/run.py --workload pinned-run --seed 5 --seconds 32 --trace 0

Run it from the repository root; it imports lamedit from ``src/`` and needs no
install.  ``--trace 0`` reports the end-to-end metrics from untraced ops;
``--trace 1`` reports the per-layer metrics from a traced set-up and traced
ops, interleaved with untraced ops to measure the tracing overhead.  Every op
is checked (see ``Bench.check``); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-ups per untraced run; setup_s is their median, so the first set-up's
# one-off import cost does not set it.  There is no warm-up op: after the
# set-ups, the first op's time lies within the spread of the others.
SETUP_REPEATS = 3
WORK_DIR = os.path.join(HERE, "_work")
RESULTS_DIR = os.path.join(HERE, "results")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, set-up failed)."""


def import_lamedit():
    """Import ``lamedit.cli`` and ``lamedit.experiment`` from this checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lamedit", "cli.py")):
        raise BenchError(f"no lamedit sources under {src}; run from a repository checkout")
    if not os.path.isfile(os.path.join(ROOT, workloads.PINNED_CONFIG)):
        raise BenchError(f"missing {workloads.PINNED_CONFIG} in {ROOT}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import lamedit
    from lamedit import cli, experiment

    if os.path.dirname(os.path.dirname(os.path.abspath(lamedit.__file__))) != src:
        raise BenchError(f"imported lamedit from {lamedit.__file__}, not from {src}")
    return cli, experiment


# --- machine facts ---


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=False
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None  # not a git checkout of its own
        head = git("rev-parse", "HEAD")
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() or None


def _source_sha256():
    """Digest of the package sources and pinned config; identifies code without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lamedit")
    paths = [os.path.join(src, n) for n in sorted(os.listdir(src)) if n.endswith(".py")]
    for path in paths + [os.path.join(ROOT, workloads.PINNED_CONFIG)]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def machine_facts(env):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": env,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def load_reference(name):
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh)["workloads"][name]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference hit counts for {name} in {REFERENCE_PATH}: {exc}") from exc


# --- one run ---


class Bench:
    """One workload at one seed: set-ups, checked ops, and their timings."""

    def __init__(self, workload, seed, work_dir, reference=None):
        self.cli, self.experiment = import_lamedit()
        self.workload = workload
        self.seed = seed
        self.doc = workload.config_doc(ROOT, seed)
        os.makedirs(work_dir, exist_ok=True)
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=2)
        self.bench_dir = os.path.join(work_dir, "bench")
        self.out_dir = os.path.join(work_dir, "out")
        self.reference = reference  # expected hit counts, or None to skip that check
        self.expected = workloads.expected_files(workload)
        self.attempted = 0
        self.failures = []
        self.digests = None  # the first op's output digests

    def _cli(self, argv):
        """Run one CLI command; returns its exit code and the last line it wrote to stderr."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        lines = err.getvalue().strip().splitlines()
        return code, lines[-1] if lines else ""

    def setup(self):
        """Generate the benchmark directory and load it back; returns wall seconds."""
        start = time.perf_counter()
        argv = ["generate", self.config_path, "--out", self.bench_dir, "--force"]
        code, message = self._cli(argv)
        if code != 0:
            raise BenchError(f"`lamedit generate` exited {code} for seed {self.seed}: {message}")
        self.experiment.load_benchmark(self.bench_dir)
        return time.perf_counter() - start

    def op(self):
        """Run one op and check it; returns (wall seconds, process CPU seconds)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        error = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            for argv in self.workload.op_argvs(self.config_path, self.bench_dir, self.out_dir):
                code, message = self._cli(argv)
                if code != 0:
                    error = f"`lamedit {argv[0]}` exited {code}: {message}"
                    break
        except (Exception, SystemExit) as exc:  # an op failure is counted, not fatal
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        error = error or self.check()
        if error:
            self.failures.append(error)
            print(f"op {self.attempted} failed: {error}", file=sys.stderr)
        return wall, cpu

    def check(self):
        """None when the op's outputs are correct, else the reason they are not.

        Outputs must all exist, be byte-identical to the run's first op, and
        hold accuracies that are integer hit ratios; at the pinned seed the
        hit counts must equal the committed reference exactly.
        """
        names = set(os.listdir(self.out_dir)) if os.path.isdir(self.out_dir) else set()
        if names != self.expected:
            return f"output files {sorted(names)}, expected {sorted(self.expected)}"
        digests = workloads.output_digests(self.out_dir)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(n for n in digests if digests[n] != self.digests[n])
            return f"outputs differ from the first op's: {changed}"
        try:
            hits = workloads.hit_counts(self.out_dir, self.doc)
        except (ValueError, KeyError) as exc:
            return f"unreadable accuracies: {exc}"
        if self.reference is not None and hits != self.reference:
            differ = sorted(k for k in set(hits) | set(self.reference) if hits.get(k) != self.reference.get(k))
            return f"hit counts differ from {os.path.basename(REFERENCE_PATH)} in {differ}"
        return None


def _timed_loop(seconds, step):
    """Call ``step`` until ``seconds`` have passed and ``step`` says it has enough."""
    start = time.perf_counter()
    while True:
        enough = step()
        if enough and time.perf_counter() - start >= seconds:
            return


def run_untraced(bench, seconds):
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    walls, cpus = [], []

    def step():
        wall, cpu = bench.op()
        walls.append(wall)
        cpus.append(cpu)
        return True

    _timed_loop(seconds, step)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
    }
    detail = {"setup_s": setups, "wall_s": walls, "cpu_s": cpus}
    return metrics, detail, None


def run_traced(bench, seconds):
    tracer = tracing.Tracer()
    tracer.begin_op("setup")
    with tracer.installed():
        bench.setup()
    plain, traced, coverage = [], [], []

    def step():
        if len(traced) < len(plain):
            op_id = f"op{len(traced)}"
            tracer.begin_op(op_id)
            with tracer.installed():
                wall, _ = bench.op()
            traced.append(wall)
            work = wall - tracer.root_tax[op_id]
            coverage.append(tracing.top_level_seconds(tracer.op_spans(op_id)) / work)
        else:
            plain.append(bench.op()[0])
        return bool(plain and traced)

    _timed_loop(seconds, step)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = tracing.layer_report(
        [tracer.op_spans(f"op{i}") for i in range(len(traced))],
        tracer.op_spans("setup"),
        overhead,
        statistics.median(coverage),
    )
    detail = {"untraced_wall_s": plain, "traced_wall_s": traced, "coverage": coverage}
    return metrics, detail, tracer


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the result dict and the tracer (None untraced)."""
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LAMEDIT_WORKERS")}
    os.environ.pop("LAMEDIT_WORKERS", None)  # workloads run serially
    work_dir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    try:
        reference = load_reference(name) if seed == workloads.PINNED_SEED else None
        bench = Bench(workloads.WORKLOADS[name], seed, work_dir, reference)
        if trace:
            metrics, detail, tracer = run_traced(bench, seconds)
            units = {n: u for n, u, _ in tracing.per_layer_metrics()}
        else:
            metrics, detail, tracer = run_untraced(bench, seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if env["LAMEDIT_WORKERS"] is not None:
            os.environ["LAMEDIT_WORKERS"] = env["LAMEDIT_WORKERS"]
    failed = len(bench.failures)
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_facts(env),
        "sha256": bench.digests or {},
        "fail_ratio": failed / bench.attempted,
        "failures": bench.failures,
        "samples": detail,
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    return result, tracer


def write_results(result, tracer):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    base = os.path.join(RESULTS_DIR, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    if tracer is not None:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": list(tracing.Span._fields), "spans": [list(s) for s in tracer.spans]},
                fh,
                separators=(",", ":"),
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=int, default=32, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, tracer = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    write_results(result, tracer)
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, digest in result["sha256"].items():
        print(f"sha256 {digest}  {name}")
    print(f"fail_ratio {result['fail_ratio']} ({result['failed']}/{result['attempted']} ops)")
    print("samples " + json.dumps(result["samples"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
