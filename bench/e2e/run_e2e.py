#!/usr/bin/env python3
"""End-to-end benchmark of `vft run`, with a traced per-layer breakdown.

Five batch workloads over four native programs (bench/e2e/*.cpp), each run
raw and under `vft run`; the raw build's checksum is the reference output.
See README.md for the workloads, the metric dictionary and the trace
method.

  run_e2e.py [--build DIR] [--seed S] [--out FILE] [--trace]
      The suite: every workload measured for BENCHMARK.json's
      run_seconds (or --seconds), every metric printed
      with its unit; nonzero exit on any failed run. --trace adds one
      traced round per workload for the per-layer numbers. DIR is a
      bench/e2e build tree (it holds e2e_paths.json); without --build, the
      repository is built into .bench_build/ first.

  run_e2e.py --workload W --seed N --seconds T --trace 0|1
      One workload for T seconds; prints one JSON result line. --trace 0
      gives the end-to-end metrics, --trace 1 the per-layer ones.

  run_e2e.py --compare BASE.json NEW.json
      Applies BENCHMARK.json's bounds to two suite outputs (--out).

  run_e2e.py --build DIR --smoke           (ctest: bench_e2e_smoke)
  run_e2e.py --build DIR --oracle PROGRAM  (ctest, TSan builds only)
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
K_SITES = 32  # racy_sites: one context per site


class Workload(NamedTuple):
    program: str
    work: int  # full size, unit defined by the program (see README.md)
    smoke_work: int
    budget: Optional[str] = None  # `vft run --budget`
    racy: bool = False


# Full sizes give vft runs of about 2 s (see README.md, Sizes).
WORKLOADS = {
    "stencil": Workload("stencil", work=7, smoke_work=1),
    "shared_read": Workload("shared_read", work=14, smoke_work=1),
    "pipeline": Workload("pipeline", work=210, smoke_work=3),
    # Same binary and seed; sampling makes each batch cheaper, so more of
    # them fill the same time.
    "pipeline_budget5": Workload("pipeline", work=1200, smoke_work=3, budget="5"),
    "racy_sites": Workload("racy_sites", work=36000, smoke_work=20, racy=True),
}

E2E_UNITS = {
    "run_s": "s",
    "slowdown": "x",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "rss_ratio": "x",
    "setup_s": "s",
}

# Printed and kept in --out beside the end-to-end metrics: the raw-run
# medians the ratios are taken against.
BASE_UNITS = {"raw_s": "s", "raw_cpu_s": "s", "raw_rss_mb": "MiB"}

LAYER_UNITS = {
    "interpose.access.calls": "count",
    "interpose.access.self_ns": "ns",
    "interpose.access.total_s": "s",
    "abi.fast_hit_ratio": "ratio",
    "abi.slow.calls": "count",
    "abi.slow.ns": "ns",
    "abi.slow.total_s": "s",
    "interpose.sync.reentrant_calls": "count",
    "interpose.range.reentrant_calls": "count",
    "interpose.free.reentrant_calls": "count",
    "interpose.sync.calls": "count",
    "interpose.sync.self_ns": "ns",
    "interpose.sync.total_s": "s",
    "interpose.sync.wait_s": "s",
    "abi.sync.ns": "ns",
    "abi.sync.total_s": "s",
    "interpose.atomic.calls": "count",
    "interpose.atomic.self_ns": "ns",
    "interpose.atomic.total_s": "s",
    "abi.atomic.ns": "ns",
    "abi.atomic.total_s": "s",
    "interpose.range.calls": "count",
    "interpose.range.bytes": "B",
    "interpose.range.self_ns": "ns",
    "interpose.range.total_s": "s",
    "abi.range.ns_per_kib": "ns/KiB",
    "abi.range.total_s": "s",
    "interpose.free.calls": "count",
    "interpose.free.self_ns": "ns",
    "interpose.free.total_s": "s",
    "abi.free.ns": "ns",
    "interpose.thread.calls": "count",
    "interpose.thread.self_ns": "ns",
    "interpose.thread.total_s": "s",
    "interpose.thread.wait_s": "s",
    "abi.thread.ns": "ns",
    "runtime.threads": "count",
    "sampling.rate": "ratio",
    "sampling.skipped": "count",
    "sampling.claimed_overhead_pct": "%",
    "report.races": "count",
    "report.contexts": "count",
    "abi.report_write_s": "s",
    "runtime.shadow_words": "count",
    "runtime.locks": "count",
    "interpose.func.calls": "count",
    "trace.overhead": "x",
    "trace.coverage": "ratio",
}

# Interpose groups whose wrappers forward into an ABI group: if the parent
# saw calls and the ABI group none, libvft_preload no longer reaches the ABI
# through its PLT and the ABI half of the trace is blind.
ABI_PARENTS = {
    "slow": ["access"],
    "range": ["range"],
    "atomic": ["atomic"],
    "sync": ["sync"],
    "thread": ["thread"],
    "free": ["free"],
}

# One measurement round: raw runs, set-up runs (`--work 0`), then one vft
# run. Raw and set-up runs last milliseconds and vary with page-fault and
# thread wake-up latency, so each round takes several. After one discarded
# warm-up vft run, rounds repeat while the next one still fits in the run
# length, and at least MIN_ROUNDS times.
RAW_PER_ROUND = 8
SETUP_PER_ROUND = 4
MIN_ROUNDS = 5
RUN_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 800


class BenchError(Exception):
    """A failure that makes the benchmark itself untrustworthy."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------


def ensure_built(out: Path) -> Path:
    """Builds the repository and this package under `out`; returns the
    package's build directory. Reuses a complete earlier build."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "interpose").is_dir():
        raise BenchError(f"no repository sources at {ROOT} (need CMakeLists.txt and src/)")
    e2e = out / "e2e"
    try:
        load_paths(e2e)
        return e2e
    except BenchError:
        pass
    out.mkdir(parents=True, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    vft_build = out / "vft"
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(vft_build), *gen,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(vft_build), "--target", "vft", "vft_preload", "-j", jobs],
        ["cmake", "-S", str(HERE), "-B", str(e2e), *gen,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DVFT_BUILD_DIR={vft_build}"],
        ["cmake", "--build", str(e2e), "-j", jobs],
    ]
    with open(out / "build.log", "w") as build_log:
        for cmd in steps:
            log("build: " + " ".join(cmd))
            rc, stdout, stderr = spawn(cmd, os.environ, BUILD_TIMEOUT_S)
            build_log.write(stdout + stderr)
            if rc:
                raise BenchError(f"build step failed: {' '.join(cmd)} (see {out / 'build.log'})")
    load_paths(e2e)
    return e2e


def load_paths(build: Path) -> dict:
    manifest = build / "e2e_paths.json"
    if not manifest.is_file():
        manifest = build / "bench" / "e2e" / "e2e_paths.json"
    try:
        paths = json.loads(manifest.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"no usable e2e_paths.json under {build}: {e}") from e
    files = [v for k, v in paths.items() if isinstance(v, str)]
    for progs in paths.get("programs", {}).values():
        files += list(progs.values())
    files += list(paths.get("oracle", {}).values())
    missing = [f for f in files if not Path(f).is_file()]
    if missing:
        raise BenchError(f"build under {build} is incomplete: missing {missing}")
    return paths


# ---------------------------------------------------------------------
# Running one program.
# ---------------------------------------------------------------------


class Run(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mib: float
    status: int
    stdout: str
    stderr: str


def clean_env(extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VFT_")}
    env.update(extra or {})
    return env


_running = None  # the child session spawn() is waiting for


def spawn(argv, env, timeout):
    """Runs argv in its own session; kills the whole session on timeout."""
    global _running
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    _running = proc
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nrun_e2e: killed after {timeout} s"
    finally:
        _running = None
    return proc.returncode, out, err


def _terminate(signo, _frame):
    """Stopped from outside: take the running child session down too."""
    if _running is not None:
        os.killpg(_running.pid, signal.SIGKILL)
        _running.wait()
    sys.exit(128 + signo)


def launch(paths, argv, env_extra=None) -> Run:
    """Runs argv under e2e_launch, which measures it from outside."""
    rc, out, err = spawn([paths["launch"], "--", *argv], clean_env(env_extra), RUN_TIMEOUT_S)
    for line in reversed(err.splitlines()):
        if line.startswith("e2e_launch: wall_s="):
            f = dict(kv.split("=", 1) for kv in line.split()[1:])
            return Run(float(f["wall_s"]), float(f["cpu_s"]), int(f["maxrss_kb"]) / 1024.0,
                       int(f["status"]), out, err)
    return Run(0.0, 0.0, 0.0, rc if rc else 255, out, err)


def raw_run(paths, wl, seed, work):
    return launch(paths, [paths["programs"][wl.program]["raw"],
                          "--seed", str(seed), "--work", str(work)])


def vft_run(paths, wl, seed, work, report: Path, trace: Optional[Path] = None):
    argv = [paths["vft"], "run", "--report", str(report)]
    if wl.budget is not None:
        argv += ["--budget", wl.budget]
    env = None
    if trace is not None:
        argv += ["--preload", f"{paths['trace']} {paths['preload']}"]
        env = {"VFT_E2E_TRACE": str(trace)}
    argv += ["--", paths["programs"][wl.program]["vft"], "--seed", str(seed), "--work", str(work)]
    for f in (report, trace):
        if f is not None and f.exists():
            f.unlink()
    return launch(paths, argv, env)


def checksum(run: Run) -> Optional[str]:
    for line in run.stdout.splitlines():
        if line.startswith("checksum="):
            return line[len("checksum="):].strip()
    return None


def load_report(path: Path) -> Optional[dict]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if doc.get("schema") != "vft-report-v2" or "summary" not in doc:
        return None
    return doc


def verify(wl, work, run: Run, report_path: Path, reference: Optional[str]):
    """Returns (problems, report). A run fails on a nonzero exit, a missing
    or partial report, a checksum other than the raw build's, a race on a
    clean workload, or a context count other than K on racy_sites."""
    problems = []
    if run.status != 0:
        last = run.stderr.strip().splitlines()[-2:-1] or ["(no stderr)"]
        problems.append(f"exit status {run.status} ({last[0]})")
    got = checksum(run)
    if got is None or got != reference:
        problems.append(f"checksum {got} != raw {reference}")
    report = load_report(report_path)
    if report is None:
        problems.append("missing or unreadable report")
    elif not report.get("clean_exit", False):
        problems.append("partial report (clean_exit false)")
    else:
        summary = report["summary"]
        if wl.racy:
            want = K_SITES if work > 0 else 0
            if summary.get("contexts") != want:
                problems.append(f"contexts {summary.get('contexts')} != {want}")
        elif summary.get("races", 0) != 0:
            problems.append(f"{summary.get('races')} races on a race-free workload")
    return problems, report


# ---------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------


def summarize(values, unit):
    """Median with its IQR and sample count. No tail percentile: these
    samples are far fewer than the 20 a p95 would need."""
    values = list(values)
    iqr = 0.0
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        iqr = q[2] - q[0]
    return {"value": statistics.median(values), "unit": unit, "iqr": iqr,
            "n": len(values), "runs": values}


# ---------------------------------------------------------------------
# End-to-end measurement.
# ---------------------------------------------------------------------


class Tally:
    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{self.name}: {what}: {'; '.join(problems)}")
            log(self.problems[-1])


def reference_checksum(paths, wl, seed, work):
    """The raw build's output, checked to repeat."""
    first = raw_run(paths, wl, seed, work)
    again = raw_run(paths, wl, seed, work)
    ref = checksum(first)
    if first.status != 0 or ref is None or checksum(again) != ref:
        raise BenchError(f"raw {wl.program} --seed {seed} --work {work} gives no stable "
                         f"checksum ({checksum(first)}, {checksum(again)})")
    return ref


class Rounds:
    """Repeats rounds while the next one, as long as the last, still ends
    before the deadline, and at least `least` times."""

    def __init__(self, seconds, least):
        self.deadline = time.monotonic() + seconds
        self.least = least
        self.done = 0
        self.started = None

    def more(self):
        now = time.monotonic()
        if self.started is not None:
            self.done += 1
            if self.done >= self.least and now + (now - self.started) > self.deadline:
                return False
        self.started = now
        return True


def measure_e2e(paths, name, seed, workdir: Path, *, work, seconds, min_rounds=MIN_ROUNDS,
                raw_per_round=RAW_PER_ROUND, setup_per_round=SETUP_PER_ROUND):
    """A warm-up vft run, then measurement rounds (see RAW_PER_ROUND)
    within `seconds`, at least `min_rounds` of them. Returns (metrics,
    tally)."""
    wl = WORKLOADS[name]
    tally = Tally(name)
    report = workdir / f"{name}.report.json"
    rounds = Rounds(seconds, min_rounds)
    ref0 = reference_checksum(paths, wl, seed, 0)
    ref = reference_checksum(paths, wl, seed, work)
    # The first run after idle is slow (cold caches, page faults): checked,
    # never timed.
    run = vft_run(paths, wl, seed, work, report)
    tally.record(verify(wl, work, run, report, ref)[0], "warm-up vft run")
    raw, setup, vft = [], [], []
    while rounds.more():
        for _ in range(raw_per_round):
            r = raw_run(paths, wl, seed, work)
            if r.status != 0 or checksum(r) != ref:
                raise BenchError(f"raw {wl.program} run disagrees with its reference")
            raw.append(r)
        for _ in range(setup_per_round):
            run = vft_run(paths, wl, seed, 0, report)
            tally.record(verify(wl, 0, run, report, ref0)[0], "set-up run")
            setup.append(run.wall_s)
        run = vft_run(paths, wl, seed, work, report)
        tally.record(verify(wl, work, run, report, ref)[0], "vft run")
        vft.append(run)

    raw_s = statistics.median(r.wall_s for r in raw)
    raw_rss = statistics.median(r.rss_mib for r in raw)
    return {
        "run_s": summarize([r.wall_s for r in vft], "s"),
        "slowdown": summarize([r.wall_s / raw_s for r in vft], "x"),
        "cpu_s": summarize([r.cpu_s for r in vft], "s"),
        "peak_rss_mb": summarize([r.rss_mib for r in vft], "MiB"),
        "rss_ratio": summarize([r.rss_mib / raw_rss for r in vft], "x"),
        "setup_s": summarize(setup, "s"),
        "raw_s": summarize([r.wall_s for r in raw], "s"),
        "raw_cpu_s": summarize([r.cpu_s for r in raw], "s"),
        "raw_rss_mb": summarize([r.rss_mib for r in raw], "MiB"),
    }, tally


# ---------------------------------------------------------------------
# Traced measurement.
# ---------------------------------------------------------------------


def symbols(path, undefined):
    flag = "--undefined-only" if undefined else "--defined-only"
    rc, out, err = spawn(["nm", "-D", flag, path], os.environ, 60)
    if rc != 0:
        raise BenchError(f"nm {flag} {path} failed: {err.strip()}")
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if parts and (undefined or (len(parts) >= 3 and parts[1] in "TWiV")):
            names.add(parts[-1].split("@")[0])
    return names


def static_self_check(paths):
    """Every __tsan_* or libvft_preload-interposed pthread/libc symbol a
    workload imports must be wrapped by the shim, or the trace misses it.
    __tsan_init runs once, before main, and feeds no metric."""
    shim = symbols(paths["trace"], undefined=False)
    preload = symbols(paths["preload"], undefined=False)
    for program, files in paths["programs"].items():
        imports = symbols(files["vft"], undefined=True) - {"__tsan_init"}
        layer = {s for s in imports if s.startswith("__tsan_") or s in preload}
        missing = sorted(layer - shim)
        if missing:
            raise BenchError(f"shim self-check: e2e_{program} imports {missing}, "
                             "which the trace shim does not wrap")


TRACE_COUNTERS = ("calls", "timed", "busy_ns", "self_ns", "wait_ns", "bytes", "timed_bytes")


def empty_group():
    return dict.fromkeys(TRACE_COUNTERS, 0) | {"total_s": 0.0, "wait_s": 0.0}


def group_totals(trace):
    """(layer, group) -> summed counters plus the estimated total busy and
    waiting seconds (each entry's calls times its mean timed span)."""
    groups = {}
    for e in trace["entries"]:
        g = groups.setdefault((e["layer"], e["group"]), empty_group())
        for k in TRACE_COUNTERS:
            g[k] += e[k]
        if e["timed"]:
            g["total_s"] += e["calls"] * e["busy_ns"] / e["timed"] / 1e9
            g["wait_s"] += e["calls"] * e["wait_ns"] / e["timed"] / 1e9
    return groups


def runtime_self_check(groups):
    for abi, parents in ABI_PARENTS.items():
        parent_calls = sum(groups.get(("interpose", p), {}).get("calls", 0) for p in parents)
        if parent_calls and not groups.get(("abi", abi), {}).get("calls", 0):
            raise BenchError(f"shim self-check: interpose {parents} saw {parent_calls} calls "
                             f"but ABI group '{abi}' saw none - libvft_preload no longer "
                             "reaches the ABI through its PLT")


def layer_metrics(trace, report, vft: Run, raw: Run, traced: Run):
    groups = group_totals(trace)
    runtime_self_check(groups)

    def grp(layer, group):
        return groups.get((layer, group)) or empty_group()

    def mean(num, den):
        return num / den if den else 0.0

    m = {}
    for g in ("access", "sync", "atomic", "range", "free", "thread"):
        ig = grp("interpose", g)
        m[f"interpose.{g}.calls"] = ig["calls"]
        m[f"interpose.{g}.self_ns"] = mean(ig["self_ns"], ig["timed"])
        m[f"interpose.{g}.total_s"] = ig["total_s"]
    for g in ("sync", "thread"):
        m[f"interpose.{g}.wait_s"] = grp("interpose", g)["wait_s"]
    for g in ("sync", "range", "free"):
        m[f"interpose.{g}.reentrant_calls"] = trace["reentrant"][g]
    m["interpose.range.bytes"] = grp("interpose", "range")["bytes"]
    m["interpose.func.calls"] = grp("interpose", "func")["calls"]

    slow = grp("abi", "slow")
    m["abi.slow.calls"] = slow["calls"]
    m["abi.slow.ns"] = mean(slow["busy_ns"], slow["timed"])
    m["abi.slow.total_s"] = slow["total_s"]
    m["abi.fast_hit_ratio"] = 1.0 - mean(slow["calls"], m["interpose.access.calls"])
    for g in ("sync", "atomic", "free", "thread"):
        m[f"abi.{g}.ns"] = mean(grp("abi", g)["busy_ns"], grp("abi", g)["timed"])
    for g in ("sync", "atomic", "range"):
        m[f"abi.{g}.total_s"] = grp("abi", g)["total_s"]
    rng = grp("abi", "range")
    m["abi.range.ns_per_kib"] = mean(rng["busy_ns"], rng["timed_bytes"] / 1024.0)
    m["abi.report_write_s"] = grp("abi", "report")["busy_ns"] / 1e9

    summary = report["summary"]
    m["report.races"] = summary.get("races", 0)
    m["report.contexts"] = summary.get("contexts", 0)
    m["runtime.threads"] = summary.get("threads", 0)
    m["runtime.locks"] = summary.get("locks", 0)
    m["runtime.shadow_words"] = summary.get("shadow_words", 0)
    sampling = report.get("sampling")
    if sampling:
        seen = sampling.get("sampled", 0) + sampling.get("skipped", 0)
        m["sampling.rate"] = mean(sampling.get("sampled", 0), seen)
        m["sampling.skipped"] = sampling.get("skipped", 0)
        m["sampling.claimed_overhead_pct"] = 100.0 * mean(sampling.get("overhead_ns", 0),
                                                          sampling.get("busy_ns", 0))
    else:
        m["sampling.rate"] = 1.0
        m["sampling.skipped"] = 0
        m["sampling.claimed_overhead_pct"] = 0.0

    m["trace.overhead"] = mean(traced.wall_s, vft.wall_s)
    interposed = sum(v["total_s"] for (layer, _), v in groups.items() if layer == "interpose")
    m["trace.coverage"] = mean(interposed, vft.cpu_s - raw.cpu_s)
    return m


def measure_trace(paths, name, seed, workdir: Path, *, work, seconds):
    """Rounds of a raw, an untraced and a traced run for `seconds`, at least
    one; per-layer metrics are the medians over rounds. Returns (metrics,
    tally)."""
    wl = WORKLOADS[name]
    tally = Tally(name)
    static_self_check(paths)
    report = workdir / f"{name}.report.json"
    traced_report = workdir / f"{name}.traced.report.json"
    trace_file = workdir / f"{name}.trace.json"
    rounds = Rounds(seconds, 1)
    ref = reference_checksum(paths, wl, seed, work)
    samples = []
    while rounds.more():
        raw = raw_run(paths, wl, seed, work)
        vft = vft_run(paths, wl, seed, work, report)
        problems, doc = verify(wl, work, vft, report, ref)
        tally.record(problems, "vft run")
        traced = vft_run(paths, wl, seed, work, traced_report, trace_file)
        traced_problems = verify(wl, work, traced, traced_report, ref)[0]
        try:
            trace = json.loads(trace_file.read_text())
            if trace["overflow_threads"]:
                traced_problems.append(f"{trace['overflow_threads']} threads past the "
                                       "shim's counter pool")
        except (OSError, ValueError, KeyError):
            traced_problems.append("no trace written")
        tally.record(traced_problems, "traced run")
        if not problems and not traced_problems:
            samples.append(layer_metrics(trace, doc, vft, raw, traced))
    metrics = {}
    if samples:
        metrics = {k: summarize([s[k] for s in samples], u) for k, u in LAYER_UNITS.items()}
    return metrics, tally


# ---------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------


def benchmark_json():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {ROOT / 'BENCHMARK.json'}: {e}") from e


def run_seconds(args):
    """--seconds, else BENCHMARK.json's run_seconds."""
    return args.seconds if args.seconds is not None else benchmark_json()["run_seconds"]


def print_metrics(name, metrics, units):
    for key in units:
        if key in metrics:
            v = metrics[key]
            print(f"{name:<17} {key:<32} {v['value']:>14.6g} {v['unit']:<7} "
                  f"n={v['n']} IQR={v['iqr']:.4g}")


def prepare(args):
    """The build to run (--build, else one made under .bench_build/) and a
    working directory for reports and traces inside it."""
    build = Path(args.build).resolve() if args.build else ensure_built(ROOT / ".bench_build")
    paths = load_paths(build)
    workdir = build / "e2e_runs"
    workdir.mkdir(parents=True, exist_ok=True)
    return paths, workdir


def one_workload(args):
    wl_name = args.workload
    if wl_name not in WORKLOADS:
        raise BenchError(f"unknown workload {wl_name}; have {sorted(WORKLOADS)}")
    paths, workdir = prepare(args)
    wl = WORKLOADS[wl_name]
    if args.trace:
        metrics, tally = measure_trace(paths, wl_name, args.seed, workdir, work=wl.work,
                                       seconds=run_seconds(args))
        units = LAYER_UNITS
    else:
        metrics, tally = measure_e2e(paths, wl_name, args.seed, workdir, work=wl.work,
                                     seconds=run_seconds(args))
        units = E2E_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0


def suite(args, smoke=False):
    paths, workdir = prepare(args)
    # Smoke: one round of each kind, every check, no timing goal.
    counts = (dict(seconds=0, min_rounds=1, raw_per_round=1, setup_per_round=1) if smoke
              else dict(seconds=run_seconds(args)))
    doc = {"schema": "vft-bench-e2e-v1", "seed": args.seed, "smoke": smoke, "workloads": {}}
    failed = 0
    printed = set()
    for name, wl in WORKLOADS.items():
        work = wl.smoke_work if smoke else wl.work
        log(f"== {name} (work {work})")
        metrics, tally = measure_e2e(paths, name, args.seed, workdir, work=work, **counts)
        entry = {"work": work, "attempted": tally.attempted, "failed": tally.failed,
                 "fail_frac": tally.failed / tally.attempted, "metrics": metrics,
                 "problems": tally.problems}
        print_metrics(name, metrics, {**E2E_UNITS, **BASE_UNITS})
        print(f"{name:<17} {'fail_frac':<32} {entry['fail_frac']:>14.6g} ratio   "
              f"({tally.failed}/{tally.attempted} runs)")
        printed.update(E2E_UNITS)
        failed += tally.failed
        if args.trace or smoke:
            layers, ttally = measure_trace(paths, name, args.seed, workdir, work=work,
                                           seconds=0)
            entry["per_layer"] = layers
            entry["problems"] += ttally.problems
            print_metrics(name, layers, LAYER_UNITS)
            printed.update(layers)
            failed += ttally.failed
            if wl.budget is not None and layers:
                print(f"{name:<17} controller claims "
                      f"{layers['sampling.claimed_overhead_pct']['value']:.2f}% overhead; "
                      f"measured slowdown {metrics['slowdown']['value']:.2f} x")
        doc["workloads"][name] = entry
    print("note: every timing is a median with its IQR over n runs; no tail percentile "
          "is given because n < 20")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if smoke:
        failed += check_benchmark_names(printed)
    if failed:
        log(f"run_e2e: {failed} failed run(s) or check(s)")
        return 1
    return 0


def check_benchmark_names(printed):
    """Every metric BENCHMARK.json names must be one this script prints,
    with the same unit."""
    bench = benchmark_json()
    bad = 0
    for section, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        for metric in bench[section]:
            if metric["name"] not in printed or units.get(metric["name"]) != metric["unit"]:
                log(f"BENCHMARK.json {section} metric {metric['name']} ({metric['unit']}) "
                    "is not in the output with that unit")
                bad += 1
    names = {w["name"] for w in bench["workloads"]}
    if names != set(WORKLOADS):
        log(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
        bad += 1
    return bad


def oracle(args):
    """Runs a libtsan-linked program: race-free programs must draw no TSan
    report, racy_sites exactly one per site."""
    paths = load_paths(Path(args.build).resolve())
    program = args.oracle
    binary = paths["oracle"][program]
    wl = next(w for w in WORKLOADS.values() if w.program == program)
    env = dict(os.environ, TSAN_OPTIONS="halt_on_error=0 exitcode=0")
    rc, out, err = spawn([binary, "--seed", str(args.seed), "--work", str(wl.smoke_work)],
                         env, RUN_TIMEOUT_S)
    reports = err.count("WARNING: ThreadSanitizer: data race")
    other = err.count("WARNING: ThreadSanitizer:") - reports
    want = K_SITES if wl.racy else 0
    print(f"oracle {program}: exit {rc}, {reports} data-race report(s), {other} other; "
          f"want {want}")
    if rc != 0 or reports != want or other != 0 or "checksum=" not in out:
        sys.stderr.write(err[-4000:])
        return 1
    return 0


def compare(base_path, new_path):
    """better / unchanged / worse / unresolved per (metric, workload), with
    BENCHMARK.json's bounds. Unresolved: the IQR is wider than the bound,
    unless every run of one side beats every run of the other."""
    bench = benchmark_json()
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    worse = 0
    print(f"{'workload':<17} {'metric':<12} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for name in (n for n in base if n in new):
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            b, n = base[name]["metrics"].get(key), new[name]["metrics"].get(key)
            if b is None or n is None:
                continue
            lower = metric["better"] == "lower"
            ratio = n["value"] / b["value"]
            change = (ratio - 1.0) if lower else (1.0 - ratio)  # > 0: worse
            spread = max(b["iqr"] / b["value"], n["iqr"] / n["value"])
            ahead = (max(n["runs"]) < min(b["runs"])) if lower else (min(n["runs"]) > max(b["runs"]))
            behind = (min(n["runs"]) > max(b["runs"])) if lower else (max(n["runs"]) < min(b["runs"]))
            if spread > bound and not (ahead or behind):
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            worse += verdict == "worse"
            print(f"{name:<17} {key:<12} {b['value']:>12.5g} {n['value']:>12.5g} "
                  f"{ratio:>9.3f}  {verdict} (bound {bound:.0%}, spread {spread:.1%})")
        bf, nf = base[name]["fail_frac"], new[name]["fail_frac"]
        verdict = "worse" if nf > bf else ("better" if nf < bf else "unchanged")
        worse += verdict == "worse"
        print(f"{name:<17} {'fail_frac':<12} {bf:>12.5g} {nf:>12.5g} {'':>9}  {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build", help="bench/e2e build tree (holds e2e_paths.json)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="suite: write every metric and run as JSON")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="per-layer numbers from the LD_PRELOAD trace shim")
    ap.add_argument("--workload", help="one workload, one JSON result line")
    ap.add_argument("--seconds", type=float,
                    help="run length per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--smoke", action="store_true", help="small sizes, every check")
    ap.add_argument("--oracle", metavar="PROGRAM", help="TSan build: check one verdict")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.oracle:
            return oracle(args)
        if args.workload:
            return one_workload(args)
        return suite(args, smoke=args.smoke)
    except BenchError as e:
        log(f"run_e2e: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
