"""quador benchmark: CLI wall time and memory, and a traced run per layer.

    python3 bench/run.py --workload fixture-fine --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all

Run it from anywhere; it uses the tree it sits in (``src/`` and
``fixtures/``) and writes only under ``.bench_work/`` there, which it
removes again.

``--trace 0`` runs each CLI command, and the shared set-up prefix, as its
own child process, one at a time, in rounds until ``--seconds`` are used.
It reports each one's mean wall time, rescaled to a fixed machine speed
(``speed.py``), and its median peak RSS.  ``--trace 1`` runs each
command once as a child (CPU against wall time), then in process twice:
untraced, and traced with spans around the calls into each layer (see
``tracing.py``).  Every command run is checked (``checks.py``) and counts
as one operation.  The last line of stdout is the JSON result; the line
before it records provenance, sample counts and output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

# Modules that import numpy (checks, quador) are imported inside
# functions, after main() has pinned BLAS to one thread.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
COMMANDS = ("mesh", "verify", "sample", "conics", "classify")
REFERENCE_SHARE = 0.1  # time spent on the speed reference, against time measured
# Children and this process use one thread each, so a run needs one core.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CODE = (
    "import sys, quador\n"
    "a = quador.build_assembly(quador.load_lattice_path(sys.argv[1]))\n"
    "print(len(a.hubs) + len(a.beams) + len(a.fillets))\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import quador.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in NOTES.md and BENCHMARK.json."""

    name: str
    n_points: int
    resolution: int
    mesh_format: str
    fixture: str | None = None  # a file in fixtures/, else the generated cubic lattice
    shape: tuple[int, int, int] = (0, 0, 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture-fine", n_points=10000, resolution=64, mesh_format="stl",
                 fixture="perpendicular_beta1.json"),
        Workload("cubic-filleted", n_points=500, resolution=48, mesh_format="obj",
                 shape=(2, 2, 2)),
    )
}


# --------------------------------------------------------------------------
# Inputs and command lines
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    lattice: Path
    points: Path
    hubs: int
    beams: int
    fillets: int

    @property
    def parts(self) -> int:
        return self.hubs + self.beams + self.fillets


def prepare_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    from inputs import cubic_lattice, write_inputs, write_points

    if w.fixture:
        lattice = ROOT / "fixtures" / w.fixture
        doc = json.loads(lattice.read_text(encoding="utf-8"))
        points = write_points(workdir / "points.csv", doc, w.n_points, seed)
    else:
        doc = cubic_lattice(w.shape, seed)
        lattice, points = write_inputs(workdir, doc, w.n_points, seed)
    return Inputs(lattice, points, len(doc["hubs"]), len(doc["beams"]), len(doc["fillets"]))


def output_path(w: Workload, cmd: str, outdir: Path) -> Path | None:
    return {
        "mesh": outdir / f"mesh.{w.mesh_format}",
        "verify": outdir / "report.json",
        "sample": outdir / "sample.csv",
        "conics": outdir / "conics.obj",
    }.get(cmd)


def cli_argv(w: Workload, cmd: str, inp: Inputs, seed: int, outdir: Path) -> list[str]:
    lattice = str(inp.lattice)
    out = str(output_path(w, cmd, outdir))
    return {
        "mesh": ["mesh", lattice, "--resolution", str(w.resolution),
                 "--format", w.mesh_format, "-o", out],
        "verify": ["verify", lattice, "--seed", str(seed), "--report", out],
        "sample": ["sample", lattice, "--points", str(inp.points), "-o", out],
        "conics": ["conics", lattice, "-o", out],
        "classify": ["classify", lattice],
    }[cmd]


def output_problems(w: Workload, cmd: str, rc: int, stdout: str, inp: Inputs,
                    outdir: Path) -> list[str]:
    import checks

    if rc != 0:
        return [f"exit code {rc}"]
    path = output_path(w, cmd, outdir)
    if cmd == "setup":
        return [] if stdout.strip() == str(inp.parts) else [f"setup built {stdout.strip()!r} parts"]
    if cmd == "mesh":
        count = checks.printed_count(stdout, "triangles")
        if w.mesh_format == "stl":
            return checks.stl_problems(path, count)
        return checks.obj_mesh_problems(path, count)
    if cmd == "verify":
        return checks.verify_problems(path)
    if cmd == "sample":
        return checks.sample_problems(path, w.n_points)
    if cmd == "conics":
        return checks.conics_problems(path, stdout, inp.fillets)
    return checks.classify_problems(stdout, inp.beams, inp.fillets)


def output_digest(w: Workload, cmd: str, stdout: str, outdir: Path) -> str:
    path = output_path(w, cmd, outdir)
    data = path.read_bytes() if path is not None else stdout.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChildRun:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


def child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Peak RSS comes from wait4, and Linux carries the parent's high-water mark
# into a child across exec.  Each child is therefore started by this small
# launcher, not by the benchmark process (which holds numpy and the fixture
# outputs); the launcher times the child and writes its rusage to argv[1].
LAUNCHER = (
    "import json, os, sys, time\n"
    "t = time.perf_counter()\n"
    "pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)\n"
    "_, status, ru = os.wait4(pid, 0)\n"
    "wall = time.perf_counter() - t\n"
    "with open(sys.argv[1], 'w') as f:\n"
    "    json.dump([os.waitstatus_to_exitcode(status), wall,\n"
    "               ru.ru_utime + ru.ru_stime, ru.ru_maxrss], f)\n"
)


def run_child(args: list[str], workdir: Path, timeout: float) -> ChildRun:
    """Run one child to completion: wall time, CPU time and peak RSS."""
    usage_path = workdir / "child.usage"
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    usage_path.unlink(missing_ok=True)
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(usage_path), *args],
            stdout=out, stderr=err, env=child_env(), cwd=workdir, start_new_session=True,
        )
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:  # timed out, or this process was stopped
                os.killpg(proc.pid, signal.SIGKILL)  # the launcher and its child
                proc.wait()
    if proc.returncode != 0 or not usage_path.exists():
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        wall = time.perf_counter() - start
        return ChildRun(proc.returncode or -1, wall, wall, 0.0, "")
    rc, wall, cpu, maxrss_kib = json.loads(usage_path.read_text())
    if rc != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return ChildRun(rc, wall, cpu, maxrss_kib / 1024.0, out_path.read_text(errors="replace"))


def child_args(w: Workload, cmd: str, inp: Inputs, seed: int, outdir: Path) -> list[str]:
    if cmd == "setup":
        return [sys.executable, "-c", SETUP_CODE, str(inp.lattice)]
    return [sys.executable, "-m", "quador.cli", *cli_argv(w, cmd, inp, seed, outdir)]


# --------------------------------------------------------------------------
# Bookkeeping shared by both modes
# --------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str], digest: str | None) -> None:
        """One checked operation; a repeat must write the same bytes."""
        self.attempted += 1
        if digest is not None:
            first = self.digests.setdefault(label, digest)
            if first != digest:
                problems = [*problems, "output differs from the first run"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def check_run(t: Tally, w: Workload, cmd: str, rc: int, stdout: str, inp: Inputs,
              outdir: Path) -> None:
    problems = output_problems(w, cmd, rc, stdout, inp, outdir)
    digest = None if cmd == "setup" or rc != 0 else output_digest(w, cmd, stdout, outdir)
    t.record(cmd, problems, digest)


def provenance(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    src_files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# --trace 0: end-to-end metrics from child processes
# --------------------------------------------------------------------------

def run_end_to_end(w: Workload, seed: int, seconds: float, workdir: Path,
                   started: float) -> tuple[dict, Tally, dict]:
    import speed
    from digests import fixture_digests, load_reference
    from quador.cli import main

    inp = prepare_inputs(w, seed, workdir)
    reference = load_reference()
    found = fixture_digests(main, ROOT / "fixtures", workdir / "digests")
    matches = sum(1 for k, v in reference.items() if found.get(k) == v)

    tally = Tally()
    tasks = ("setup", *COMMANDS)
    walls: dict[str, list[float]] = {t: [] for t in tasks}
    rss: dict[str, list[float]] = {t: [] for t in tasks}
    cpu: dict[str, list[float]] = {t: [] for t in tasks}
    references: list[float] = []

    def run(task: str) -> None:
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        r = run_child(child_args(w, task, inp, seed, workdir), workdir, remaining)
        walls[task].append(r.wall)
        rss[task].append(r.rss_mb)
        cpu[task].append(r.cpu)
        check_run(tally, w, task, r.rc, r.stdout, inp, workdir)
        # Reference calls take about a tenth of the time just measured, so
        # they sample the machine's speed evenly over the whole run.
        calls = max(1, round(REFERENCE_SHARE * r.wall / speed.NOMINAL_S))
        references.extend(speed.reference_seconds() for _ in range(calls))

    # On a shared 2-core VM a single sample is off by 10-15%, so every task
    # gets the same number of samples: rounds over all tasks, each task
    # running again while it still fits before the deadline.
    deadline = time.perf_counter() + seconds
    for task in tasks:
        run(task)
    ran = True
    while ran:
        ran = False
        for task in tasks:
            cost = (1 + REFERENCE_SHARE) * statistics.median(walls[task])
            if time.perf_counter() + cost <= deadline:
                run(task)
                ran = True

    # The ratio of mean times cancels the run's share of fast and slow
    # machine states (see speed.scale); a median would not.
    scale = speed.scale(references)
    metrics = {f"{t}_s": metric(scale * statistics.fmean(walls[t]), "s") for t in tasks}
    for cmd in ("mesh", "sample", "verify"):
        metrics[f"{cmd}_rss_mb"] = metric(statistics.median(rss[cmd]), "MB")
    metrics["output_matches"] = metric(matches, "count")
    details = {
        "samples": {t: len(v) for t, v in walls.items()},
        "wall_s": walls,
        "cpu_s": cpu,
        "reference_s": references,
        "speed_scale": scale,
        "fixture_digest_mismatches": sorted(k for k, v in reference.items() if found.get(k) != v),
    }
    return metrics, tally, details


# --------------------------------------------------------------------------
# --trace 1: per-layer metrics from a traced in-process run
# --------------------------------------------------------------------------

def active_cells(field) -> int:
    """Cells whose 8 corners are neither all inside nor all outside."""
    import numpy as np

    inside = field < 0.0
    nx, ny, nz = (n - 1 for n in inside.shape)
    corners = [inside[dx:dx + nx, dy:dy + ny, dz:dz + nz]
               for dx, dy, dz in itertools.product((0, 1), repeat=3)]
    anyc = np.logical_or.reduce(corners)
    allc = np.logical_and.reduce(corners)
    return int(np.count_nonzero(anyc & ~allc))


def run_traced(w: Workload, seed: int, workdir: Path, started: float) -> tuple[dict, Tally, dict]:
    import quador.cli
    from digests import cli_inprocess
    from tracing import Tracer

    inp = prepare_inputs(w, seed, workdir)
    tally = Tally()
    metrics: dict[str, dict] = {}

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    imports = [float(run_child([sys.executable, "-c", IMPORT_CODE], workdir, remaining()).stdout)
               for _ in range(3)]
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")

    for cmd in COMMANDS:
        r = run_child(child_args(w, cmd, inp, seed, workdir), workdir, remaining())
        check_run(tally, w, cmd, r.rc, r.stdout, inp, workdir)
        metrics[f"cli.{cmd}.cpu_s"] = metric(r.cpu, "s")
        metrics[f"cli.{cmd}.wait_s"] = metric(r.wall - r.cpu, "s")

    # Each command in process, untraced and then traced, back to back so
    # that drift in machine load hits both sides alike.
    main = quador.cli.main
    modules = {name: sys.modules[name] for name in
               ("quador.cli", "quador.latticefile", "quador.solid",
                "quador.fillet", "quador.verify")}
    tracer = Tracer()
    untraced = traced = 0.0
    for cmd in ("classify", "conics", "sample", "mesh", "verify"):
        argv = cli_argv(w, cmd, inp, seed, workdir)
        start = time.perf_counter()
        rc, stdout = cli_inprocess(main, argv)
        untraced += time.perf_counter() - start
        check_run(tally, w, cmd, rc, stdout, inp, workdir)

        tracer.request = cmd
        tracer.install(modules)
        try:
            start = time.perf_counter()
            rc, stdout = tracer.call(f"cli.{cmd}", cli_inprocess, main, argv)
            traced += time.perf_counter() - start
        finally:
            tracer.restore()
        check_run(tally, w, cmd, rc, stdout, inp, workdir)
    metrics["trace.overhead_s"] = metric(traced - untraced, "s")

    totals = tracer.totals()

    def total_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    for name in ("latticefile.load_lattice", "lattice.validate_lattice",
                 "lattice.stub_views_at_hub", "fillet.build_fillet_for_spec",
                 "fillet.fillet_extent", "fillet.fillet_min_curvature_radius",
                 "conics.sample_conic", "algebra.classify_quadric",
                 "solid.build_assembly", "solid.auto_bounds", "solid.marching_cubes",
                 "solid.classify_point", "writers.write_obj_polylines",
                 "verify.run_verify"):
        metrics[f"{name}_s"] = metric(total_s(name), "s")

    mesh_field = tracer.totals(parent="solid.marching_cubes")["solid.field_grid"][1]
    metrics["solid.field_grid_s"] = metric(mesh_field, "s")
    metrics["solid.mc_extract_s"] = metric(total_s("solid.marching_cubes") - mesh_field, "s")
    points = totals["solid.classify_point"][0]
    metrics["solid.classify_point_us"] = metric(
        1e6 * total_s("solid.classify_point") / points, "us")

    grid = tracer.last_result[("solid.field_grid", "solid.marching_cubes")]
    mesh = tracer.last_result[("solid.marching_cubes", "cli.mesh")]
    cells = w.resolution ** 3
    active = active_cells(grid)
    metrics["solid.parts"] = metric(inp.parts, "count")
    metrics["solid.grid_points"] = metric(grid.size, "count")
    metrics["solid.part_evals"] = metric(grid.size * inp.parts, "count")
    metrics["solid.active_cells"] = metric(active, "count")
    metrics["solid.active_cell_ratio"] = metric(active / cells, "ratio")
    metrics["solid.mesh_triangles"] = metric(len(mesh.triangles), "count")
    metrics["solid.mesh_vertices"] = metric(len(mesh.vertices), "count")
    metrics["writers.mesh_bytes"] = metric(output_path(w, "mesh", workdir).stat().st_size, "bytes")

    # Both mesh writers on both workloads: the one the command did not use
    # writes the same mesh once more, outside the traced sequence.
    other = "write_obj_mesh" if w.mesh_format == "stl" else "write_stl"
    start = time.perf_counter()
    getattr(quador.cli, other)(mesh, workdir / "other_format.out")
    metrics[f"writers.{other}_s"] = metric(time.perf_counter() - start, "s")
    used = "write_stl" if w.mesh_format == "stl" else "write_obj_mesh"
    metrics[f"writers.{used}_s"] = metric(total_s(f"writers.{used}"), "s")

    # Peak traced memory of marching cubes, in its own untimed call.
    mc_args = tracer.last_args["solid.marching_cubes"]
    tracemalloc.start()
    try:
        quador.cli.marching_cubes(*mc_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics["solid.marching_cubes_peak_mb"] = metric(peak / 2**20, "MB")

    self_times = tracer.self_times()
    details = {
        "spans": {name: {"calls": calls, "total_s": secs, "self_s": self_times[name]}
                  for name, (calls, secs) in sorted(totals.items())},
        "untraced_s": untraced,
        "traced_s": traced,
    }
    return metrics, tally, details


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def run_workload(args) -> int:
    started = time.perf_counter()
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, tally, details = run_traced(w, args.seed, workdir, started)
        else:
            metrics, tally, details = run_end_to_end(w, args.seed, args.seconds, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {name: m["unit"] for name, m in metrics.items()}
    if measured != declared:
        print(f"bench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(measured.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 1
    record = {
        "workload": w.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "outputs_sha256": tally.digests,
        "problems": tally.problems,
        **details,
    }
    print(json.dumps(record, sort_keys=True))
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"bench: {name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                print(f"{name:16s} {key:40s} {m['value']:>16.6g} {m['unit']}")
                combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "quador" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"bench: no quador source tree at {ROOT} (need src/quador and fixtures/)",
              file=sys.stderr)
        return 2
    # A stop request unwinds through the cleanup below (children, workdir).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update(SINGLE_THREAD)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
