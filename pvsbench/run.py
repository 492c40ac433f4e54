"""One benchmark for palmvein's three uses: train, verify and evaluate.

    python3 pvsbench/run.py --workload {train,verify,evaluate} --seed N --seconds S --trace {0,1}

Run from the repository root.  One process, one client, a closed loop: each
operation starts when the previous one has returned.  BLAS runs on one
thread, pinned before numpy loads.  The run repeats whole rounds of
operations until ``--seconds`` have passed, checks the program's outputs
(``checks.py``), and prints as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` times every layer (``tracing.py``) and
gives the per-layer metrics instead.  Run directories and trace files go to
``pvsbench/_out``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

# Epoch and step counts of the train workload; data and model sizes stay at the
# desk defaults.  The end-to-end batch is cut from 45 to 15 triplets: at 45 its
# one step builds a 2.1 GB graph (2.36 GB of address space), which alone set the
# workload's peak memory; at 15 the process stays near 1 GB.
TRAIN_SCHEDULE = dict(ced1_epochs=1, ced2_epochs=1, stack_epochs=1, ae_epochs=1,
                      triplet_steps=2, e2e_steps=1, e2e_batch=15)
VERIFY_THRESHOLD = 0.5
IMPORT_REPEATS = 3  # package imports timed per run; set-up counts their median
CHECK_SAMPLE = 8  # manifest rows whose outputs are recomputed with the float64 reference

# End-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import palmvein; "
                "print(time.perf_counter() - t)")


def cpu_steal_s() -> float:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def import_seconds(n: int) -> list[float]:
    """Package import time in ``n`` fresh interpreters, run one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(n)]


def git_sha() -> str:
    """HEAD of the checkout's own ``.git``, read without leaving the checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "none"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return "none"


def environment(steal_at_start: float, phases: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_steal_s": round(cpu_steal_s() - steal_at_start, 2),
            "phase_s": {k: round(v, 2) for k, v in phases.items()}}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs, set-up, operations and output checks of one workload.

    ``prepare`` writes the inputs and is not timed; ``setup`` is the
    program's own set-up beyond the package import and returns its seconds;
    ``op(k)`` is operation ``k`` and ``before_op(k)`` its untimed preparation.
    numpy and palmvein are imported inside the methods, after ``main`` has
    timed the package import.
    """

    round_size = 1
    schedule: dict = {}

    def __init__(self, seed: int, run_dir: Path):
        from palmvein import PipelineConfig

        self.seed = seed
        self.run_dir = run_dir
        self.cfg = PipelineConfig(seed=seed, out=str(run_dir), **self.schedule)

    def prepare(self) -> None:
        pass

    def setup(self) -> float:
        return 0.0

    def before_op(self, k: int) -> None:
        pass

    def op(self, k: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def manifest_sample(self, rows: list[int], n: int) -> list[int]:
        import numpy as np

        rng = np.random.default_rng([self.seed, 0xC4EC])
        return sorted(int(i) for i in rng.choice(rows, size=n, replace=False))

    def write_finished_run(self) -> None:
        """Data from the gen-data stage plus a stage-9 checkpoint of seeded weights."""
        from palmvein import ParamSet, run_stages
        from palmvein.ced import build_ced, stack_ceds
        from palmvein.fe import build_fe
        from palmvein.pipeline import CKPT_E2E, RunPaths
        from palmvein.weights import save_weights

        run_stages(self.cfg, [1])
        stacked = stack_ceds(build_ced(self.cfg.ced_config(), seed=3 * self.seed + 1),
                             build_ced(self.cfg.ced_config(), seed=3 * self.seed + 2))
        fe = build_fe(self.cfg.fe_config(), seed=3 * self.seed + 3)
        save_weights(ParamSet.union(("stack", stacked.params), ("fe", fe.params)),
                     RunPaths(self.run_dir).checkpoint(CKPT_E2E))


class Train(Workload):
    """Stages 1-9 into an empty directory, at desk sizes with cut schedules."""

    schedule = TRAIN_SCHEDULE

    def before_op(self, k: int) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def op(self, k: int) -> None:
        from palmvein import run_stages

        run_stages(self.cfg, range(1, 10))

    def check(self) -> None:
        import checks

        n_images = self.cfg.subjects * self.cfg.samples
        checks.check_train_run(self.run_dir, self.cfg.triplet_steps, self.cfg.margin_start,
                               self.cfg.margin_end,
                               self.manifest_sample(list(range(n_images)), CHECK_SAMPLE))

    def quality(self) -> dict:
        """Stage 10 on the trained run, for reference; not timed."""
        import checks
        from palmvein import run_stages

        run_stages(self.cfg, [10])
        checks.check_evaluate_run(self.run_dir)
        out = {}
        for report in ("report", "report_untrained"):
            m = checks.read_kv_csv(self.run_dir / report / "metrics.csv")
            out[report] = {k: m[k] for k in ("eer", "di", "crr")}
        return out


class Evaluate(Workload):
    """Stage 10 on a finished run directory."""

    def prepare(self) -> None:
        self.write_finished_run()

    def op(self, k: int) -> None:
        from palmvein import run_stages

        run_stages(self.cfg, [10])

    def check(self) -> None:
        import checks

        checks.check_evaluate_run(self.run_dir)


class Verify(Workload):
    """One ``verify_probe`` per call over every manifest image, in a seeded order."""

    def prepare(self) -> None:
        import numpy as np
        from palmvein.dataio import read_manifest
        from palmvein.pipeline import RunPaths

        self.write_finished_run()
        paths = RunPaths(self.run_dir)
        self.manifest = read_manifest(paths.manifest)
        self.order = np.random.default_rng([self.seed, 0x0DE7]).permutation(len(self.manifest))
        self.round_size = len(self.manifest)
        self.calls: list[tuple[int, float, bool]] = []

    def setup(self) -> float:
        from palmvein import enroll

        start = perf_counter()
        enroll(self.cfg)
        return perf_counter() - start

    def op(self, k: int) -> None:
        from palmvein import verify_probe

        row = int(self.order[k % len(self.order)])
        distance, accepted = verify_probe(
            self.cfg, self.run_dir / "data" / self.manifest[row].relative_path,
            VERIFY_THRESHOLD)
        self.calls.append((row, distance, accepted))

    def check(self) -> None:
        import checks

        gallery = [i for i, r in enumerate(self.manifest) if r.role == "gallery"]
        probe = [i for i, r in enumerate(self.manifest) if r.role == "probe"]
        sample = self.manifest_sample(gallery, CHECK_SAMPLE // 2) \
            + self.manifest_sample(probe, CHECK_SAMPLE // 2)
        checks.check_verify_run(self.run_dir, self.calls, VERIFY_THRESHOLD, sample)


WORKLOADS = {"train": Train, "verify": Verify, "evaluate": Evaluate}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_ops(workload: Workload, seconds: float) -> tuple[list[float], int, int]:
    """Whole rounds of operations until ``seconds`` have passed.

    Returns the wall time of each operation that succeeded, the number
    attempted and the number that raised.
    """
    times, attempted, failed = [], 0, 0
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        for _ in range(workload.round_size):
            workload.before_op(attempted)
            began = perf_counter()
            try:
                workload.op(attempted)
            except Exception:
                failed += 1
                traceback.print_exc()
            else:
                times.append(perf_counter() - began)
            attempted += 1
    return times, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "palmvein" / "__init__.py").is_file():
        print(f"palmvein sources not found under {SRC}", file=sys.stderr)
        return 2
    steal_at_start = cpu_steal_s()
    sys.path.insert(0, str(SRC))
    began = perf_counter()
    import palmvein  # noqa: F401  (timed: the package import is part of set-up)
    import_s = [perf_counter() - began] + import_seconds(IMPORT_REPEATS - 1)

    import checks
    import tracing

    OUT.mkdir(parents=True, exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    phases = {"import": sum(import_s)}
    clock = perf_counter()
    workload.prepare()
    phases["prepare"] = perf_counter() - clock

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_s = workload.setup()
    phases["setup"] = setup_s
    if tracer:
        enroll_s = tracer.totals().get("pipeline.enroll", 0.0)
        tracer.clear()
    clock = perf_counter()
    times, attempted, failed = run_ops(workload, args.seconds)
    phases["ops"] = perf_counter() - clock
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    correct = bool(times)
    quality = None
    clock = perf_counter()
    if times:
        try:
            workload.check()
            if tracer and isinstance(workload, Train):
                quality = workload.quality()
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:
            correct = False
            traceback.print_exc()
    phases["check"] = perf_counter() - clock

    metrics, units = {}, END_TO_END
    if tracer:
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        if times:
            metrics = tracer.per_layer(len(times), sum(times), enroll_s)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
    elif times:
        metrics = {"setup_s": statistics.median(import_s) + setup_s,
                   "op_p50_ms": statistics.median(times) * 1e3,
                   "peak_rss_mb": peak_rss_mb}
    shutil.rmtree(run_dir, ignore_errors=True)

    print("env " + json.dumps(environment(steal_at_start, phases)))
    if quality:
        print("quality " + json.dumps(quality))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
