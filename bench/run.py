"""symbound benchmark: one CLI command per generated config, run in-process.

    python3 bench/run.py --workload analyze|sweep|simulate [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy, and the run stops with exit code 2
when ./src/symbound is missing.  The inputs are made from --seed (default
1) by families.py and written, with the command's outputs, to a scratch
directory under .bench_work/ that is removed at the end.  Rounds, each one
command per config, repeat until the timed commands add up to --seconds.
After every command, outside the timed interval, its output files are
checked: in full by checks.py the first time, and in later rounds by
comparing them byte for byte with the files checked then.

After every command a fixed reference a tenth its size runs (speed.py);
--trace 0 reports the op times scaled by how fast the reference ran over
the run, so that the machine's phase cancels.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  --trace 0 gives the end-to-end metrics; --trace 1 wraps the
program's layers (tracing.py), gives the per-layer metrics per round, and
writes the spans to .bench_work/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import zlib
from pathlib import Path


def _clock_since_process_start():
    """A zero-argument clock reading seconds since this process started.

    The start comes from /proc/self/stat (clock ticks since boot, the base
    of CLOCK_BOOTTIME); elsewhere the clock starts at this module's import.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - start
        if 0.0 <= since < 5.0:
            return lambda: time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


_since_start = _clock_since_process_start()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("analyze", "sweep", "simulate")


def _import_cli():
    """symbound.cli from ROOT/src, or None when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "symbound" / "cli.py").is_file():
        return None
    # one process, one thread: keep numpy's BLAS from starting a pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import symbound.cli as cli

    if Path(cli.__file__).resolve().parent != src / "symbound":
        return None
    return cli


def _digest(out_dir: str) -> int:
    crc = 0
    for name in sorted(os.listdir(out_dir)):
        crc = zlib.crc32(name.encode(), crc)
        with open(os.path.join(out_dir, name), "rb") as f:
            crc = zlib.crc32(f.read(), crc)
    return crc


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_cli()
    if cli is None:
        print(f"error: no symbound source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from checks import CHECKS
    from families import make_cases

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        return _run(args, cli, make_cases(args.workload, args.seed), CHECKS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, cli, cases, check, work: Path) -> int:
    from speed import Speedometer

    jobs = []
    (work / "cfg").mkdir(parents=True)
    for case in cases:
        cfg, out = work / "cfg" / f"{case.name}.cfg", work / "out" / case.name
        cfg.write_text(case.config_text(), encoding="utf-8")
        argv = ["--config", str(cfg), "--out", str(out), "--quiet", args.workload]
        jobs.append((case, argv, str(out)))
    setup_s = _since_start()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    op_s, errors, checked = [], [], {}
    speedometer = Speedometer(work / "reference")
    failed = work_done = equilibria = step_calls = rounds = 0
    timed = 0.0
    while rounds == 0 or timed < args.seconds:
        rounds += 1
        for case, argv, out in jobs:
            if tracer is not None:
                tracer.op = len(op_s)
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as err:  # a traceback is a failed op, not a crash
                rc = f"{type(err).__name__}: {err}"
            dt = time.perf_counter() - t0
            # every file in out/ is rewritten by each command
            speedometer.sample(dt, len(os.listdir(out)) if os.path.isdir(out) else 0)
            op_s.append(dt)
            timed += dt
            if rc != 0:
                failed += 1
                print(f"{case.name}: command failed ({rc})", file=sys.stderr)
                continue
            if case.name in checked:
                outcome, digest = checked[case.name]
                if _digest(out) != digest:
                    errors.append(f"{case.name}: outputs differ from the checked ones of round 1")
            else:
                outcome = check(case, out)
                errors += outcome.errors
                checked[case.name] = (outcome, _digest(out))
            work_done += outcome.work
            equilibria += outcome.equilibria
            step_calls += outcome.step_calls

    if tracer is not None:
        tracer.uninstall()
        traced_eqs = tracer.counts["systems.find_equilibria.equilibria"]
        if tracer.step_calls() != step_calls:
            errors.append(f"trace: {tracer.step_calls()} step calls, outputs imply {step_calls}")
        if traced_eqs != equilibria:
            errors.append(f"trace: find_equilibria returned {traced_eqs}, outputs report {equilibria}")
        tracer.dump(
            str(work.parent / f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": rounds, "ops": len(op_s),
             "timed_s": timed},
        )
        metrics = tracer.metrics(rounds)
    else:
        # every op time in the metrics is scaled to the reference speed (speed.py)
        scale, op_p50 = speedometer.scale(), statistics.median(op_s)
        print(
            f"measured: {work_done / timed:.6g} work/s, op p50 {1e3 * op_p50:.6g} ms; "
            f"reference {speedometer.loops} loops {speedometer.loop_s:.6g} s, "
            f"{speedometer.writes} writes {speedometer.write_s:.6g} s, so x{scale:.4f}",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "work_per_s": {"value": work_done / (timed * scale), "unit": "1/s"},
            "config_p50_ms": {"value": 1e3 * op_p50 * scale, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(jobs)} configs x {rounds} rounds, "
        f"{timed:.2f} s timed, work={work_done}, {len(errors)} check failures",
        file=sys.stderr,
    )
    result = {
        "correct": not errors,
        "attempted": len(op_s),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
