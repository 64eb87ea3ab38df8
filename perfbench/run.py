"""Benchmark for the boxapprox CLI: one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict_all --seed 1 --seconds 20 --trace 0

It writes the workload's inputs under ``.perfbench_work/`` from the seed,
times the set-up of fresh interpreters, runs the job list in a fresh
worker process (a closed loop with one client) for ``--seconds``, checks
every output, and prints a report line and then one JSON result line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run and its overhead over an untraced run
in the same process. ``--record-digests`` stores the SHA-256 of each job's
output for this workload and seed in ``perfbench/digests.json``; later
runs on a recorded seed must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import make_plan  # noqa: E402

WORKLOADS = ("predict_all", "certify", "landscape", "montecarlo")
SETUP_PROBES = 7
TIMEOUT_S = 170
DIGESTS = os.path.join(HERE, "digests.json")
# job_s_tail is the highest percentile with at least ten job samples beyond
# it. A 25 s run yields 10 to 38 job samples per workload, so that is p50.
# The level is fixed rather than derived from each run's sample count, so
# that a faster change, which fits more passes in, is compared with its
# parent at the same percentile.
TAIL_PERCENTILE = 50


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# Times of loop.calibrate()'s two loops at the reference speed. A job time
# divided by the speed measured just before it reads in seconds at that
# speed, which is about a 2.1 GHz cloud vCPU with Python 3.11 and numpy 2.4.
CAL_REF = (0.008, 0.0095)


def speed(sample: dict) -> float:
    """Machine speed before a job, relative to CAL_REF (below 1 is faster)."""
    return (sample["cal"][0] / CAL_REF[0] + sample["cal"][1] / CAL_REF[1]) / 2


def job_s(sample: dict) -> float:
    return sample["s"] / speed(sample)


def pass_wall(record: dict) -> float:
    return sum(job_s(s) for s in record["jobs"])


def pass_quantile(passes: list[dict], q: float) -> float:
    """Median over passes of the q-quantile of one pass's job times.

    Every pass runs the same job list, so a pass quantile picks the same
    jobs each time; pooling all samples instead would put the median of a
    two-job list in the gap between its jobs, at the mercy of one outlier.
    """
    return statistics.median(quantile([job_s(s) for s in p["jobs"]], q) for p in passes)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def setup_times(root: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to boxapprox.cli imported,
    once unmeasured to fill the bytecode cache, then SETUP_PROBES times."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--probe"],
            cwd=root, env=worker_env(), stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            times.append(elapsed)
    return times


def run_worker(root: str, plan_path: str, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
        "--seconds", str(seconds), "--trace", str(trace), "--digests", DIGESTS,
    ]
    with subprocess.Popen(argv, cwd=root, env=worker_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    with open(os.path.join(os.path.dirname(plan_path), "raw.json"), "w", encoding="utf-8") as handle:
        handle.write(lines[-1])
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plan: dict, raw: dict, setup: list[float]) -> tuple[dict, dict]:
    passes = raw["untraced"]
    samples = sum(len(p["jobs"]) for p in passes)
    units = sum(job["units"] for job in plan["jobs"])
    wall = statistics.median(pass_wall(p) for p in passes)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "job_s_p50": metric(pass_quantile(passes, 0.5), "s"),
        "job_s_tail": metric(pass_quantile(passes, TAIL_PERCENTILE / 100), "s"),
        "work_per_s": metric(units / wall, "1/s"),
        "peak_rss_mb": metric(raw["rss_kb"] / 1024, "MB"),
    }
    report = {
        "passes": len(passes),
        "job_samples": samples,
        "job_s_tail_percentile": f"p{TAIL_PERCENTILE}",
        "job_samples_beyond_tail": samples * (100 - TAIL_PERCENTILE) // 100,
        "setup_samples": len(setup),
        "wall_s_unscaled": statistics.median(sum(s["s"] for s in p["jobs"]) for p in passes),
        "speed": statistics.median(speed(s) for p in passes for s in p["jobs"]),
        "work_unit": plan["unit"],
        f"{plan['unit']}_per_s": units / wall,
    }
    return metrics, report


# Per-layer metric -> span whose self time it sums.
LAYER_TIMES = {
    "linalg.solve_s": "linalg.solve",
    "linalg.factor_s": "linalg.factor",
    "linalg.rank_s": "linalg.rank",
    "approx.self_s": "approx.api",
    "approx.complete_s": "approx.complete",
    "core.basis_s": "core.basis",
    "core.enum_s": "core.enum",
    "designs.sample_s": "designs.sample",
    "formats.read_s": "formats.read",
    "formats.render_s": "formats.render",
    "cli.self_s": "cli.job",
    "probability.det_s": "probability.det",
    "probability.sample_s": "probability.sample",
    "probability.exact_s": "probability.exact",
    "probability.self_s": "probability.api",
}
# Per-layer metric -> span whose call count it reports.
LAYER_CALLS = {
    "linalg.solve_calls": "linalg.solve",
    "linalg.factor_calls": "linalg.factor",
    "linalg.rank_calls": "linalg.rank",
    "formats.render_calls": "formats.render",
}
# Per-layer metric -> counter kept by the tracer.
LAYER_COUNTS = {
    "approx.targets": "approx.targets",
    "core.monomials": "core.monomials",
    "formats.read_rows": "formats.read_rows",
    "probability.det_rows": "probability.det_rows",
    "probability.trials": "probability.trials",
}


def exact_counts(record: dict) -> dict:
    """The work counts of one traced pass."""
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for sample in record["jobs"]:
        for key, value in sample["layers"]["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in sample["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {name: calls.get(span, 0) for name, span in LAYER_CALLS.items()}
    out.update({name: counts[key] for name, key in LAYER_COUNTS.items()})
    out["approx.undetermined_frac"] = counts["approx.undetermined"] / max(counts["approx.targets"], 1)
    out["probability.retest_frac"] = counts["probability.retest_rows"] / max(counts["probability.trials"], 1)
    return out


def layer_time(record: dict, span: str) -> float:
    """Self time of a span over one traced pass, each job's share scaled by
    the speed measured before it."""
    return sum(s["layers"]["self_s"].get(span, 0.0) / speed(s) for s in record["jobs"])


def per_layer(raw: dict) -> tuple[dict, dict]:
    traced = raw["traced"]
    metrics = {}
    for name, span in LAYER_TIMES.items():
        metrics[name] = metric(statistics.median(layer_time(p, span) for p in traced), "s")
    counts = [exact_counts(p) for p in traced]
    for name, value in counts[0].items():
        metrics[name] = metric(value, "ratio" if name.endswith("_frac") else "count")
    untraced_wall = statistics.median(pass_wall(p) for p in raw["untraced"])
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    shares = {
        name: round(m["value"] / traced_wall, 4) for name, m in metrics.items() if name in LAYER_TIMES
    }
    report = {
        "traced_passes": len(traced),
        "untraced_passes": len(raw["untraced"]),
        "absent_layers": raw["absent"],
        "counts_repeat_across_passes": all(c == counts[0] for c in counts),
        "share_of_traced_wall": shares,
    }
    return metrics, report


def failures(raw: dict) -> tuple[int, int, list[str]]:
    samples = [s for phase in ("warmup", "untraced", "traced") for p in raw[phase] for s in p["jobs"]]
    bad = [s for s in samples if s["errors"]]
    messages = [f"{s['job']}: {e}" for s in bad for e in s["errors"]]
    return len(samples), len(bad), messages[:10]


def record_digests(workload: str, seed: int, raw: dict) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    table.setdefault(workload, {})[str(seed)] = {s["job"]: s["sha"] for s in raw["untraced"][0]["jobs"]}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass and store its output digests for this seed")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "boxapprox", "cli.py")):
        print("error: run from the root of a boxapprox checkout (src/boxapprox/cli.py not found)",
              file=sys.stderr)
        return 2

    workdir = os.path.join(".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = make_plan(args.workload, args.seed, workdir)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)

    if args.record_digests:
        raw = run_worker(root, plan_path, 0.0, 0)
        attempted, failed, messages = failures(raw)
        if failed:
            print("error: not recording digests of failing jobs:", *messages, sep="\n  ", file=sys.stderr)
            return 1
        record_digests(args.workload, args.seed, raw)
        return 0

    setup = [] if args.trace else setup_times(root)
    raw = run_worker(root, plan_path, args.seconds, args.trace)
    attempted, failed, messages = failures(raw)
    if args.trace:
        metrics, report = per_layer(raw)
    else:
        metrics, report = end_to_end(plan, raw, setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": failed / attempted,
        "digests_checked": raw["digest_checked"],
        "failures": messages,
        "inputs": plan["inputs"],
        **report,
    }
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump({"report": report, "metrics": metrics}, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
