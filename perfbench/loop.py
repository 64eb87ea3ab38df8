"""The job loop of one workload run; see worker.py for how it is started."""

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from checks import verify
from layertrace import Tracer


# A fixed pure-Python loop and a fixed numpy loop, timed right before each
# job. On a shared 2-vCPU cloud host the speed drifts by 20-30% over
# minutes as other tenants come and go; run.py divides each job time by the
# speed these loops show, which cut the run-to-run spread of wall_s there
# (quartile distance over ten seeds, as a share of the median) from 11-24%
# to 6-15%.
_CAL_MATRIX = np.arange(200 * 200, dtype=np.int64).reshape(200, 200)


def calibrate() -> tuple[float, float]:
    start = perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFFFFFF
    middle = perf_counter()
    a = _CAL_MATRIX.copy()
    for k in range(40):
        a = (a * 3 - a[:, k : k + 1] * a[k : k + 1, :]) % 2147483647
    return middle - start, perf_counter() - middle


def run_job(cli, job: dict, tracer, cache: dict, digests: dict) -> dict:
    if job["out"] and os.path.exists(job["out"]):
        os.remove(job["out"])
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    cal = calibrate()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(job["argv"]))
            else:
                code = tracer.root("cli.job", cli.main, list(job["argv"]))
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    text = out.getvalue()
    if job["out"] and code == 0:
        with open(job["out"], encoding="utf-8") as handle:
            text = handle.read()
    errors = verify(job, code, text, err.getvalue(), cache)
    sha = hashlib.sha256(text.encode()).hexdigest()
    want = digests.get(job["name"])
    if want is not None and sha != want and not errors:
        errors = [f"output digest {sha[:16]} differs from the recorded {want[:16]}"]
    sample = {"job": job["name"], "s": seconds, "cal": cal, "errors": errors, "sha": sha}
    if tracer is not None:
        sample["layers"], sample["counts"], sample["spans"] = tracer.take()
    return sample


def run_pass(cli, jobs: list, tracer, cache: dict, digests: dict) -> dict:
    return {"jobs": [run_job(cli, job, tracer, cache, digests) for job in jobs]}


def main(cli) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", default="")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    digests = {}
    if args.digests and os.path.exists(args.digests):
        with open(args.digests, encoding="utf-8") as handle:
            digests = json.load(handle).get(plan["workload"], {}).get(str(plan["seed"]), {})
    jobs, cache = plan["jobs"], {}
    result = {"digest_checked": bool(digests), "warmup": [], "untraced": [], "traced": []}
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    if tracer is not None:
        # One pass outside the statistics, then traced and untraced passes
        # alternate, so warm-up and drift fall on neither side of the overhead.
        result["warmup"].append(run_pass(cli, jobs, None, cache, digests))
    traced = tracer is not None
    while True:
        began = perf_counter()
        if traced:
            tracer.install()
            try:
                result["traced"].append(run_pass(cli, jobs, tracer, cache, digests))
            finally:
                tracer.uninstall()
        else:
            result["untraced"].append(run_pass(cli, jobs, None, cache, digests))
        now = perf_counter()
        # Stop before a pass that would overrun the budget; a traced run
        # needs at least one pass of each kind.
        done = now - start + (now - began) > args.seconds
        if done and (tracer is None or result["untraced"]):
            break
        if tracer is not None:
            traced = not traced
    if result["traced"]:
        # Spans of the last traced pass; parent indices count within a job.
        with open(os.path.join(os.path.dirname(args.plan), "spans.jsonl"), "w", encoding="utf-8") as handle:
            for sample in result["traced"][-1]["jobs"]:
                for span in sample["spans"]:
                    handle.write(json.dumps([sample["job"], *span]) + "\n")
        for record in result["traced"]:
            for sample in record["jobs"]:
                del sample["spans"]
        result["absent"] = tracer.absent
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0
