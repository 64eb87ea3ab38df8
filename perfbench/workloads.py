"""The four workloads: the inputs each one generates and its fixed job list.

A job is one ``boxapprox`` command line with its expected exit code, the
number of work units its output stands for, and a check spec that
``checks.py`` applies to its output.
"""

from __future__ import annotations

from inputs import (
    EXACT_PROBABILITIES,
    Generator,
    ball,
    bitstring,
    dim,
    expected_map,
    f2_probability,
    poly_values,
    render,
)

# The work unit each workload's throughput counts.
UNITS = {
    "predict_all": "vertices",
    "certify": "checks",
    "landscape": "vertices",
    "montecarlo": "trials",
}

MC_TRIALS = 10_000


def _job(name, argv, check, units, exit_code=0, out=None):
    return {"name": name, "argv": argv, "exit": exit_code, "out": out, "units": units, "check": check}


def _measured(design, values, n):
    return {bitstring(v, n): render(x) for v, x in zip(design, values)}


def _predict_all(g: Generator) -> list[dict]:
    n, k = 11, 2
    d = dim(n, k)
    size = 1 << n
    jobs = []

    design = g.covering_design(n, 100, k)
    values = g.noise(len(design))
    path = g.write_table("noise100.csv", design, values, n, k, "noise", f"full: rank {d} = dim mod p")
    jobs.append(_job(
        "predict_noise", ["predict", path, "--all", "--k", str(k)],
        {"kind": "predict_all", "format": "csv", "n": n, "k": k,
         "measured": _measured(design, values, n), "poly": None, "undetermined": 0},
        size,
    ))

    # A random design on the face x1 = 0 that covers that face at order 2:
    # its rank is dim(10, 2) = 56 < 67, every vertex with x1 = 0 is
    # determined and every vertex with x1 = 1 is not, whatever the seed.
    x1 = 1 << (n - 1)
    design = g.covering_design(n, 60, k, exclude=x1, rank=dim(n - 1, k))
    poly = poly_values(g.rational_poly(n, k), n)
    values = [poly[v] for v in design]
    path = g.write_table(
        "deficient60.csv", design, values, n, k, "rational",
        f"deficient: on the face x1=0, rank {dim(n - 1, k)} < dim {d}",
    )
    jobs.append(_job(
        "predict_deficient_json", ["predict", path, "--all", "--k", str(k), "--json"],
        {"kind": "predict_all", "format": "json", "n": n, "k": k,
         "measured": _measured(design, values, n), "poly": expected_map(poly, n),
         "undetermined": 1 << (n - 1)},
        size,
    ))

    design = ball(n, k)
    poly = poly_values(g.int_poly(n, k), n)
    values = [poly[v] for v in design]
    path = g.write_table("ball11k2.csv", design, values, n, k, "integer", f"full: Hamming ball, dim {d}")
    jobs.append(_job(
        "predict_ball", ["predict", path, "--all", "--k", str(k)],
        {"kind": "predict_all", "format": "csv", "n": n, "k": k,
         "measured": _measured(design, values, n), "poly": expected_map(poly, n),
         "undetermined": 0},
        size,
    ))
    return jobs


def _check_text(n, m, answers):
    lines = [f"n={n} size={m}"]
    lines += [f"order {k}: {'yes' if ok else 'no'}" for k, ok in enumerate(answers)]
    best = max((k for k, ok in enumerate(answers) if ok), default=None)
    lines.append(f"max_order: {best if best is not None else 'none'}")
    return "\n".join(lines) + "\n"


def _certify(g: Generator) -> list[dict]:
    n, k, m = 12, 3, 300
    d = dim(n, k)
    x123 = 0b111 << (n - 3)  # the monomial x1*x2*x3
    jobs = []

    full = g.covering_design(n, m, k)
    path = g.write_design("random300.design", full, n, k, f"full: rank {d} = dim mod p")
    jobs.append(_job(
        "check_full", ["check", path, "--k", str(k)],
        {"kind": "text", "expected": _check_text(n, m, [True] * (k + 1))}, k + 1,
    ))

    # x1*x2*x3 vanishes on every vertex, so order 3 fails by construction;
    # orders up to 2 are certified full rank mod p.
    fails = g.covering_design(n, m, k - 1, exclude=x123)
    path = g.write_design(
        "fails_k3.design", fails, n, k, f"deficient at k=3 (x1x2x3 = 0 on design), full to k=2",
    )
    jobs.append(_job(
        "check_fails_k3", ["check", path, "--k", str(k)],
        {"kind": "text", "expected": _check_text(n, m, [True] * k + [False])}, k + 1,
    ))

    jobs.append(_job(
        "design_random",
        ["design", "random", "--n", str(n), "--m", str(m), "--seed", str(g.rng.getrandbits(32)),
         "--k", str(k)],
        {"kind": "design_random", "n": n, "m": m, "k": k}, 1,
    ))

    poly = poly_values(g.rational_poly(n, k), n)
    path = g.write_table(
        "random300.csv", full, [poly[v] for v in full], n, k, "rational", f"full: rank {d} = dim mod p",
    )
    members = set(full)
    target = g.rng.choice([v for v in range(1 << n) if v not in members])
    jobs.append(_job(
        "predict_target", ["predict", path, "--target", bitstring(target, n), "--k", str(k)],
        {"kind": "text", "expected": render(poly[target]) + "\n"}, 1,
    ))

    poly = poly_values(g.int_poly(n, k), n)
    path = g.write_table(
        "fails_k3.csv", fails, [poly[v] for v in fails], n, k, "integer",
        "deficient at k=3 (x1x2x3 = 0 on design)",
    )
    target = x123 | g.rng.getrandbits(n - 3)
    jobs.append(_job(
        "predict_undeterminable", ["predict", path, "--target", bitstring(target, n), "--k", str(k)],
        {"kind": "text", "expected": ""}, 1, exit_code=3,
    ))
    return jobs


def _landscape(g: Generator) -> list[dict]:
    jobs = []
    n, k = 12, 2
    design = ball(n, k)
    poly = poly_values(g.int_poly(n, k), n)
    path = g.write_table(
        "ball12k2.csv", design, [poly[v] for v in design], n, k, "integer", f"full: Hamming ball, dim {dim(n, k)}",
    )
    jobs.append(_job(
        "complete_int", ["complete", path, "--k", str(k)],
        {"kind": "complete", "n": n, "poly": expected_map(poly, n)}, 1 << n,
    ))

    n, k = 11, 3
    design = ball(n, k)
    poly = poly_values(g.rational_poly(n, k), n)
    path = g.write_table(
        "ball11k3.csv", design, [poly[v] for v in design], n, k, "rational", f"full: Hamming ball, dim {dim(n, k)}",
    )
    out = g.path("ball11k3.completed.csv")
    jobs.append(_job(
        "complete_rational_file", ["complete", path, "--k", str(k), "--out", out],
        {"kind": "complete", "n": n, "poly": expected_map(poly, n)}, 1 << n, out=out,
    ))
    return jobs


def _prob_text(rows) -> str:
    lines = ["n,method,probability,std_error,trials,seed"]
    lines += [f"{n},{method},{render(p)},,," for n, method, p in rows]
    return "\n".join(lines) + "\n"


def _montecarlo(g: Generator) -> list[dict]:
    g.inputs.append({"file": None, "n": "10..14,24", "k": 1, "m": "n+1", "values": "none",
                     "rank": "random: drawn by the program from the seed argument"})
    jobs = []
    for name, lo, hi in (("mc_n24", 24, 24), ("mc_n10_14", 10, 14)):
        seed = g.rng.getrandbits(32)
        jobs.append(_job(
            name, ["prob", "mc", "--n", str(lo) if lo == hi else f"{lo}..{hi}", "--trials", str(MC_TRIALS), "--seed", str(seed)],
            {"kind": "prob_mc", "lo": lo, "hi": hi, "trials": MC_TRIALS, "seed": seed,
             "floor": {str(n): float(f2_probability(n)) for n in range(lo, hi + 1)}},
            MC_TRIALS * (hi - lo + 1),
        ))
    jobs.append(_job(
        "exact_n1_4", ["prob", "exact", "--n", "1..4"],
        {"kind": "text", "expected": _prob_text(
            (n, "exhaustive_real", EXACT_PROBABILITIES[n]) for n in range(1, 5))},
        0,
    ))
    jobs.append(_job(
        "f2_n1_24", ["prob", "f2", "--n", "1..24"],
        {"kind": "text", "expected": _prob_text(
            (n, "exact_f2", f2_probability(n)) for n in range(1, 25))},
        0,
    ))
    return jobs


JOB_LISTS = {
    "predict_all": _predict_all,
    "certify": _certify,
    "landscape": _landscape,
    "montecarlo": _montecarlo,
}


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    g = Generator(workload, seed, workdir)
    jobs = JOB_LISTS[workload](g)
    return {"workload": workload, "seed": seed, "unit": UNITS[workload], "inputs": g.inputs, "jobs": jobs}

