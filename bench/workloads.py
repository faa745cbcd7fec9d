"""Seed-generated job lists for the three benchmark workloads.

A job is one unit of user work: an `ifsfourier` CLI invocation run
in-process through `ifsfourier.cli.main(argv)`, or a short library
computation where no subcommand exists (Parseval levels, lattice basins,
the c10 deficiency, `run_chain`, Cesaro averages).  Every job carries the
check that gates its output; the checks assert the invariants the
acceptance suite asserts for the same computation (never the three
strict-xfail goldens 3a, 2f and 12, whose verified replacements from
tests/test_golden_corrections.py are used instead).

The job list of a workload is fixed in kind and size; only probe
points, rational frequencies and job seeds come from `--seed`.  Each
list has an odd number of jobs, so the median job is a single job
rather than the midpoint between two (see README.md).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Statistical gates use 5 standard errors where the acceptance suite uses
# 3 or 4: the suite makes a few dozen comparisons at fixed seeds, the
# benchmark makes thousands at fresh seeds, and at 5 sigma a correct
# program fails one in about three million of them.
SIGMA_GATE = 5.0

# Word digests cover the first WORD_DIGEST_PATHS sampled paths of a
# harmonic job (the CLI's --words-out export caps at 10^4).
WORD_DIGEST_PATHS = 1000

# Corrected W-cycle censuses from tests/test_golden_corrections.py.
TWINDRAGON_P8_PERIODS = {1: 2, 2: 1, 4: 3, 6: 1, 8: 2}
PLANAR_SHEAR_P6_PERIODS = {1: 4}
CANTOR4_LAMBDA_HEAD = [0, 1, 4, 5, 16, 17, 20, 21, 64, 65]

# W-cycle counts at the p-max each harmonic job uses (c02 and the
# corrected twindragon census).
HARMONIC_CYCLES = {"cantor4": 1, "lambda15": 3, "twindragon": 9, "planar-shear": 4}


@dataclass
class Job:
    """One closed-loop request.

    `argv` is set for CLI jobs; `call` (returning a JSON-able dict) for
    library jobs.  `check(out)` returns a list of problems, empty
    when the output is correct; it only runs on jobs that exited 0.  `words` returns bytes to digest, or is
    None for jobs that sample no paths.
    """

    name: str
    sizes: dict
    check: object
    argv: list | None = None
    call: object = None
    words: object = None

    def describe(self) -> dict:
        out = {"name": self.name, "sizes": self.sizes}
        if self.argv is not None:
            out["argv"] = self.argv
        return out


def systems_for(workload: str) -> tuple:
    """Registry systems a workload builds during set-up."""
    return {
        "harmonic-mc": ("cantor4", "lambda15", "twindragon", "planar-shear"),
        "spectral-exact": ("cantor4", "lambda15", "lambda63", "twindragon", "planar-shear"),
        "stationary": ("cantor4", "twindragon", "planar-shear"),
    }[workload]


def build_jobs(workload: str, seed: int, systems: dict, tiny: bool = False) -> list:
    rng = np.random.default_rng(seed)
    maker = {"harmonic-mc": _harmonic_mc, "spectral-exact": _spectral_exact,
             "stationary": _stationary}[workload]
    jobs = maker(rng, systems, tiny)
    if len(jobs) % 2 == 0:
        raise AssertionError("job lists must have odd length")
    return jobs


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _job_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _point(rng, view, margin: float = 0.9) -> list:
    lo, hi = view.box(inflate=1.0)
    return [round(float(v), 6) for v in rng.uniform(lo * margin, hi * margin)]


def _arg(point) -> str:
    return ",".join(str(c) for c in point)


# -- harmonic-mc -------------------------------------------------------------------

def _harmonic_mc(rng, systems, tiny):
    import ifsfourier as ff
    from ifsfourier.pathspace import sample_paths

    paths = 500 if tiny else 6_000
    length = 64
    # depth so that N^depth = 256: the closed form enumerates N^depth
    # k-points per cycle (see README.md for the depth-10 planar cost)
    # copies: the median job is the middle twindragon job and the
    # third-slowest (job_s.tail) the middle planar-shear job
    plan = [("cantor4", None, 8, 2), ("lambda15", None, 8, 3),
            ("twindragon", 8, 8, 3), ("planar-shear", None, 4, 5)]
    jobs = []
    for name, p_max, depth, copies in plan:
        sys_obj = systems[name]
        for i in range(copies):
            x = _point(rng, sys_obj.l_view)
            job_seed = _job_seed(rng)
            argv = ["harmonic", "--example", name, "--x=" + _arg(x),
                    "--paths", str(paths), "--length", str(length),
                    "--depth", str(depth), "--seed", str(job_seed)]
            if p_max is not None:
                argv += ["--p-max", str(p_max)]

            def words(sys_obj=sys_obj, x=x, job_seed=job_seed):
                ens = sample_paths(ff.weight_from_digits(sys_obj.B), sys_obj.l_view, x,
                                   length, min(paths, WORD_DIGEST_PATHS), job_seed)
                return ens.words.tobytes()

            jobs.append(Job(
                name="harmonic/%s#%d" % (name, i),
                sizes={"paths": paths, "length": length, "depth": depth,
                       "N": sys_obj.N, "d": sys_obj.d},
                argv=argv, words=words,
                check=_harmonic_check(name, paths),
            ))
    return jobs


def _harmonic_check(name, paths):
    def check(out):
        bad = []
        if out["count"] != paths:
            bad.append("count %d != %d" % (out["count"], paths))
        if len(out["per_cycle"]) != HARMONIC_CYCLES[name]:
            bad.append("%d W-cycles, expected %d" % (len(out["per_cycle"]),
                                                      HARMONIC_CYCLES[name]))
        if not out["qmf_deviation"] < 1e-12:  # c07
            bad.append("qmf deviation %g" % out["qmf_deviation"])
        if not out["closed_form_total"] <= 1.0 + 1e-9:
            bad.append("closed-form total %r > 1" % out["closed_form_total"])
        if name != "planar-shear" and not abs(out["total"] - 1.0) < 0.02:  # c09a/c09b
            bad.append("harmonic total %r" % out["total"])
        for row in out["per_cycle"]:
            sigma = max(row["stderr"], 1.0 / out["count"])
            # the closed form is a partial sum of h_C, so a lower bound (c09b)
            if row["probability"] < row["closed_form"] - SIGMA_GATE * sigma - 1e-9:
                bad.append("cycle %s: MC %r below closed form %r"
                           % (row["word"], row["probability"], row["closed_form"]))
            if name == "cantor4":  # c09a: a single cycle carries all mass
                gap = abs(row["probability"] - row["closed_form"])
                if gap > SIGMA_GATE * sigma + out["unclassified"] + 1e-6:
                    bad.append("cantor4 closed-form gap %r" % gap)
        return bad
    return check


# -- spectral-exact ----------------------------------------------------------------

def _spectral_exact(rng, systems, tiny):
    jobs = []

    def cli(name, argv, sizes, check):
        jobs.append(Job(name=name, sizes=sizes, argv=argv, check=check))

    cli("check-hadamard/planar-shear", ["check-hadamard", "--example", "planar-shear"], {},
        _check_hadamard)

    # frequencies on which mu_hat vanishes exactly (c04 orthogonality):
    # differences of cantor4 spectrum elements, and nonzero points of the
    # dual lattices (1/5)Z^2 (twindragon) and (1/3)Z x Z (planar shear, c10)
    a, b = (_base4_01(int(v)) for v in rng.choice(64, size=2, replace=False))
    zero_ts = [("cantor4", "%d" % (a - b))]
    u, v = _nonzero_pair(rng, 40)
    zero_ts.append(("twindragon", "%d/5,%d/5" % (u, v)))
    u, v = _nonzero_pair(rng, 40)
    zero_ts.append(("planar-shear", "%d/3,%d" % (u, v)))
    for name, t in zero_ts:
        cli("mu-hat/" + name, ["mu-hat", "--example", name, "--t=" + t], {"t": t},
            _mu_hat_zero_check)

    levels = (5, 5, 3) if tiny else (8, 8, 5)
    for (name, denom), lev in zip((("cantor4", 1), ("twindragon", 5), ("planar-shear", 1)),
                                  levels):
        cli("spectrum/" + name,
            ["spectrum", "--example", name, "--levels", str(lev), "--count", "10"],
            {"levels": lev}, _spectrum_check(name, denom))

    p_max = {"lambda63": 5 if tiny else 8, "twindragon": 8 if tiny else 10,
             "planar-shear": 4 if tiny else 6}
    for name, pm in p_max.items():
        cli("cycles/" + name, ["cycles", "--example", name, "--p-max", str(pm)],
            {"p_max": pm, "words": systems[name].N ** pm}, _cycles_check(name))

    for name, lev, window, n_probe in (("cantor4", 8, 20 if tiny else 100, 2),
                                       ("lambda15", 7, 10 if tiny else 50, 1)):
        probes = [_point(rng, systems[name].l_view) for _ in range(n_probe)]
        argv = ["verify-onb", "--example", name, "--levels", str(lev),
                "--window", str(window)] + ["--x=" + _arg(x) for x in probes]
        cli("verify-onb/" + name, argv, {"levels": lev, "window": window},
            _verify_onb_check)

    jobs.append(_parseval_job(systems["cantor4"], _point(rng, systems["cantor4"].l_view)))
    radius = 5.0 if tiny else 20.0
    jobs.append(_basin_job(systems["twindragon"], _point(rng, systems["twindragon"].l_view),
                           radius))
    k = int(rng.choice([-5, -4, -2, -1, 1, 2, 4, 5]))
    m = int(rng.integers(-3, 4))
    jobs.append(_deficiency_job(systems["planar-shear"], (Fraction(k, 3), Fraction(m)),
                                3 if tiny else 6))
    return jobs


def _base4_01(n: int) -> int:
    """The n-th cantor4 spectrum element: n's binary digits read in base 4."""
    return sum(4 ** i for i in range(n.bit_length()) if n >> i & 1)


def _nonzero_pair(rng, bound):
    while True:
        u, v = (int(c) for c in rng.integers(-bound, bound + 1, size=2))
        if (u, v) != (0, 0):
            return u, v


def _check_hadamard(out):
    duality = out["duality"]
    bad = [] if duality["passes"] else ["duality check failed"]
    dev = duality["unitarity"]["max_deviation"]
    if not dev < 1e-12:  # c01
        bad.append("unitarity deviation %g" % dev)
    return bad


def _mu_hat_zero_check(out):
    if out["exact_zero"] and out["abs"] == 0.0:
        return []
    return ["mu_hat(%s) = %r is not an exact zero" % (out["t"], out["abs"])]


def _spectrum_check(name, denom):
    def check(out):
        bad = []
        if out["cap_hit"]:
            bad.append("element cap hit")
        elems = out["elements"]
        if name == "cantor4":  # corrected 3a
            got = [int(e.strip("()")) for e in elems]
            if got != CANTOR4_LAMBDA_HEAD:
                bad.append("cantor4 head %s" % got)
        for e in elems:
            for c in e.strip("()").split(","):
                if denom % Fraction(c.strip()).denominator:
                    bad.append("element %s off the 1/%d lattice" % (e, denom))
        return bad
    return check


def _cycles_check(name):
    def check(out):
        periods = Counter(c["period"] for c in out["cycles"])
        if name == "twindragon":
            got = {p: n for p, n in periods.items() if p <= 8}
            ok = got == TWINDRAGON_P8_PERIODS
        elif name == "planar-shear":
            ok = dict(periods) == PLANAR_SHEAR_P6_PERIODS
        else:  # lambda63: the W-three-cycle of c02
            ok = any(sorted(c["points"]) == ["(1)", "(16)", "(4)"] for c in out["cycles"])
        return [] if ok else ["W-cycle census %s" % dict(periods)]
    return check


def _verify_onb_check(out):
    bad = []
    if out["max_offdiag"] != 0.0:  # c04, exact zeros
        bad.append("Gram max_offdiag %r" % out["max_offdiag"])
    for x, s in out["completeness_sum"].items():
        if not 0.0 <= s <= 1.0 + 1e-6:  # Bessel
            bad.append("completeness at %s = %r" % (x, s))
    return bad


def _parseval_job(sys_obj, x):
    """c05: Parseval partial sums over cantor4 spectra at levels 4, 6, 8."""
    import ifsfourier as ff

    def call():
        cycles = ff.find_w_cycles(sys_obj, 6)
        sums = [ff.completeness_sum(sys_obj, sorted(ff.generate_lambda(sys_obj, cycles, lev)
                                                    .elements), x, 1e-10)
                for lev in (4, 6, 8)]
        return {"x": x, "sums": sums}

    def check(out):
        s = out["sums"]
        ok = all(p <= q + 1e-15 for p, q in zip(s, s[1:])) and 0.999 <= s[-1] <= 1.0 + 1e-6
        return [] if ok else ["Parseval sums %s" % s]

    return Job(name="parseval/cantor4", sizes={"levels": [4, 6, 8]}, call=call, check=check)


def _basin_job(sys_obj, x, radius):
    """c09b closed form: lattice basins of the 9 W-cycles, then |mu_hat|^2
    summed per basin over the window."""
    import ifsfourier as ff
    from ifsfourier import spectrum

    def call():
        cycles = ff.find_w_cycles(sys_obj, 8)
        pts, labels = spectrum.lattice_basin_labels(sys_obj, cycles, radius=radius, lattice_scale=5)
        weights = np.abs(ff.mu_hat_batch(sys_obj, np.asarray(x) - pts / 5, 1e-10)) ** 2
        return {
            "x": x, "points": int(len(pts)), "unlabelled": int(np.sum(labels < 0)),
            "per_cycle": [float(weights[labels == ci].sum()) for ci in range(len(cycles))],
            "coverage": float(weights.sum()),
        }

    def check(out):
        bad = []
        if out["unlabelled"]:
            bad.append("%d window points in no listed basin" % out["unlabelled"])
        if len(out["per_cycle"]) != 9:
            bad.append("%d W-cycles" % len(out["per_cycle"]))
        if not 0.0 < out["coverage"] <= 1.0 + 1e-9:
            bad.append("window coverage %r" % out["coverage"])
        if abs(sum(out["per_cycle"]) - out["coverage"]) > 1e-9:
            bad.append("basin sums do not add up to the window mass")
        return bad

    return Job(name="basin/twindragon",
               sizes={"radius": radius, "lattice_scale": 5,
                      "points": (2 * int(radius * 5) + 1) ** 2},
               call=call, check=check)


def _deficiency_job(sys_obj, x, depth):
    """c10: on the dual lattice the cycle harmonics of the planar shear
    sum to far below 1 while the dual-lattice Parseval sums reach 1."""
    import ifsfourier as ff

    xf = [float(c) for c in x]

    def call():
        cycles = ff.find_w_cycles(sys_obj, 4)
        total_h = sum(ff.h_closed_form(sys_obj, xf, c, depth) for c in cycles)
        sums = []
        for span in (6, 15):
            window = [(Fraction(a, 3), Fraction(b)) for a in range(-3 * span, 3 * span + 1)
                      for b in range(-span, span + 1)]
            sums.append(ff.completeness_sum(sys_obj, window, xf, 1e-10))
        return {"x": [str(c) for c in x], "total_h": total_h, "sums": sums}

    def check(out):
        s = out["sums"]
        ok = out["total_h"] < 0.99 and s[0] <= s[1] + 1e-12 and s[-1] > 0.999
        return [] if ok else ["deficiency: total_h %r, sums %s" % (out["total_h"], s)]

    return Job(name="deficiency/planar-shear",
               sizes={"depth": depth, "k_points": sys_obj.N ** depth * 4},
               call=call, check=check)


# -- stationary --------------------------------------------------------------------

def _stationary(rng, systems, tiny):
    jobs = []
    steps = 20_000 if tiny else 1_000_000
    jobs.append(Job(
        name="riesz", sizes={"steps": steps, "chains": 32},
        argv=["riesz", "--steps", str(steps), "--seed", str(_job_seed(rng))],
        check=_riesz_check,
    ))
    per_chain = 100 if tiny else 4000
    for name in ("cantor4", "twindragon"):
        jobs.append(_chain_job(systems[name], _point(rng, systems[name].l_view),
                               per_chain, _job_seed(rng)))
    samples = 5_000 if tiny else 100_000
    for name, view in (("twindragon", "B"), ("twindragon", "L"), ("cantor4", "B"),
                       ("planar-shear", "L")):
        jobs.append(Job(
            name="attractor/%s/%s" % (name, view), sizes={"samples": samples},
            argv=["attractor", "--example", name, "--view", view,
                  "--samples", str(samples), "--seed", str(_job_seed(rng))],
            check=_attractor_check(samples),
        ))
    jobs.append(_cesaro_bump_job(systems["cantor4"], float(rng.uniform(0.5, 2.0)),
                                 513 if tiny else 4097, 16 if tiny else 128))
    k = [int(c) for c in rng.integers(1, 4, size=2)]
    jobs.append(_cesaro_grid_job(systems["planar-shear"], k, 33 if tiny else 97,
                                 4 if tiny else 24))
    return jobs


def _riesz_check(out):
    bad = []
    if not out["branch_normalization_deviation"] < 1e-12:  # c11
        bad.append("branch normalization %g" % out["branch_normalization_deviation"])
    nu = out["nu_hat"]
    v1 = complex(nu["1"]["value"]["re"], nu["1"]["value"]["im"])
    v6 = complex(nu["6"]["value"]["re"], nu["6"]["value"]["im"])
    if not abs(v1) < SIGMA_GATE * nu["1"]["stderr"]:
        bad.append("nu_hat(1) = %r" % v1)
    if not abs(v6 - 0.5) < SIGMA_GATE * nu["6"]["stderr"]:
        bad.append("nu_hat(6) = %r" % v6)
    return bad


def _chain_job(sys_obj, x0, per_chain, seed):
    import ifsfourier as ff

    n_chains = 32
    burn_in = 500

    def call():
        weight = ff.weight_from_digits(sys_obj.B)
        chain = ff.run_chain(weight, sys_obj.l_view, x0, per_chain * n_chains,
                             burn_in=burn_in, seed=seed, n_chains=n_chains)
        value, stderr = ff.fourier_coefficient(chain, [1.0] * sys_obj.d)
        return {
            "n": chain.n,
            "max_norm": float(np.max(np.linalg.norm(chain.states, axis=1))),
            "radius": sys_obj.l_view.bounding_radius(),
            "nu_hat": value, "stderr": stderr,
            "digest": digest(chain.states.tobytes()),
        }

    def check(out):
        bad = []
        if out["n"] != per_chain * n_chains:
            bad.append("chain length %d" % out["n"])
        # the walk from a point of the attractor's ball stays in the ball;
        # x0 is drawn from the box, so allow the start's own distance
        if not out["max_norm"] <= max(out["radius"], float(np.linalg.norm(x0))) + 1e-9:
            bad.append("state outside the invariant ball: %r" % out["max_norm"])
        if not abs(out["nu_hat"]) <= 1.0 + 1e-12:
            bad.append("|nu_hat| = %r" % abs(out["nu_hat"]))
        return bad

    return Job(name="run_chain/" + sys_obj.name,
               sizes={"chains": n_chains, "steps_per_chain": per_chain + burn_in},
               call=call, check=check)


def _attractor_check(samples):
    def check(out):
        bad = []
        if out["samples"] != samples:
            bad.append("samples %d" % out["samples"])
        reach = max(max(abs(v) for v in out["bbox_lo"]), max(abs(v) for v in out["bbox_hi"]))
        if not reach <= out["radius_bound"] + 1e-9:
            bad.append("sample outside the attractor ball: %r" % reach)
        return bad
    return check


def _cesaro_bump_job(sys_obj, height, resolution, n_iter):
    """The demo-04 Cesaro average of a bump at the W-cycle point 0: the
    average at 0 stays at the bump height and the defect shrinks like 1/n."""
    import ifsfourier as ff
    from ifsfourier import transfer

    def call():
        weight = ff.weight_from_digits(sys_obj.B)
        view = sys_obj.l_view
        lo, hi, _ = transfer.default_grid(view)
        bump = ff.GridFunction.sample(
            lambda p: height * np.maximum(0.0, 1.0 - np.abs(p[:, 0]) / 0.05),
            lo, hi, resolution)
        avg = ff.cesaro(weight, view, bump, n_iter)
        return {
            "value_at_0": float(avg.eval([[0.0]])),
            "defect": ff.harmonic_defect(weight, view, avg),
            "min": float(avg.values.min()), "max": float(avg.values.max()),
            "qmf": ff.check_qmf(weight, view, n_probe=1000, seed=0),
        }

    def check(out):
        bad = []
        if not abs(out["value_at_0"] - height) < 0.02 * height:
            bad.append("Cesaro value at 0: %r (height %r)" % (out["value_at_0"], height))
        if not out["defect"] < 2.0 * height / n_iter:
            bad.append("harmonic defect %r" % out["defect"])
        if not (-1e-12 <= out["min"] and out["max"] <= height + 1e-12):
            bad.append("Cesaro average leaves [0, height]")
        if not out["qmf"] < 1e-12:  # c07
            bad.append("qmf deviation %g" % out["qmf"])
        return bad

    return Job(name="cesaro/cantor4-bump",
               sizes={"grid": resolution, "n_iter": n_iter}, call=call, check=check)


def _cesaro_grid_job(sys_obj, k, resolution, n_iter):
    """Cesaro averages of 1 + cos(2 pi k.x)/2 on a planar-shear grid: the
    transfer operator is Markov (positive, R_W 1 = 1), so every average
    stays within the range of f."""
    import ifsfourier as ff
    from ifsfourier import transfer

    kv = np.asarray(k, dtype=float)

    def call():
        weight = ff.weight_from_digits(sys_obj.B)
        view = sys_obj.l_view
        lo, hi, _ = transfer.default_grid(view, resolution)
        f = ff.GridFunction.sample(lambda p: 1.0 + 0.5 * np.cos(2 * np.pi * (p @ kv)),
                                   lo, hi, resolution)
        avg = ff.cesaro(weight, view, f, n_iter)
        return {
            "defect": ff.harmonic_defect(weight, view, avg),
            "min": float(avg.values.min()), "max": float(avg.values.max()),
            "f_min": float(f.values.min()), "f_max": float(f.values.max()),
            "qmf": ff.check_qmf(weight, view, n_probe=1000, seed=0),
        }

    def check(out):
        bad = []
        if not (out["f_min"] - 1e-12 <= out["min"] and out["max"] <= out["f_max"] + 1e-12):
            bad.append("Cesaro average leaves the range of f")
        if not 0.0 <= out["defect"] <= out["f_max"]:
            bad.append("harmonic defect %r" % out["defect"])
        if not out["qmf"] < 1e-12:  # c07
            bad.append("qmf deviation %g" % out["qmf"])
        return bad

    return Job(name="cesaro/planar-shear-grid",
               sizes={"grid": [resolution, resolution], "n_iter": n_iter},
               call=call, check=check)
