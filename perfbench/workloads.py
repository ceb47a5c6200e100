"""The three benchmark workloads: seeded inputs, one op, and its output check.

Each workload is a closed loop with one caller.  Inputs come in *rounds*:
every round holds the same mix of op kinds (so two seeds cost the same to
run) and the seed picks the order within a round and the free parameters.
The benchmark always runs whole rounds.

An op receives only its generated input and calls catsim's public API
through the package attribute at call time, so a tracer that patches those
attributes sees every layer.  Checks compare each output with a reference
that does not come from the code path under test and run outside the timed
region.  ``REFERENCE`` names the kernel in ``reference.py`` that does the
same kind of work as a workload's ops, by which their times are rescaled.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random

__all__ = ["WORKLOADS", "ghz_negativity", "ghz_threshold", "p_grid"]


def p_grid(p_min: float, p_max: float, p_step: float) -> list:
    """Inclusive grid built like ``catsim.experiments.p_grid``."""
    count = int(math.floor((p_max - p_min) / p_step + 1e-9)) + 1
    return [p_min + i * p_step for i in range(count)]


FIG2_GRID = p_grid(0.0, 0.6, 0.005)
FIG4_GRID_POINTS = len(p_grid(0.0, 0.05, 0.0005))  # catsim's fig4 defaults

NEG_FLOOR = 1e-9  # catsim's negativity floor: below it a state counts as PPT
RESOLUTION = 1e-4  # threshold resolution catsim bisects to


def _ghz_gap(n: int, p: float) -> float:
    """Corner coherence minus corner population of the PT of an n-qubit noisy GHZ."""
    h, k = p / 2.0, 1.0 - p / 2.0
    return 0.5 * (1.0 - p) ** n - 0.5 * (k * h ** (n - 1) + h * k ** (n - 1))


def ghz_negativity(n: int, p: float) -> float:
    """Closed-form micro : macro negativity of the n-qubit GHZ state after
    depolarizing every qubit with strength p."""
    return max(0.0, _ghz_gap(n, p))


def ghz_threshold(n: int) -> float:
    """Root in (0, 1) of the closed-form GHZ separability condition."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if _ghz_gap(n, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class DenseCap:
    """One dense log-negativity point at 11 qubits (12 before loss)."""

    name = "dense-cap"
    REFERENCE = "numpy"
    # (kind, N, m): the fig2 N=10 row for both cats, and the W-cat at the cap
    MIX = (("GhzCat", 10, 0), ("WCat", 10, 0), ("WCat", 11, 1))
    WARMUP = ("WCat", 10, 0, 0.3)

    def round(self, rng: random.Random) -> list:
        mix = list(self.MIX)
        rng.shuffle(mix)
        return [(kind, N, m, rng.choice(FIG2_GRID)) for kind, N, m in mix]

    def run(self, cs, inp, scratch):
        kind, N, m, p = inp
        rho = cs.lose_particles(cs.to_density(cs.build_cat(cs.CatStateKind(kind), N)), m)
        cut = cs.Bipartition.micro_macro(N + 1 - m)
        return cs.log_negativity(cs.depolarize_all(rho, p), cut)

    def finish(self, inp, raw, scratch):
        return raw

    def check(self, cs, inp, out) -> list:
        kind, N, m, p = inp
        if kind == "GhzCat":
            ref = math.log2(1.0 + 2.0 * ghz_negativity(N + 1 - m, p))
            if abs(out - ref) > 1e-10:
                return [f"GHZ E={out!r} differs from closed form {ref!r}"]
            return []
        problems = []
        floor = cs.approx_log_negativity(cs.WCatParams(N=N, m=m, p=p))
        if out < floor - 1e-9:
            problems.append(f"W E={out!r} below two-root value {floor!r}")
        if out > 1.0 + 1e-12:
            problems.append(f"W E={out!r} above 1 ebit")
        if p == 0.0 and abs(out - math.log2(2.0 - m / N)) > 1e-10:
            problems.append(f"W E={out!r} off the loss law at p=0")
        return problems

    def render(self, inp, out) -> str:
        return ",".join(map(str, inp[:3])) + f",{_fmt(inp[3])},{_fmt(out)}"


class DenseBisect:
    """One oracle threshold: the depolarizing strength where entanglement dies."""

    name = "dense-bisect"
    REFERENCE = "numpy"
    # (kind, N, m): all five families at 7-9 qubits.  The W-cat appears at
    # every loss count in each round, because its cost falls about fivefold
    # per qubit lost and a per-round draw of m would swing a run's throughput.
    MIX = (("WCat", 8, 0), ("WCat", 8, 1), ("WCat", 8, 2), ("GhzCat", 8, 0),
           ("Psi1GState", 8, 0), ("Psi2", 8, 0), ("Psi3Concat", 3, 0))
    WARMUP = ("WCat", 8, 0)

    def round(self, rng: random.Random) -> list:
        mix = list(self.MIX)
        rng.shuffle(mix)
        return mix

    def run(self, cs, inp, scratch):
        kind, N, m = inp
        return cs.vanishing_noise_threshold(cs.CatStateKind(kind), N, m, "oracle")

    def finish(self, inp, raw, scratch):
        return raw

    def check(self, cs, inp, out) -> list:
        kind, N, m = inp
        if not 0.0 < out < 1.0 - RESOLUTION:
            return [f"threshold {out!r} not inside (0, 1)"]
        base = cs.lose_particles(cs.to_density(cs.build_cat(cs.CatStateKind(kind), N)), m)
        cut = cs.Bipartition.micro_macro(base.n_qubits)
        problems = []
        below = cs.negativity(cs.depolarize_all(base, out), cut)
        above = cs.negativity(cs.depolarize_all(base, out + RESOLUTION), cut)
        if not below > NEG_FLOOR:
            problems.append(f"negativity {below!r} at p*={out!r} is not above the floor")
        if not above <= NEG_FLOOR:
            problems.append(f"negativity {above!r} at p*+1e-4 is above the floor")
        if kind == "GhzCat":
            root = ghz_threshold(base.n_qubits)
            if abs(out - root) > RESOLUTION:
                problems.append(f"GHZ p*={out!r} is not within 1e-4 of the closed-form root {root!r}")
        return problems

    def render(self, inp, out) -> str:
        return ",".join(map(str, inp)) + f",{_fmt(out)}"


class ClosedForm:
    """Two ``catsim fig4`` surfaces, at a seeded N and at N_MIN + N_MAX - N,
    each written to a scratch file.

    The sizes of the pair sum to N_MIN + N_MAX, so every op costs about the
    same while each N is uniform on the range; with ops of unequal cost the
    median latency would depend on which sizes a seed happens to draw.
    """

    name = "closed-form"
    REFERENCE = "python"
    N_MIN, N_MAX = 500, 3000
    WARMUP = (N_MAX, N_MIN)  # includes the largest surface, so peak RSS does not depend on the seed

    def round(self, rng: random.Random) -> list:
        n = rng.randint(self.N_MIN, self.N_MAX)
        pair = [n, self.N_MIN + self.N_MAX - n]
        rng.shuffle(pair)
        return [tuple(pair)]

    def run(self, cs, inp, scratch):
        results = []
        for k, N in enumerate(inp):
            argv = ["fig4", "--n", str(N), "--m-max", str(N // 10), "--out", str(scratch / f"fig4-{k}.csv")]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cs.cli.main(argv)
            results.append((rc, stdout.getvalue()))
        return results

    def finish(self, inp, raw, scratch):
        return [(rc, stdout, (scratch / f"fig4-{k}.csv").read_text(encoding="utf-8"))
                for k, (rc, stdout) in enumerate(raw)]

    def check(self, cs, inp, out) -> list:
        return [f"N={N}: {problem}" for N, surface in zip(inp, out)
                for problem in self._check_surface(N, *surface)]

    @staticmethod
    def _check_surface(N, rc, stdout, text) -> list:
        if rc != 0:
            return [f"fig4 exited {rc}"]
        rows = list(csv.DictReader(io.StringIO(text)))
        expected = (N // 10 + 1) * (FIG4_GRID_POINTS + 1)
        problems = []
        if len(rows) != expected or f"wrote {expected} rows" not in stdout:
            problems.append(f"{len(rows)} rows written, expected {expected}")
        for row in rows:
            m, p = int(row["m"]), float(row["p"])
            if float(row["lambda1"]) > float(row["lambda2"]):
                problems.append(f"lambda1 > lambda2 at m={m} p={p}")
            if p == 0.0 and abs(float(row["entanglement"]) - math.log2(2.0 - m / N)) > 1e-12:
                problems.append(f"p=0 row at m={m} is off the loss law")
        return problems

    def render(self, inp, out) -> str:
        return "".join(text for _, _, text in out)


WORKLOADS = {w.name: w for w in (DenseCap(), DenseBisect(), ClosedForm())}
