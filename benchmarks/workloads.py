"""The four benchmark workloads: seeded inputs, the timed op and its gate.

Each workload is a closed loop with one client: the next op starts after
the previous one has returned and been checked.  Inputs come in blocks
drawn by stratified sampling, so every block covers the whole input range
once and a run that stops on a block boundary measures the same input mix
whatever the seed.

Constructing a workload is its set-up: the package imports it needs and
whatever the gates read up front.  Inputs are drawn lazily from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

#: failures that the package reports on purpose: ValidationError and
#: FlatTraceError are ValueErrors, ScatteringPoleError and ZeroDivisionError
#: are ArithmeticErrors, BranchTrackingError is a RuntimeError.  An op that
#: raises one of these counts as failed; any other exception is a wrong result.
REPORTED_FAILURES = (ValueError, ArithmeticError, RuntimeError)

#: exit codes the CLI uses for a validation error and a numerical failure
REPORTED_EXIT_CODES = (2, 3)

#: probe points of the package's default spectrum grid
DEFAULT_GRID_POINTS = 2001


def child_env(root: Path) -> dict:
    """This process's environment with the checkout's package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


class WrongResult(Exception):
    """An op returned, or raised, something its gate rejects."""


def _strata(rng: random.Random, k: int) -> list[float]:
    """k draws from [0, 1), one in each of k equal strata, in random order."""
    draws = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(draws)
    return draws


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class Workload:
    name = ""
    block_size = 1

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def blocks(self):
        """Endless seeded sequence of input blocks; restarts on each call."""
        rng = random.Random(self.seed)
        while True:
            yield self.block(rng)

    def block(self, rng: random.Random) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        """Raise WrongResult unless out is the correct result for inp."""
        raise NotImplementedError

    def points(self, inp) -> int:
        """Spectrum probe points the op evaluates on its grids."""
        raise NotImplementedError

    def run_checked(self, inp) -> tuple[float, str]:
        """Time one op; return (seconds, 'ok' | 'failed' | 'wrong')."""
        t0 = time.perf_counter()
        try:
            out = self.op(inp)
        except REPORTED_FAILURES:
            return time.perf_counter() - t0, "failed"
        except Exception:  # an unreported crash is a wrong result, not a stop
            return time.perf_counter() - t0, "wrong"
        elapsed = time.perf_counter() - t0
        if isinstance(out, int) and not isinstance(out, bool) and out != 0:
            return elapsed, "failed" if out in REPORTED_EXIT_CODES else "wrong"
        try:
            self.check(inp, out)
        except WrongResult:
            return elapsed, "wrong"
        return elapsed, "ok"


class Figures(Workload):
    """All five figures into a temp dir, compared byte for byte with goldens."""

    name = "figures"
    # fig3f refines 13 dips and fig4 refines 18, each on the default grid
    POINTS_PER_OP = 31 * DEFAULT_GRID_POINTS

    def __init__(self, root, seed, scratch, golden: Path | None = None):
        super().__init__(root, seed, scratch)
        from trimag import figures

        self.figures = figures
        golden = golden or root / "tests" / "golden"
        self.golden = {p.name: p.read_bytes() for p in sorted(golden.glob("*.csv"))}
        if not self.golden:
            raise FileNotFoundError(f"no golden files in {golden}")
        self.outdir = scratch / "figures"
        self.outdir.mkdir(parents=True, exist_ok=True)

    def block(self, rng):
        order = list(self.figures.FIGURES)
        rng.shuffle(order)
        return [order]

    def op(self, order):
        for path in self.outdir.iterdir():
            path.unlink()
        for fig in order:
            self.figures.generate(fig, self.outdir)
        return None

    def check(self, order, out):
        produced = {p.name: p.read_bytes() for p in self.outdir.iterdir()}
        if produced != self.golden:
            raise WrongResult("figure data differ from the golden files")

    def points(self, order):
        return self.POINTS_PER_OP


class Sensitivity(Workload):
    """One sensitivity_report per draw of delta_b over fig4's reportable range.

    Below about 2.07e-3 MHz the perturbed dip is clamped at the floor and
    sensitivity_report raises "g_syn must be > 0", a known defect.  The
    timed draws start above it, so that no timed op fails and the op count
    of a run carries no failures; floor_limit() measures where the defect
    starts instead, and a change that moves it into the drawn range shows
    as failed ops.
    """

    name = "sensitivity"
    block_size = 20
    FIG4_DELTA_B_MHZ = (1e-3, 0.05)
    DELTA_B_MHZ = (2.5e-3, 0.05)
    RAMP_STEPS = 64
    #: halvings of the log interval in floor_limit: a relative step of ~1e-3
    FLOOR_BISECTIONS = 12

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        import numpy as np
        from trimag import sensing
        from trimag.params import mhz, to_mhz

        self.np = np
        self.sensing = sensing
        self.mhz, self.to_mhz = mhz, to_mhz

    def block(self, rng):
        return [_log_uniform(u, *self.DELTA_B_MHZ)
                for u in _strata(rng, self.block_size)]

    def op(self, delta_b_mhz):
        return self.sensing.sensitivity_report(delta_b_mhz)

    def reference_shift(self, delta_b_mhz: float) -> float:
        """Central-branch shift (MHz) tracked on companion-matrix roots.

        The trace-centred characteristic cubic of each ramp step is built
        from the perturbed mode matrix itself (principal minors and
        determinant), not from the package's closed-form coefficients.  Its
        roots are the eigenvalues of the companion matrix that
        cubic.companion_roots uses, solved for all steps in one batched call
        so the gate costs a fraction of the op.  The branch is ramped from
        zero in the package's steps with the package's branch rule.
        """
        np = self.np
        gamma = self.mhz(3.0)
        g = 2.0 * gamma / math.sqrt(3.0)
        delta = gamma / math.sqrt(3.0)
        b = self.mhz(delta_b_mhz) * np.linspace(0.0, 1.0, self.RAMP_STEPS + 1)[1:]
        h = np.zeros((b.size, 3, 3), dtype=complex)
        h[:, 0] = [2j * gamma, g, g]
        h[:, 1, 0] = h[:, 2, 0] = g
        h[:, 1, 1] = delta + b - 1j * gamma
        h[:, 2, 2] = -delta + b - 1j * gamma
        h -= (np.trace(h, axis1=1, axis2=2) / 3.0)[:, None, None] * np.eye(3)
        companion = np.zeros_like(h)
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        companion[:, 0, 2] = np.linalg.det(h)
        companion[:, 1, 2] = -sum(h[:, i, i] * h[:, j, j] - h[:, i, j] * h[:, j, i]
                                  for i, j in ((0, 1), (0, 2), (1, 2)))
        radius = self.sensing.TRUST_RADIUS * gamma
        x, fresh = 0j, True
        for roots in np.linalg.eigvals(companion).tolist():
            near = [r for r in roots if abs(r - x) <= radius]
            if not near:
                raise WrongResult("reference branch lost")
            if fresh:
                x = min(near, key=lambda r: (abs(r.imag), -abs(r.real)))
            else:
                x = min(near, key=lambda r: abs(r - x))
            fresh = False
        return self.to_mhz(x.real)

    def check(self, delta_b_mhz, report):
        product = report.g_cpa * report.g_ep3
        if not math.isclose(report.g_syn, product, rel_tol=1e-12, abs_tol=0.0):
            raise WrongResult("g_syn != g_cpa * g_ep3")
        expected = self.reference_shift(delta_b_mhz)
        if not math.isclose(report.delta_omega, expected,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise WrongResult(f"shift {report.delta_omega!r} against "
                              f"companion-tracked {expected!r}")

    def points(self, delta_b_mhz):
        return DEFAULT_GRID_POINTS

    def floor_limit(self) -> float:
        """Smallest delta_b (MHz) in fig4's range whose op passes its gate.

        Found by bisection on log(delta_b): the ops fail below one limit
        and pass above it.  It is fig4's lower end once the whole range is
        reported, and its upper end if none of it is.
        """
        lo, hi = self.FIG4_DELTA_B_MHZ

        def passes(delta_b_mhz):
            return self.run_checked(delta_b_mhz)[1] == "ok"

        if passes(lo):
            return lo
        if not passes(hi):
            return hi
        for _ in range(self.FLOOR_BISECTIONS):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if passes(mid) else (mid, hi)
        return hi


class SpectrumScan(Workload):
    """In-process `trimag spectrum --dip` over couplings and grid sizes."""

    name = "spectrum_scan"
    # an odd count puts the median op on one point count, not between two
    block_size = 17
    G_MHZ = (3.0, 8.0)
    POINTS = (2001, 200001)
    DELTA_B_MHZ = (1e-3, 0.05)
    GAMMA_MHZ = 3.0
    SPAN_MHZ = 10.0
    DIP_LINE = re.compile(r"dip: (\S+) MHz")

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        import numpy as np
        from trimag import cli

        self.np = np
        self.cli = cli
        self.out = scratch / "trace.csv"
        self._stderr = ""

    def block(self, rng):
        # the point counts are the same log-spaced sizes in every block, so
        # the median op and the largest working set repeat from run to run
        k = self.block_size
        sizes = [int(round(_log_uniform(i / (k - 1), *self.POINTS)))
                 for i in range(k)]
        rng.shuffle(sizes)
        carries_b = [i < k // 2 for i in range(k)]
        rng.shuffle(carries_b)
        draws = []
        for ug, ub, n, with_b in zip(_strata(rng, k), _strata(rng, k),
                                     sizes, carries_b):
            g = self.G_MHZ[0] + ug * (self.G_MHZ[1] - self.G_MHZ[0])
            b = _log_uniform(ub, *self.DELTA_B_MHZ) if with_b else 0.0
            draws.append((round(g, 6), round(b, 9), n))
        return draws

    def op(self, inp):
        g, b, n = inp
        argv = ["spectrum", "--g-mhz", repr(g), "--delta-b-mhz", repr(b),
                "--points", str(n), "--dip", "--out", str(self.out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        self._stderr = err.getvalue()
        return code

    def check(self, inp, code):
        np = self.np
        g, b, n = inp
        lines = self.out.read_text().splitlines()
        if lines[0] != "omega_mhz,s_tot_linear,s_tot_db" or len(lines) != n + 1:
            raise WrongResult(f"{len(lines) - 1} rows for {n} points")
        values = np.array(",".join(lines[1:]).split(","), dtype=float)
        if values.size != 3 * n or not np.all(np.isfinite(values)):
            raise WrongResult("non-finite or missing values")
        match = self.DIP_LINE.search(self._stderr)
        if match is None:
            raise WrongResult("no dip line")
        if b == 0.0:
            dip = float(match.group(1))
            radicand = 3.0 * g * g - 4.0 * self.GAMMA_MHZ ** 2
            zeros = [0.0] + ([math.sqrt(radicand), -math.sqrt(radicand)]
                             if radicand >= 0 else [])
            step = 2.0 * self.SPAN_MHZ / (n - 1)
            if min(abs(dip - z) for z in zeros) > step:
                raise WrongResult(f"dip {dip} MHz is not at a real eigenvalue")

    def points(self, inp):
        return inp[2]


class Cli(Workload):
    """The README examples, each as one `python -m trimag` process."""

    name = "cli"
    COMMANDS = {
        "ep3": ["ep3", "--gamma-mhz", "3"],
        "report": ["report", "--delta-b-mhz", "0.025", "--floor-db", "-91.5"],
        "sweep": ["sweep", "--axis", "g", "--start-mhz", "3", "--stop-mhz", "8",
                  "--points", "101", "--quantity", "eigenvalues"],
        "spectrum": ["spectrum", "--g-mhz", "4.59", "--delta-b-mhz", "0.025",
                     "--floor-db", "-91.5", "--dip"],
    }
    REPORT_KEYS = {"delta_b_mhz", "delta_omega_mhz", "g_ep3", "g_cpa_db_per_mhz",
                   "g_syn_db_per_mhz", "delta_b_min_tesla"}
    block_size = len(COMMANDS)

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        self.env = child_env(root)
        self._stdout = ""

    def block(self, rng):
        names = list(self.COMMANDS)
        rng.shuffle(names)
        return names

    def op(self, name):
        proc = subprocess.run(
            [sys.executable, "-m", "trimag", *self.COMMANDS[name]],
            cwd=self.scratch, env=self.env, capture_output=True, text=True,
            timeout=60)
        self._stdout = proc.stdout
        return proc.returncode

    def check(self, name, code):
        out = self._stdout
        try:
            if name == "ep3":
                payload = json.loads(out[out.index("{"):])
                if not math.isclose(payload["g_ep3_mhz"], 2 * 3 / math.sqrt(3)):
                    raise WrongResult("wrong degeneracy coupling")
            elif name == "report":
                if set(json.loads(out)) != self.REPORT_KEYS:
                    raise WrongResult("report fields differ")
            else:
                rows = out.splitlines()
                expected = 101 if name == "sweep" else DEFAULT_GRID_POINTS
                values = [float(v) for row in rows[1:] for v in row.split(",")]
                if len(rows) != expected + 1 or not all(map(math.isfinite, values)):
                    raise WrongResult(f"{name}: malformed table")
        except (ValueError, KeyError) as exc:
            raise WrongResult(f"{name}: stdout does not parse: {exc}") from exc

    def points(self, name):
        return DEFAULT_GRID_POINTS if name in ("report", "spectrum") else 0


WORKLOADS = {w.name: w for w in (Figures, Sensitivity, SpectrumScan, Cli)}
