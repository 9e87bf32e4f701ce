"""The three workloads: what one operation is and how its output is checked.

Load model: a closed loop with one caller in one process.  Operations
run one after another over a fixed round of inputs; the round repeats
until the run has measured its time, so every run sees the same mix.

Why each workload exists:

* ``check``    -- ``bca.cli.main(["check", file])`` with the default 25
  oracle samples.  The exact oracle (``polyoracle.sample_dissipativity``)
  does about 95% of the work and the float layers under 1%, so this is
  where an oracle speed-up shows and where float-layer work must not.
* ``verdicts`` -- the float analysis of one system through the library:
  normalize + regularity, dissipativity + self-adjointness, and for
  dissipative systems to_contraction followed by from_contraction.  The
  oracle does no work here; bc_core, forms, regularity, contraction and
  numerics do all of it.  Library users and invariance fuzzing call
  these thousands of times per process.
* ``verify``   -- ``bca.cli.main(["verify", "--m", m, "--samples", N,
  "--seed", s])``: Hermite interpolation and exact (L0 y, y) with no
  rational null space and no float verdict.  It bypasses a change that
  only replaces the sampled dissipativity oracle, while a Hermite or
  Fraction speed-up shows here and in ``check``.  An operation takes
  N = 5 samples, not the 50 of the acceptance suite, so that a run holds
  at least 100 operations with m = 8 in every round; the traced run
  times one 50-sample operation at m = 2, 4 and 8 as well.

Inputs on which the seed shows one of its known defects (ROADMAP defects
1 and 2) stay in the corpus but not in the timed round: they form each
workload's ``probe``, which runs once per run, untimed, before the timed
rounds, through the same checks.  Its failures are listed by input name
and are not counted in ``attempted``/``failed``, so those counts and the
latencies hold only operations the seed gets right, whatever the seed.

Each output is checked against the ground truth of the corpus, against
the verdicts of the unmixed original, against the first output of the
same input (repeated reports are byte-identical) and against
``rank_profile_orders``; the check oracle's sampled minimum is checked
against a float replay of the same samples.  A failure is a (check,
detail) pair; ``known`` names the seed defect it is, keyed to the probe
inputs where the seed shows that defect, and None marks a new failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from bca import bc_core, cli, contraction, forms, regularity

import corpus

# One round of the check workload.  Systems of order 1 and 2 come twice,
# so that a 30 s run holds well over 100 operations with m = 8 kept in.
# The counts put p50 in the middle of the m = 2 group, whose latencies
# spread evenly over about 25-55 ms, and p90 inside a group of seven
# inputs of ~180-275 ms (m = 4 to 6), not on a gap between groups.
# Every mixed copy's original is in the round or in the probe.
_CHECK_SMALL = (
    "float-unitary-m1 float-contraction-m1 generic-m1 exact-periodic-m1 "
    "exact-oddirregular-n1 exact-sparse-m1 mixed-periodic-m1 mixed-quasiperiodic-m1 "
    "mixed-oddirregular-n1 "
    "float-unitary-m2 float-contraction-m2 generic-m2 exact-dirichlet-m2 exact-neumann-m2 "
    "exact-periodic-m2 exact-sparse-m2 mixed-dirichlet-m2 mixed-neumann-m2 mixed-periodic-m2 "
    "mixed-quasiperiodic-m2"
).split()
CHECK_CASES = 2 * _CHECK_SMALL + (
    "float-unitary-m3 float-contraction-m3 generic-m3 exact-periodic-m3 "
    "exact-oddirregular-n2 exact-sparse-m3 mixed-oddirregular-n2 "
    "float-unitary-m4 float-contraction-m4 generic-m4 exact-dirichlet-m4 mixed-dirichlet-m4 "
    "exact-sparse-m4 mixed-quasiperiodic-m4 "
    "exact-defect1-m5 exact-oddirregular-n3 exact-periodic-m5 "
    "exact-neumann-m6 mixed-neumann-m6 exact-oddirregular-n4 float-unitary-m8"
).split()
# The check workload's probe: the inputs up to m = 5 on which the seed
# shows a known defect in a check report (larger ones would only make
# the untimed part of a run longer).
CHECK_PROBE = (
    "exact-quasiperiodic-m1 exact-quasiperiodic-m2 exact-quasiperiodic-m3 exact-quasiperiodic-m4 "
    "mixed-sparse-m1 mixed-sparse-m2 mixed-sparse-m3 mixed-sparse-m4 mixed-defect1-m5"
).split()
# Operations per m in one round of the verify workload, and samples per
# operation.  The weights put p50 in the middle of the m = 4 group and p90
# in the middle of the m = 8 group, not on a gap between groups.
VERIFY_PLAN = {1: 3, 2: 3, 3: 2, 4: 4, 5: 2, 6: 2, 7: 1, 8: 3}
VERIFY_SAMPLES = 5
# The traced run's baseline column: one operation per m at the 50
# samples of the acceptance suite.
BASELINE_PLAN = {2: 1, 4: 1, 8: 1}
BASELINE_SAMPLES = 50
# Float input whose smallest Gram eigenvalue lies within this share of
# the Gram scale is near the dissipativity boundary; there the float and
# oracle verdicts may differ without a defect (ROADMAP item 5).
NEAR_BOUNDARY = 1e-6
# Tolerances of the benchmark's own float checks.
CONTRACTION_TOL = 1e-6
SPAN_TOL = 1e-8
# The oracle's least sampled value and its float replay agree to this
# share of the largest |yh|^2 among the samples.
REPLAY_TOL = 1e-8
VERDICT_KEYS = ("dissipative", "selfadjoint", "regular", "regular_strict")
REGULARITY_CHECKS = ("truth:regular", "truth:regular_strict", "mixing:regular", "mixing:regular_strict")
# The inputs where the seed shows each known defect, by name prefix:
# defect 1 on the row-mixed copies of sparse integer systems (the m = 5
# system in most seeds, a sparse system in about 1 seed of 300), defect 2
# on the p/q quasi-periodic systems.  A workload whose outputs show the
# defect runs these inputs only in its probe.
DEFECT_1_INPUTS = ("mixed-defect1-m5", "mixed-sparse-m")
DEFECT_2_INPUTS = ("exact-quasiperiodic-m",)
DEFECT_1 = "defect-1 (regularity changes under row mixing)"
DEFECT_2 = "defect-2 (p/q input rounded before the exact oracle)"

@dataclass(frozen=True)
class Op:
    name: str
    kind: str | None
    m: int
    call: Callable[[], object]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def system_of(case: corpus.Case) -> bc_core.BoundaryConditionSystem:
    return bc_core.BoundaryConditionSystem(case.m, case.coeffs)


def known(case: corpus.Case | None, check: str) -> str | None:
    """The seed defect a failure belongs to, or None for a new failure.

    Defect 1 is known only on row-mixed copies of sparse integer systems
    and defect 2 only on the quasi-periodic systems with the p/q phase
    3/5 + 4/5 i, the inputs where the seed shows them.
    """
    if case is None:
        return None
    if case.name.startswith(DEFECT_1_INPUTS) and check in REGULARITY_CHECKS:
        return DEFECT_1
    if case.name.startswith(DEFECT_2_INPUTS) and check in ("oracle-contradiction", "oracle-nonzero"):
        return DEFECT_2
    return None




def stream_fraction(seed: int, tag: str, index: int) -> Fraction:
    """The counter-based stream of small rationals the oracle draws its
    sample weights from: sha256 of "seed:tag:index"."""
    digest = hashlib.sha256(f"{seed}:{tag}:{index}".encode()).digest()
    return Fraction(int.from_bytes(digest[:4], "big") % 19 - 9, digest[4] % 4 + 1)


def null_basis(coeffs: np.ndarray) -> np.ndarray:
    """The null-space basis the oracle samples from, in doubles: the exact
    RREF basis of the double-valued matrix, with a 1 at one free column
    and 0 at the others.

    The elimination runs in Fractions on the real form [[Re, -Im],
    [Im, Re]] with the real and imaginary column of each complex column
    side by side, so a complex pivot column is a pair of real ones.
    Doubles would not do: a row-mixed copy can have a pivot block that is
    singular up to rounding, and the exact basis then has huge entries.
    """
    rows = []
    for row in coeffs:
        rows.append([f for z in row for f in (Fraction(z.real), Fraction(-z.imag))])
        rows.append([f for z in row for f in (Fraction(z.imag), Fraction(z.real))])
    pivots: list[int] = []
    for col in range(len(rows[0])):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, other in enumerate(rows):
            if i != r and other[col]:
                rows[i] = [a - other[col] * b for a, b in zip(other, rows[r])]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    width = len(rows[0]) // 2
    free = [c for c in range(width) if 2 * c not in pivots]
    basis = np.zeros((len(free), width), dtype=complex)
    for j, f in enumerate(free):
        basis[j, f] = 1
        for row, col in enumerate(pivots):
            if col % 2 == 0:
                basis[j, col // 2] = complex(-rows[row][2 * f], -rows[row + 1][2 * f])
    return basis


def replay_oracle(case: corpus.Case, seed: int, samples: int) -> tuple[float, float]:
    """The check oracle's least sampled value, replayed in floats, and the
    largest |yh|^2 among the samples (the scale of the values).

    The oracle combines the RREF null-space basis of the conditions with
    weights from ``stream_fraction`` and takes Im(L0 y, y) of the Hermite
    interpolant; the replay takes the same basis and weights in doubles
    and Im(L0 y, y) = Im<Q yh, P yh> from the canonical maps.
    """
    basis = null_basis(case.coeffs)
    p, q = corpus.canonical_maps(case.m)
    least, scale = np.inf, 0.0
    for index in range(samples):
        tag = f"ns{index}"
        weights = np.array([
            complex(float(stream_fraction(seed, tag, 2 * j)), float(stream_fraction(seed, tag, 2 * j + 1)))
            for j in range(len(basis))
        ])
        yh = weights @ basis
        least = min(least, float(np.vdot(p @ yh, q @ yh).imag))
        scale = max(scale, float(np.vdot(yh, yh).real))
    return least, scale


def near_boundary(eigenvalues) -> bool:
    values = np.abs(np.asarray(eigenvalues, dtype=float))
    return float(values.min()) <= NEAR_BOUNDARY * max(1.0, float(values.max()))


class Workload:
    """One round of operations plus the checks of their outputs.

    Subclasses set ``ops`` (the timed round) and ``probe`` (inputs on
    which the seed shows a known defect, run once untimed) and define
    ``same`` (two outputs of one input agree) and ``check_outputs``
    (failures of the outputs that ran).
    """

    ops: list[Op]
    probe: list[Op] = []

    def __init__(self) -> None:
        self.first: dict[str, object] = {}

    def case(self, name: str) -> corpus.Case | None:
        return None

    def baseline(self) -> "Workload | None":
        """Extra operations the traced run times only for the baseline table."""
        return None

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def check(self, ops: list[Op], outputs: list) -> list[list]:
        """Failures of each of ``ops`` from its output (empty list: passed).
        Every output is compared with the first output of the same input."""
        failures: list[list] = [[] for _ in outputs]
        good: dict[int, object] = {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if isinstance(out, Exception):
                failures[i].append(("exception", f"{type(out).__name__}: {out}"))
            elif op.name in self.first and (
                isinstance(self.first[op.name], Exception) or not self.same(out, self.first[op.name])
            ):
                failures[i].append(("repeat", "output differs from the first output of this input"))
            else:
                good[i] = out
            self.first.setdefault(op.name, out)
        for i, found in self.check_outputs(ops, good).items():
            failures[i].extend(found)
        return failures


def parse_report(output: tuple[int, str]) -> tuple[dict | None, list]:
    """The JSON report of a CLI operation, or the failure it shows."""
    code, text = output
    if code != 0:
        return None, [("exit", f"exit code {code}")]
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [("output", f"not JSON: {exc}")]


class CorpusWorkload(Workload):
    """Shared checks for workloads whose inputs are corpus systems."""

    # name prefixes of the inputs on which the seed shows a known defect
    # in this workload's outputs; those inputs run only in the probe
    defect_inputs: tuple[str, ...] = ()

    def __init__(self, cases: list[corpus.Case], round_names, probe_names) -> None:
        """The timed round holds ``round_names``; the probe holds those of
        ``probe_names`` on which the seed shows a known defect, with the
        originals of its mixed copies, so the probe is checked on its own."""
        super().__init__()
        self.by_name = {case.name: case for case in cases}
        shown = [name for name in probe_names if self.shows_seed_defect(name)]
        originals = [self.by_name[name].original for name in shown]
        self.round = [self.by_name[name] for name in round_names if not self.shows_seed_defect(name)]
        self.probe_cases = [self.by_name[name] for name in dict.fromkeys(shown + [o for o in originals if o])]
        self._reference_orders: dict[str, tuple] = {}
        # verdicts of every input checked so far, for the mixing checks
        self.verdicts: dict[str, dict] = {}

    def case(self, name: str) -> corpus.Case | None:
        return self.by_name.get(name)

    def shows_seed_defect(self, name: str) -> bool:
        return name.startswith(self.defect_inputs)

    def reference_orders(self, case: corpus.Case) -> tuple:
        if case.name not in self._reference_orders:
            self._reference_orders[case.name] = bc_core.rank_profile_orders(system_of(case))
        return self._reference_orders[case.name]

    def verdict_failures(self, verdicts: dict[str, dict], orders: dict[str, tuple]):
        """Ground truth, mixing invariance and order checks for one round."""
        failures: dict[str, list] = {name: [] for name in verdicts}
        for name, got in verdicts.items():
            case = self.by_name[name]
            for key, want in case.truth.items():
                if got[key] != want:
                    failures[name].append((f"truth:{key}", f"{got[key]} != {want}"))
            original = verdicts.get(case.original, self.verdicts.get(case.original))
            for key in VERDICT_KEYS if original is not None else ():
                if got[key] != original[key]:
                    failures[name].append(
                        (f"mixing:{key}", f"{got[key]} != {original[key]} of {case.original}")
                    )
            if tuple(orders[name]) != tuple(self.reference_orders(case)):
                failures[name].append(
                    ("orders", f"{tuple(orders[name])} != {self.reference_orders(case)}")
                )
        for name, got in verdicts.items():
            self.verdicts.setdefault(name, got)
        return failures


class CheckWorkload(CorpusWorkload):
    name = "check"
    defect_inputs = DEFECT_1_INPUTS + DEFECT_2_INPUTS

    def __init__(self, cases: list[corpus.Case], work_dir: str, seed: int) -> None:
        super().__init__(cases, CHECK_CASES, CHECK_PROBE)
        self._replays: dict[tuple, tuple[float, float]] = {}
        # non-dissipative inputs whose sample set holds no negative value
        self.sample_misses: set[str] = set()
        self.ops = [self.op(case, work_dir) for case in self.round]
        self.probe = [self.op(case, work_dir) for case in self.probe_cases]

    @staticmethod
    def op(case: corpus.Case, work_dir: str) -> Op:
        path = os.path.join(work_dir, case.name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case.document_text())
        argv = ["check", path]
        return Op(case.name, case.kind, case.m, lambda: run_cli(argv))

    def check_outputs(self, ops: list[Op], outputs: dict[int, tuple[int, str]]) -> dict[int, list]:
        failures: dict[int, list] = {}
        reports, verdicts, orders = {}, {}, {}
        for i, output in outputs.items():
            report, found = parse_report(output)
            if report is None:
                failures[i] = found
                continue
            name = ops[i].name
            reports[i] = report
            verdicts[name] = report["verdicts"]
            orders[name] = report["orders"]
        by_name = self.verdict_failures(verdicts, orders)
        for i, report in reports.items():
            case = self.by_name[ops[i].name]
            found = by_name[case.name] + self.oracle_failures(case, report)
            if found:
                failures[i] = found
        return failures

    def replay(self, case: corpus.Case, seed: int, samples: int) -> tuple[float, float]:
        key = (case.name, seed, samples)
        if key not in self._replays:
            self._replays[key] = replay_oracle(case, seed, samples)
        return self._replays[key]

    def oracle_failures(self, case: corpus.Case, report: dict) -> list:
        """The sampled oracle against its float replay and the float verdict.

        The oracle's least value must equal the replay's, so a sample set
        with a negative value is reported negative.  A negative value then
        means not dissipative (away from the boundary for float input).
        The converse is not a failure: 25 samples of a non-dissipative
        system need not hold a negative value, and where the replay agrees
        that they do not, the input is only noted in ``sample_misses``.
        Exactly self-adjoint p/q input has an oracle minimum of exactly 0.
        """
        oracle = report["oracle"]["dissipativity"]
        dissipative = report["verdicts"]["dissipative"]
        minimum = Fraction(oracle["min_value"])
        replayed, scale = self.replay(case, report["seed"], oracle["samples"])
        found = []
        replay_agrees = abs(float(minimum) - replayed) <= REPLAY_TOL * scale
        if not replay_agrees:
            found.append(("oracle-replay", f"oracle min {float(minimum):.6g}, float replay {replayed:.6g}"))
        if case.exact is not None or not near_boundary(report["gram_eigenvalues"]):
            if dissipative and minimum < 0:
                found.append(("oracle-contradiction", f"dissipative but oracle min {float(minimum):.3g}"))
            if not dissipative and oracle["all_nonnegative"] and replay_agrees:
                self.sample_misses.add(case.name)
        if case.exact is not None and case.truth.get("selfadjoint") and minimum != 0:
            found.append(("oracle-nonzero", f"self-adjoint but oracle min {float(minimum):.3g}"))
        return found


class VerdictsWorkload(CorpusWorkload):
    name = "verdicts"
    defect_inputs = DEFECT_1_INPUTS  # defect 2 shows only in the exact oracle

    def __init__(self, cases: list[corpus.Case], work_dir: str, seed: int) -> None:
        names = [case.name for case in cases]
        super().__init__(cases, names, names)
        self.ops = [self.op(case) for case in self.round]
        self.probe = [self.op(case) for case in self.probe_cases]
        # contraction checks cost a few SVDs: run them once per input
        self._contraction: dict[str, list] = {}

    @staticmethod
    def op(case: corpus.Case) -> Op:
        system = system_of(case)
        return Op(case.name, case.kind, case.m, lambda: analyse(system))

    @staticmethod
    def same(a, b) -> bool:
        return summary(a) == summary(b)

    def check_outputs(self, ops: list[Op], outputs: dict[int, dict]) -> dict[int, list]:
        names = {i: ops[i].name for i in outputs}
        verdicts = {names[i]: out for i, out in outputs.items()}
        orders = {names[i]: out["orders"] for i, out in outputs.items()}
        by_name = self.verdict_failures(verdicts, orders)
        failures = {}
        for i, out in outputs.items():
            case = self.by_name[names[i]]
            if case.name not in self._contraction:
                self._contraction[case.name] = contraction_failures(case, out)
            found = by_name[case.name] + self._contraction[case.name]
            if found:
                failures[i] = found
        return failures


def analyse(system: bc_core.BoundaryConditionSystem) -> dict:
    """One verdicts operation: the float analysis through the library API."""
    normalized = bc_core.normalize(system)
    reg = regularity.regularity_verdict(normalized)
    diss = forms.dissipativity_verdict(system)
    out = {
        "orders": normalized.orders,
        "dissipative": diss.dissipative,
        "selfadjoint": forms.selfadjoint_verdict(system),
        "regular": reg.regular,
        "regular_strict": reg.regular_strict,
        "V": None,
        "rebuilt": None,
    }
    if diss.dissipative:
        con = contraction.to_contraction(system)
        out["V"] = con.V
        out["rebuilt"] = contraction.from_contraction(con).coeffs
    return out


def summary(out: dict) -> tuple:
    return (tuple(out["orders"]),) + tuple(out[key] for key in VERDICT_KEYS)


def contraction_failures(case: corpus.Case, out: dict) -> list:
    """to_contraction recovers the V a float case was built from, and
    from_contraction returns a system with the same row span."""
    found = []
    if out["V"] is None:
        return found
    if case.contraction is not None:
        error = float(np.abs(out["V"] - case.contraction).max())
        if error > CONTRACTION_TOL:
            found.append(("contraction", f"|V - V0| = {error:.3g}"))
    stacked = np.vstack([case.coeffs, out["rebuilt"]])
    sigma = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(sigma > SPAN_TOL * sigma[0]))
    if rank != case.m:
        found.append(("roundtrip", f"rows of the rebuilt system span rank {rank} with the input"))
    return found


class VerifyWorkload(Workload):
    name = "verify"

    def __init__(self, cases, work_dir: str, seed: int, plan=VERIFY_PLAN,
                 samples: int = VERIFY_SAMPLES) -> None:
        super().__init__()
        self.seed = seed
        self.ops = []
        for m, count in plan.items():
            for j in range(count):
                sample_seed = seed * 100 + 10 * m + j
                argv = ["verify", "--m", str(m), "--samples", str(samples),
                        "--seed", str(sample_seed)]
                self.ops.append(
                    Op(f"verify{samples}-m{m}-seed{sample_seed}", None, m, lambda argv=argv: run_cli(argv))
                )

    def baseline(self) -> Workload:
        return VerifyWorkload(None, "", self.seed, BASELINE_PLAN, BASELINE_SAMPLES)

    def check_outputs(self, ops: list[Op], outputs: dict[int, tuple[int, str]]) -> dict[int, list]:
        failures = {}
        for i, output in outputs.items():
            report, found = parse_report(output)
            for part in ("boundary_form", "canonical_coordinates") if report else ():
                if not report[part]["passed"] or report[part]["max_defect"] != "0":
                    found.append(("verify-defect", f"{part}: {report[part]}"))
            if found:
                failures[i] = found
        return failures


WORKLOADS = {"check": CheckWorkload, "verdicts": VerdictsWorkload, "verify": VerifyWorkload}


def make(name: str, seed: int, work_dir: str) -> Workload:
    return WORKLOADS[name](corpus.build_corpus(seed), work_dir, seed)
