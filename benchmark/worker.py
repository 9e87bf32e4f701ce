"""One benchmark run in a fresh process; ``run.py`` starts it.

Builds the seeded corpus, runs one workload in a closed loop and checks
every output.  With ``--trace 0`` it prints the end-to-end metrics it can
measure itself; with ``--trace 1`` it runs untraced rounds, then the same
number of rounds with every public function of the package wrapped in a
span, and prints the per-layer metrics.  The last line of stdout is one
JSON object; ``run.py`` adds the set-up time to it.

    PYTHONPATH=src python3 benchmark/worker.py --workload check --seed 1 \\
        --seconds 20 --trace 0 --work DIR --spans FILE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

import bca
from bca import bc_core, cli, contraction, forms, numerics, polyoracle, regularity

import corpus
import reference
import spans
import workloads

MIN_OPS = 100  # at least ten samples beyond p90
MAX_TRACED_OPS = 1000  # bounds the spans kept in memory (~90 per verdicts op)
LAYERS = {
    "cli": cli,
    "bc_core": bc_core,
    "forms": forms,
    "regularity": regularity,
    "contraction": contraction,
    "numerics": numerics,
    "polyoracle": polyoracle,
}
# Layers whose total self time is reported beside their buckets; in the
# other layers one or two buckets cover every span.
TOTALS = ("cli", "bc_core", "numerics", "polyoracle")
FACTORIZATIONS = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "solve", "det", "inv", "pinv", "lstsq")
# A span with one of these names starts a time bucket; its callees in
# the same layer add their self time to it (spans.buckets).
BUCKETS = {
    "cli.main": "cli.main_self_ms",
    "cli.parse_condition_data": "cli.parse_ms",
    "cli.parse_contraction_data": "cli.parse_ms",
    "cli.render_report": "cli.render_ms",
    "cli.dumps_deterministic": "cli.render_ms",
    "bc_core.normalize": "bc_core.normalize_ms",
    "forms.dissipativity_verdict": "forms.dissipativity_ms",
    "forms.selfadjoint_verdict": "forms.dissipativity_ms",
    "regularity.regularity_verdict": "regularity.verdict_ms",
    "contraction.to_contraction": "contraction.to_ms",
    "contraction.from_contraction": "contraction.from_ms",
    "polyoracle.sample_dissipativity": "polyoracle.sample_ms",
    "polyoracle.rational_nullspace": "polyoracle.nullspace_ms",
    "polyoracle.hermite_interpolant": "polyoracle.hermite_ms",
    "polyoracle.l0_inner_product": "polyoracle.l0_ms",
    "polyoracle.verify_boundary_form_identity": "polyoracle.verify_ms",
    "polyoracle.verify_canonical_identity": "polyoracle.verify_ms",
}
CALLS = {
    "bc_core.validate_calls": ("bc_core.validate",),
    "bc_core.row_order_calls": ("bc_core.row_order",),
    "forms.dissipativity_calls": ("forms.dissipativity_verdict",),
    "regularity.det_calls": ("regularity.boundary_determinant",),
    "polyoracle.hermite_calls": ("polyoracle.hermite_interpolant",),
    "float_layers.verdict_calls": (
        "bc_core.normalize",
        "forms.dissipativity_verdict",
        "forms.selfadjoint_verdict",
        "regularity.regularity_verdict",
        "contraction.to_contraction",
        "contraction.from_contraction",
    ),
}
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    {f"{layer}.self_ms": "ms" for layer in TOTALS}
    | {name: "ms" for name in BUCKETS.values()}
    | {name: "count" for name in CALLS}
    | {
        "numerics.factorizations": "count",
        "polyoracle.calls": "count",
        "polyoracle.share_pct": "%",
        "trace.overhead_pct": "%",
    }
    | {f"polyoracle.den_bits.{kind}": "bits" for kind in corpus.KINDS}
)
# Columns of the ROADMAP baseline table: (label, span name).
BASELINE = (
    ("normalize", "bc_core.normalize"),
    ("dissipativity", "forms.dissipativity_verdict"),
    ("regularity", "regularity.regularity_verdict"),
    ("to_contraction", "contraction.to_contraction"),
    ("sample_dissipativity(25)", "polyoracle.sample_dissipativity"),
    ("verify_boundary_form_identity(50)", "polyoracle.verify_boundary_form_identity"),
    ("check", "cli.main"),
)


class Tally:
    """Failed operations, counted by (input name, check, seed defect);
    kept as counts so memory does not grow with the operations run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()
        self.details: dict = {}

    def add(self, ops, failures) -> None:
        for op, found in zip(ops, failures):
            self.attempted += 1
            self.failed += bool(found)
            for check, detail in found:
                key = (op.name, check, workloads.known(self.workload.case(op.name), check))
                self.counts[key] += 1
                self.details.setdefault(key, detail)

    def all_known(self) -> bool:
        return all(defect is not None for _, _, defect in self.counts)

    def lines(self) -> list[str]:
        return [
            f"  {name} x{count}: {check} [{defect or 'NEW FAILURE'}] {self.details[name, check, defect]}"
            for (name, check, defect), count in sorted(self.counts.items(), key=lambda kv: kv[0][:2])
        ]


def run_op(op: workloads.Op):
    """The operation's output, or the exception it raised: a failed
    operation is counted, not fatal."""
    try:
        return op.call()
    except Exception as exc:
        return exc


def run_probe(workload) -> Tally:
    """Run the workload's probe once, untimed, and check its outputs."""
    probe = Tally(workload)
    probe.add(workload.probe, workload.check(workload.probe, [run_op(op) for op in workload.probe]))
    return probe


class Pass:
    """Latencies (wall and scaled to nominal machine speed, in seconds) of
    the rounds of one measuring pass."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.rounds = 0


def measure(workload, speed: reference.SpeedTrack, tally: Tally, seconds: float,
            min_ops: int = 0, rounds: int | None = None, tracer: spans.Tracer | None = None,
            traced_ops: list | None = None) -> Pass:
    """Run whole rounds until ``seconds`` of operation wall time and
    ``min_ops`` operations are measured, or exactly ``rounds`` rounds if
    given.  ``speed`` samples the machine speed between operations."""
    result = Pass()

    def more() -> bool:
        if rounds is not None:
            return result.rounds < rounds
        return sum(result.latencies) < seconds or len(result.latencies) < min_ops

    while more():
        outputs = []
        for op in workload.ops:
            speed.sample()
            root = None
            if tracer is not None:
                tracer.op = len(traced_ops)
                traced_ops.append(op)
                root = tracer.begin("op")
            start = time.perf_counter()
            out = run_op(op)
            result.latencies.append(time.perf_counter() - start)
            result.starts.append(start)
            if root is not None:
                tracer.end(root)
                tracer.op = None
            outputs.append(out)
        tally.add(workload.ops, workload.check(workload.ops, outputs))
        result.rounds += 1
    speed.sample(force=True)  # the last operations get samples after them too
    result.scaled = [lat * speed.factor(t) for t, lat in zip(result.starts, result.latencies)]
    return result


def traced_rounds(workload, speed: reference.SpeedTrack, tally: Tally, rounds: int,
                  **install) -> tuple[spans.Tracer, list, Pass, list[float]]:
    """``rounds`` rounds with every public function of the package wrapped
    in a span: the tracer, the operation of each op id, the pass and each
    operation's speed factor.  ``install`` goes to ``Tracer.install``."""
    tracer, traced_ops = spans.Tracer(), []
    tracer.install(LAYERS, [bca, *LAYERS.values()], **install)
    try:
        result = measure(workload, speed, tally, 0, rounds=rounds, tracer=tracer, traced_ops=traced_ops)
    finally:
        tracer.uninstall()
    return tracer, traced_ops, result, [s / w for s, w in zip(result.scaled, result.latencies)]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation between order statistics)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: Pass, tally: Tally) -> dict:
    lat = result.scaled
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * quantile(lat, 50),
        "latency_p90_ms": 1e3 * quantile(lat, 90),
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def den_bits_by_kind(tracer: spans.Tracer, traced_ops: list) -> dict[str, list[int]]:
    """Null-space denominator bit lengths, grouped by input kind."""
    bits: dict[str, list[int]] = {kind: [] for kind in corpus.KINDS}
    for op, value in tracer.observations["polyoracle.rational_nullspace"]:
        kind = traced_ops[op].kind
        if kind is not None:
            bits[kind].append(value)
    return bits


def per_layer(tracer: spans.Tracer, traced_ops: list, factors: list[float], overhead_pct: float) -> dict:
    """Self times (ms, scaled by each operation's speed factor) and call
    counts per operation, from the spans; the median null-space
    denominator bit length per input kind."""
    records = tracer.spans
    selfs = [own * factors[span[spans.OP]] for span, own in zip(records, spans.self_times(records))]
    bucket_of = spans.buckets(records, BUCKETS)
    ops = len(factors)
    op_seconds = sum(
        (s[spans.END] - s[spans.START]) * factors[s[spans.OP]] for s in records if s[spans.NAME] == "op"
    )
    layer_s: Counter = Counter()
    bucket_s: Counter = Counter()
    calls: Counter = Counter()
    for span, own, bucket in zip(records, selfs, bucket_of):
        layer_s[spans.layer_of(span[spans.NAME])] += own
        if bucket is not None:
            bucket_s[bucket] += own
        calls[span[spans.NAME]] += 1
    metrics = {f"{layer}.self_ms": 1e3 * layer_s[layer] / ops for layer in TOTALS}
    metrics |= {name: 1e3 * bucket_s[name] / ops for name in BUCKETS.values()}
    metrics |= {name: sum(calls[n] for n in names) / ops for name, names in CALLS.items()}
    metrics |= {
        "numerics.factorizations": tracer.counts["numerics.factorizations"] / ops,
        "polyoracle.calls": sum(c for n, c in calls.items() if spans.layer_of(n) == "polyoracle") / ops,
        "polyoracle.share_pct": 100.0 * layer_s["polyoracle"] / op_seconds,
        "trace.overhead_pct": overhead_pct,
    }
    metrics |= {
        f"polyoracle.den_bits.{kind}": float(statistics.median(bits)) if bits else 0.0
        for kind, bits in den_bits_by_kind(tracer, traced_ops).items()
    }
    return metrics


def kind_lines(tracer: spans.Tracer, traced_ops: list, traced: Pass) -> list[str]:
    """Per input kind: operations, median scaled latency and median
    null-space denominator bits of the traced rounds."""
    bits = den_bits_by_kind(tracer, traced_ops)
    lines = []
    for kind in corpus.KINDS:
        latencies = [lat for op, lat in zip(traced_ops, traced.scaled) if op.kind == kind]
        if latencies:
            den = f"{statistics.median(bits[kind]):6.0f}" if bits[kind] else "     -"
            lines.append(f"  {kind:8s} {len(latencies):5d} ops  p50 {1e3 * statistics.median(latencies):9.2f} ms"
                         f"  den_bits {den}")
    return lines


def den_bits(basis) -> int:
    """Largest denominator bit length in a rational null-space basis."""
    return max(
        (max(z.re.denominator.bit_length(), z.im.denominator.bit_length()) for v in basis for z in v),
        default=0,
    )


def baseline_durations(tracer: spans.Tracer, traced_ops: list, factors: list[float],
                       labels) -> dict[tuple[str, int], list[float]]:
    """Inclusive seconds (scaled) at m = 2, 4, 8 of the ROADMAP baseline
    columns in ``labels``, over float-kind inputs (verify has no kind)."""
    durations: dict[tuple[str, int], list[float]] = {}
    wanted = {name: label for label, name in BASELINE if label in labels}
    for span in tracer.spans:
        label = wanted.get(span[spans.NAME])
        op = traced_ops[span[spans.OP]]
        if label is None or op.kind not in ("float", None) or op.m not in (2, 4, 8):
            continue
        duration = factors[span[spans.OP]] * (span[spans.END] - span[spans.START])
        durations.setdefault((label, op.m), []).append(duration)
    return durations


def baseline_lines(durations: dict[tuple[str, int], list[float]]) -> list[str]:
    """Median inclusive ms per call of each baseline column."""
    lines = []
    for label, _ in BASELINE:
        cells = [durations.get((label, m)) for m in (2, 4, 8)]
        if any(cells):
            text = "  ".join(f"m={m}: {1e3 * statistics.median(c):9.2f}" if c else f"m={m}:         -"
                             for m, c in zip((2, 4, 8), cells))
            lines.append(f"  {label:36s} {text}")
    return lines


def write_spans(path: str, tracer: spans.Tracer, traced_ops: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "ops": [[op.name, op.kind, op.m] for op in traced_ops],
                "spans": tracer.spans,
            },
            handle,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory for the input files")
    parser.add_argument("--spans", required=True, help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.work)
    kinds = [op.kind for op in workload.ops if op.kind is not None]
    print(f"workload {args.workload}: seed {args.seed}, {len(workload.ops)} operations per round, "
          f"closed loop, 1 caller, 1 process, bca from {os.path.relpath(os.path.dirname(bca.__file__))}")
    if kinds:
        cases = [workload.case(op.name) for op in workload.ops]
        shares = corpus.kind_shares(cases)
        exact = sum(case.encoding == "p/q" for case in cases) / len(cases)
        print("kind shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
              + f"; encoding shares: p/q {exact:.3f}, float {1 - exact:.3f}")
    print("orders m: " + " ".join(str(op.m) for op in workload.ops))
    workload.ops[0].call()  # warm-up: first-call costs of numpy and the package
    probe = run_probe(workload)
    speed = reference.SpeedTrack()
    tally = Tally(workload)

    if args.trace == 0:
        result = measure(workload, speed, tally, args.seconds, MIN_OPS)
        metrics = end_to_end(result, tally)
        units = END_TO_END
        wall = result.latencies
        print(f"{result.rounds} rounds, {len(wall)} ops measured; times below are scaled to nominal "
              f"machine speed (reference.py); wall clock: {len(wall) / sum(wall):.4g} ops/s, "
              f"p50 {1e3 * quantile(wall, 50):.4g} ms, p90 {1e3 * quantile(wall, 90):.4g} ms, "
              f"median speed factor {statistics.median(s / w for s, w in zip(result.scaled, wall)):.3f}")
    else:
        plain = measure(workload, speed, tally, args.seconds / 2)
        tracer, traced_ops, traced, factors = traced_rounds(
            workload, speed, tally, min(plain.rounds, -(-MAX_TRACED_OPS // len(workload.ops))),
            observers={"polyoracle.rational_nullspace": den_bits},
            counted={"numerics.factorizations": [(np.linalg, name) for name in FACTORIZATIONS]},
        )
        # rounds repeat one mix of inputs, so mean latencies are comparable
        overhead = 100.0 * (statistics.fmean(traced.scaled) / statistics.fmean(plain.scaled) - 1.0)
        metrics = per_layer(tracer, traced_ops, factors, overhead)
        units = PER_LAYER
        print(f"{plain.rounds} untraced + {traced.rounds} traced rounds, "
              f"{len(plain.latencies) + len(traced.latencies)} ops, {len(tracer.spans)} spans")
        if kinds:
            print("traced ops by input kind:")
            for line in kind_lines(tracer, traced_ops, traced):
                print(line)
        labels = [label for label, _ in BASELINE if args.workload == "check" or label != "check"]
        durations = baseline_durations(tracer, traced_ops, factors, labels)
        extra = workload.baseline()
        if extra is not None:
            # its columns replace those of the same calls in the measured rounds
            extra_tracer, extra_ops, _, extra_factors = traced_rounds(extra, speed, tally, 1)
            durations |= baseline_durations(extra_tracer, extra_ops, extra_factors, labels)
            print(f"{len(extra.ops)} more traced ops for the baseline columns: "
                  + " ".join(op.name for op in extra.ops))
        print("baseline columns (median inclusive ms per call, scaled):")
        for line in baseline_lines(durations):
            print(line)
        write_spans(args.spans, tracer, traced_ops)
        print(f"spans written to {args.spans}")

    print(f"error_rate = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f} "
          "(failed/attempted)")
    if tally.counts:
        print("failed inputs (input x failed ops: check [seed defect] first detail):")
        for line in tally.lines():
            print(line)
    if workload.probe:
        print(f"untimed probe of {len(workload.probe)} inputs on which the seed shows a known defect, "
              f"not counted in attempted/failed: {probe.failed} failed")
        for line in probe.lines():
            print(line)
    misses = sorted(getattr(workload, "sample_misses", ()))
    if misses:
        print("not dissipative, and the float replay agrees that no oracle sample is negative "
              "(not a failure): " + " ".join(misses))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result_line = {
        "correct": tally.failed == 0 and probe.all_known(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
