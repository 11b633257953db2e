"""The four benchmark workloads and the correctness gate on their outputs.

A workload is a fixed list of ``steerability`` CLI calls (operations) made
in-process through ``steerability.cli.main`` by one closed-loop client: the
next call starts only after the previous one returned and its output was
checked.  One pass runs every operation once.  Each operation's output
file is checked on its own (exit code, physics), and each pass's digest
is compared with the digest recorded from the seed library for that seed
(``digests.json``), so a refactor that changes a single output byte fails.
Seeds with no recorded digest get the physics checks only; ``run.py``
reports that in its output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

NAMES = ("scan-grid", "sample-volume", "verify-battery", "analyze-corpus")

#: Workload sizes.  ``full`` is what the benchmark measures and what the
#: recorded digests cover; ``smoke`` runs every code path in seconds.  A pass
#: is many short operations (15-30 ms; 2 ms for a report): ``scan_parts``
#: sub-ranges of [0, 1] per family, and ``calls`` sample or verify calls with
#: seeds of their own.  See ``harness`` for why operations are short.
SIZES = {
    "full": {"scan_step": "1e-3", "scan_parts": 10, "samples": 20_000, "trials": 20,
             "calls": 5, "reports": 1000},
    "smoke": {"scan_step": "1e-2", "scan_parts": 2, "samples": 10_000, "trials": 5,
              "calls": 2, "reports": 30},
}

#: Draws behind the reference fraction the sample check compares with, so
#: that the reference's own error is small beside an operation's.
REFERENCE_SAMPLES = 1_000_000

WERNER_THRESHOLD = 1.0 / math.sqrt(3.0)
GISIN_THRESHOLD = 2.0 / 3.0
THRESHOLD_TOL = 1e-9
SAMPLE_SIGMAS = 5.0


@dataclass
class Op:
    """One CLI call, the file it writes and the check its output must pass."""

    argv: list[str]
    out: str
    check: Callable[[str], str | None]  # output text -> error message or None


@dataclass
class Plan:
    """A workload prepared for one seed and size."""

    name: str
    items: int              # work items per pass (points, draws, trials, reports)
    ops: list[Op]
    reference: str | None   # recorded pass digest; None: the digest gate does not run
    sizes: dict             # the workload's size parameters, for provenance


@dataclass
class PassResult:
    latencies: list[float]  # seconds per operation, in order
    digest: str
    failures: list[str]     # one message per failed operation

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def report_fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(":")
        if sep and not line.startswith("#"):
            out[key] = value.strip()
    return out


def _scan_check(points: int, threshold: float | None) -> Callable[[str], str | None]:
    """``threshold``: the boundary inside the scanned range, None if there is none."""

    def check(text: str) -> str | None:
        lines = text.splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        if len(data) != points + 1:
            return f"scan: {len(data) - 1} points, expected {points}"
        found = [ln for ln in lines if ln.startswith("# threshold:")]
        if threshold is None:
            return f"scan: threshold line in a range without one: {found[0]}" if found else None
        if len(found) != 1:
            return "scan: no threshold line"
        value = float(found[0].split(":", 1)[1])
        if abs(value - threshold) > THRESHOLD_TOL:
            return f"scan: threshold {value!r} is not within {THRESHOLD_TOL} of {threshold!r}"
        return None

    return check


def _sample_check(samples: int, reference_fraction: float) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        fields = report_fields(text)
        try:
            n = int(fields["samples"])
            fraction = float(fields["fraction"])
            stderr = float(fields["stderr"])
        except (KeyError, ValueError):
            return "sample: malformed report"
        if n != samples:
            return f"sample: {n} samples, expected {samples}"
        if abs(fraction - reference_fraction) > SAMPLE_SIGMAS * stderr:
            return (
                f"sample: fraction {fraction!r} is more than {SAMPLE_SIGMAS} stderr "
                f"from the default-seed value {reference_fraction!r}"
            )
        return None

    return check


def _verify_check(text: str) -> str | None:
    lines = text.splitlines()
    properties = [ln for ln in lines if not ln.startswith(("#", "overall"))]
    if not lines or lines[-1] != "overall: PASS" or len(properties) != 4:
        return "verify: battery did not report overall: PASS over four properties"
    if not all(": PASS " in ln for ln in properties):
        return "verify: a property failed"
    return None


def _analyze_check(entry: corpus.Entry) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        fields = report_fields(text)
        try:
            purity = float(fields["purity"])
            in_aus3 = fields["in_aus3"]
        except (KeyError, ValueError):
            return f"analyze {entry.path}: malformed report"
        if abs(purity - entry.purity) > 1e-9:
            return f"analyze {entry.path}: purity {purity!r}, generated {entry.purity!r}"
        if in_aus3 != ("false" if entry.activatable else "true"):
            return f"analyze {entry.path}: in_aus3 {in_aus3} at purity {entry.purity!r}"
        if entry.activatable:
            try:
                expectation = float(fields["witness_expectation"])
            except (KeyError, ValueError):
                return f"analyze {entry.path}: activatable state has no witness"
            if not expectation < 0.0:
                return f"analyze {entry.path}: witness expectation {expectation!r} >= 0"
        elif "witness_expectation" in fields:
            return f"analyze {entry.path}: witness reported for an orbit-safe state"
        return None

    return check


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def prepare(name: str, seed: int, size: str, work: str, digests: dict) -> Plan:
    """Build the operation list of one pass; generates the corpus if needed."""
    sz = SIZES[size]
    out = os.path.join(work, "out.txt")
    if name == "scan-grid":
        step, parts = sz["scan_step"], sz["scan_parts"]
        points = int(round(1.0 / parts / float(step))) + 1
        ops = []
        for fam, threshold in (("werner", WERNER_THRESHOLD), ("gisin", GISIN_THRESHOLD)):
            for i in range(parts):
                lo, hi = i / parts, (i + 1) / parts
                argv = ["scan", "--family", fam, "--from", f"{lo:g}", "--to", f"{hi:g}",
                        "--step", step, "--out", out]
                ops.append(Op(argv, out, _scan_check(points, threshold if lo < threshold < hi else None)))
        items = len(ops) * points
        sizes = {"families": ["werner", "gisin"], "step": step, "ranges": parts, "points": items}
    elif name == "sample-volume":
        n, calls = sz["samples"], sz["calls"]
        check = _sample_check(n, digests["sample_fraction_seed0"])
        ops = [Op(["sample", "--samples", str(n), "--seed", str(seed * calls + j), "--out", out], out, check)
               for j in range(calls)]
        items, sizes = n * calls, {"samples": n, "calls": calls}
    elif name == "verify-battery":
        n, calls = sz["trials"], sz["calls"]
        ops = [Op(["verify", "--trials", str(n), "--seed", str(seed * calls + j), "--out", out], out, _verify_check)
               for j in range(calls)]
        items, sizes = n * calls, {"trials": n, "calls": calls}
    elif name == "analyze-corpus":
        entries = corpus.generate(seed, sz["reports"], os.path.join(work, "corpus"))
        ops = [Op(["analyze", "--in", e.path, "--out", out], out, _analyze_check(e)) for e in entries]
        items = len(entries)
        sizes = {"reports": items, "activatable": sum(e.activatable for e in entries)}
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    table = digests.get(size, {}).get(name, {})
    reference = table.get("*", table.get(str(seed)))
    return Plan(name, items, ops, reference, sizes)


def run_pass(plan: Plan, cli, tracer=None, request_base: int = 0) -> PassResult:
    """Run every operation of the plan once, timing each cli.main call."""
    latencies, failures, digests = [], [], []
    for k, op in enumerate(plan.ops):
        if tracer is not None:
            tracer.request = request_base + k
        if os.path.exists(op.out):
            os.remove(op.out)
        error = None
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # any crash is a failed operation
            code, error = None, f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - start)
        text = ""
        if error is None:
            try:
                with open(op.out, "rb") as fh:
                    raw = fh.read()
                text = raw.decode()
            except (OSError, UnicodeDecodeError) as exc:
                error = f"{' '.join(op.argv)}: no output: {exc}"
            else:
                digests.append(hashlib.sha256(raw).hexdigest())
        if error is None and code != 0:
            error = f"{' '.join(op.argv)}: exit code {code}"
        if error is None:
            error = op.check(text)
        if error is not None:
            failures.append(error)
            digests.append("failed")
    digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    if plan.reference is not None and digest != plan.reference and not failures:
        failures = [f"{plan.name}: output digest differs from the recorded one"] * len(plan.ops)
    return PassResult(latencies, digest, failures)
