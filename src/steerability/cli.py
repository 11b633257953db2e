"""Command-line front end: analyze a state file, scan a family, estimate the
volume of the orbit-safe set, or run the self-check battery.

Exit codes: 0 success, 1 property failure (verify), 2 usage or parse error,
3 invalid state.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import InternalInconsistency, NotHermitian, NotPositive, NotUnitTrace, OutOfRange
from . import absolute, checks, families, sampling, states, teleport, witness
from .linalg import frobenius_norm, singular_values_3x3
# The benchmark tracer (benchmarks/tracer.py, KEPT) reads the convexity
# check's `members` list through this name.
from .checks import convexity as _check_convexity

_VALIDATION_ERRORS = (NotHermitian, NotUnitTrace, NotPositive, OutOfRange)
# Largest scan grid, in steps: built and decided in stacks of families.SCAN_CHUNK states,
# `scan --step 5e-6` (200,000 steps) peaks at 71 MB RSS in 2.0 s (2-vCPU Xeon VM, numpy 2.4.6).
MAX_SCAN_STEPS = 200_000


# Family records: name -> (constructor on `families`, looked up at call time so a wrapper
# installed on the module applies; its parameter names in call order).
_FAMILIES = {"werner": ("werner", ("p",)), "gisin": ("gisin", ("lambda", "theta")),
             "xstate": ("x_state", tuple(f"v{k}" for k in range(1, 7)))}


class StateFileError(ValueError):
    """Malformed state file (structure, not physics)."""


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _fmt_vec(v) -> str:
    return " ".join(_fmt(x) for x in np.asarray(v, dtype=float))


def _numbers(value, shape: tuple, message: str) -> np.ndarray:
    """value as a float array of the given shape whose entries are finite JSON numbers (int or
    float); else StateFileError.  float() also takes true and "0.5", so each type is checked."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise StateFileError(message) from None
    if arr.shape != shape or not np.all(np.isfinite(arr)) or not all(
        type(x) in (int, float) for x in np.asarray(value, dtype=object).flat
    ):
        raise StateFileError(message)
    return arr


def _load_state_file(path: str) -> tuple[np.ndarray, dict]:
    """Parse a JSON state file; returns (state, echo of the input record)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StateFileError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise StateFileError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "format" not in data:
        raise StateFileError("state file must be a JSON object with a 'format' tag")
    allowed = {
        "matrix": {"format", "matrix"},
        "bloch": {"format", "a", "b", "T"},
        "family": {"format", "family", "parameters"},
    }
    tag = data["format"]
    if not isinstance(tag, str) or tag not in allowed:
        raise StateFileError(f"unknown format tag {tag!r}")
    if set(data) != allowed[tag]:
        raise StateFileError(
            f"format {tag!r} requires exactly the keys {sorted(allowed[tag])}, "
            f"got {sorted(data)}"
        )
    if tag == "matrix":
        raw = _numbers(data["matrix"], (4, 4, 2), "matrix must be 4 rows of 4 finite [re, im] pairs")
        rho = states.validate(raw[..., 0] + 1j * raw[..., 1])
    elif tag == "bloch":
        message = "bloch record needs finite numbers a[3], b[3], T[3][3]"
        a = _numbers(data["a"], (3,), message)
        b = _numbers(data["b"], (3,), message)
        T = _numbers(data["T"], (3, 3), message)
        rho = states.from_bloch(states.BlochForm(a=a, b=b, T=T))
    else:
        family, params = data["family"], data["parameters"]
        if not isinstance(family, str) or family not in _FAMILIES:
            raise StateFileError(f"unknown family {family!r}")
        constructor, names = _FAMILIES[family]
        if not isinstance(params, dict) or set(params) != set(names):
            raise StateFileError(f"family {family!r} takes exactly the parameters {list(names)}")
        rho = getattr(families, constructor)(
            *(float(_numbers(params[k], (), f"family parameter {k!r} must be a finite number")) for k in names)
        )
    return rho, data


def _analysis_lines(path: str, rho: np.ndarray, echo: dict) -> list[str]:
    # One Bloch form, one eigensystem and one SVD of T of the validated state; every printed
    # value derives from them (the witness adds the canonical state's Bloch form and 3x3 eigh).
    form = states.to_bloch(rho)
    canonical = absolute.bell_diagonal_canonical(rho)
    report = states.spectrum_of(rho, canonical.weights)
    verdict = absolute.verdict_of(rho, canonical.weights, form)
    aux = teleport.aux_of(singular_values_3x3(form.T))
    f3 = frobenius_norm(form.T)  # = steering.f3_max

    lines = [f"input: {path}", f"format: {echo['format']}"]
    if echo["format"] == "family":
        lines.append(f"family: {echo['family']}")
        lines.append("parameters:")
        for key in sorted(echo["parameters"]):
            lines.append(f"  {key}: {_fmt(echo['parameters'][key])}")
    lines.append("bloch:")
    lines.append(f"  a: {_fmt_vec(form.a)}")
    lines.append(f"  b: {_fmt_vec(form.b)}")
    lines.append("  T:")
    for row in form.T:
        lines.append(f"    {_fmt_vec(row)}")
    lines.append("spectrum:")
    lines.append(f"  eigenvalues: {_fmt_vec(report.eigenvalues)}")
    lines.append(f"  purity: {_fmt(report.purity)}")
    lines.append(f"f2_max: {_fmt(np.sqrt(aux.M))}")  # = steering.f2_max, bit for bit
    lines.append(f"f3_max: {_fmt(f3)}")
    lines.append(f"f3_global_max: {_fmt(verdict.f3_global_max)}")
    lines.append(f"N: {_fmt(aux.N)}")
    lines.append(f"M: {_fmt(aux.M)}")
    lines.append("verdicts:")
    lines.append(f"  unsteerable_as_given: {str(f3 <= 1.0).lower()}")
    lines.append(f"  in_aus3: {str(verdict.in_aus3).lower()}")
    lines.append(f"  teleportation_useful: {str(aux.N > 1.0).lower()}")
    lines.append(f"  chsh_local: {str(aux.M <= 1.0).lower()}")
    if not verdict.in_aus3:
        w = witness.witness_of(rho, canonical)
        expectation = float(np.real(np.trace(w.matrix @ rho)))
        lines.append(f"witness_expectation: {_fmt(expectation)}")
    return lines


def _write_out(text: str, out: str | None) -> int:
    """Write a report; returns 0, or 2 (with a message) when --out cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_analyze(args) -> int:
    try:
        rho, echo = _load_state_file(args.infile)
    except StateFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return _write_out("\n".join(_analysis_lines(args.infile, rho, echo)) + "\n", args.out)


def cmd_scan(args) -> int:
    if not np.all(np.isfinite([args.start, args.stop, args.step])):
        print("--from, --to and --step must be finite", file=sys.stderr)
        return 2
    if args.step <= 0 or args.stop < args.start:
        print("empty parameter range", file=sys.stderr)
        return 2
    span = (args.stop - args.start) / args.step
    if not span <= MAX_SCAN_STEPS:  # also catches a span that overflows to inf
        print(f"scan grid has more than {MAX_SCAN_STEPS} steps", file=sys.stderr)
        return 2
    # hit the endpoint when the step divides the range, stay inside otherwise
    count = (int(round(span)) if abs(span - round(span)) < 1e-9 else int(span)) + 1
    grid = np.minimum(args.start + args.step * np.arange(count), args.stop)
    try:
        result = families.scan_family(args.family, grid)
    except OutOfRange as exc:
        print(f"OutOfRange: {exc}", file=sys.stderr)
        return 2
    lines = [
        f"# family: {args.family}",
        f"# from: {_fmt(args.start)} to: {_fmt(args.stop)} step: {_fmt(args.step)}"
        f" points: {count}",
        "param,f3_global_max_minus_1,in_aus3",
    ]
    for value, f3, inside in zip(result.grid, result.verdict.f3_global_max, result.verdict.in_aus3):
        lines.append(f"{_fmt(value)},{_fmt(f3 - 1.0)},{str(inside).lower()}")
    if result.threshold is not None:
        lines.append(f"# threshold: {_fmt(result.threshold)}")
    return _write_out("\n".join(lines) + "\n", args.out)


def cmd_sample(args) -> int:
    if args.samples < 100:
        print("samples must be >= 100", file=sys.stderr)
        return 2
    fraction, stderr = sampling.aus3_volume_estimate(
        args.samples, sampling.SeededGenerator(args.seed)
    )
    lines = [
        f"samples: {args.samples}",
        f"seed: {args.seed}",
        f"fraction: {_fmt(fraction)}",
        f"stderr: {_fmt(stderr)}",
    ]
    return _write_out("\n".join(lines) + "\n", args.out)


def cmd_verify(args) -> int:
    if args.trials < 1:
        print("trials must be >= 1", file=sys.stderr)
        return 2
    all_ok = True
    lines = []
    for name in ("maximality", "four_criteria", "steer_implies_teleport", "convexity"):
        try:
            # looked up at call time, so a wrapper installed on the module applies
            ok, margin = getattr(checks, name)(args.trials, args.seed)
        except InternalInconsistency as exc:
            ok, margin = False, np.inf
            lines.append(f"# {name}: {exc}")
        all_ok = all_ok and ok
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} (worst margin {_fmt(margin)})")
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return _write_out("\n".join(lines) + "\n", args.out) or (0 if all_ok else 1)


@functools.cache  # built on the first main() call; in-process callers share it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerability",
        description="Steering criteria for two-qubit states and their global-unitary orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one state file")
    p.add_argument("--in", dest="infile", required=True, help="JSON state file")
    p.add_argument("--out", default=None, help="write report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="threshold scan of a one-parameter family")
    p.add_argument("--family", required=True, help="werner or gisin")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", default=None, help="write curve file here instead of stdout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sample", help="Monte Carlo estimate of the orbit-safe volume")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print("seed must be >= 0", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
