"""Command-line interface.

Exit codes: 0 success, 1 validation or parse error (including usage
errors), 2 internal invariant breach.  The environment variable
``GME_SEED`` sets the default seed; an explicit ``--seed`` wins.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import stat
import sys
from pathlib import Path

from . import __version__
# all_cut_concurrences and marginal_cuts are unused here; the benchmark
# (perfbench/tracing.py) wraps them by name as attributes of this module.
from .classify import DEFAULT_TOL, Factorization, finest_factorization, \
    marginal_cuts
from .concurrence import all_cut_concurrences, check_polygamy
from .errors import InternalInvariantError, TrigmeError, ValidationError
from .mixed import ConvexRoofConfig, _spectrum, convex_roof_upper_bound, \
    witness
from .reporting import AnalysisReport, _subsets_text, canonical_json, \
    emit_report
from .selftest import run_selftest
from .states import PureState, haar_random_pure
from .stateio import parse_state_file, render_state_document
from .triangles import EdgeConvention, f_total

LOAD_TOL = 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("GME_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"GME_SEED must be an integer, got {raw!r}") from None


def _seed(explicit: int | None) -> int:
    seed = _default_seed() if explicit is None else explicit
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def _tolerance(tol: float) -> float:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(
            f"--tol must be a positive finite number, got {tol:g}")
    return tol


def _convention(name: str | None) -> EdgeConvention:
    return EdgeConvention(name) if name else EdgeConvention.CONCURRENCE


def _digest(path) -> str:
    """sha256 of a document, read again after parsing: only a regular
    file still holds the parsed bytes, a pipe would hash nothing."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ValidationError(f"{path}: not a regular file, so its "
                                  "input digest cannot be read")
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise TrigmeError(f"{path}: {exc.strerror or exc}") from exc


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"--dims must be comma-separated integers, "
                              f"got {text!r}") from None
    if not dims or any(d < 2 for d in dims):
        raise ValidationError(f"--dims entries must be >= 2, got {text!r}")
    return dims


def _as_pure(state, notices: list[str]) -> PureState:
    """Pass through pure states; project rank-1 mixed inputs."""
    spec = _spectrum(state)
    if spec.pure is None:
        raise ValidationError(
            f"input is mixed with second eigenvalue {spec.values[1]:.3e} > "
            f"tolerance {spec.cut:g}; use the witness or convex-roof commands")
    if spec.pure is not state:
        notices.append(
            f"rank-1 mixed input projected to its dominant eigenvector "
            f"(second eigenvalue {spec.values[1]:.3e})")
    return spec.pure


def _factorized(ns) -> tuple[float, PureState, Factorization, list[str]]:
    """The front of analyze and classify: load the document at ``--tol``,
    project a rank-1 mixed input, then factorize with product cuts at
    max(``--tol``, 1e-6).  The factorization comes first: it refuses
    oversized states before any other table is built."""
    tol = _tolerance(ns.tol)
    notices: list[str] = []
    psi = _as_pure(parse_state_file(ns.file, tol=tol), notices)
    return (tol, psi, finest_factorization(psi, tol=max(tol, DEFAULT_TOL)),
            notices)


def _cmd_analyze(ns) -> int:
    tol, psi, factorization, notices = _factorized(ns)
    report = AnalysisReport(
        input_digest=_digest(ns.file),
        tolerance=tol,
        seed=_seed(None),
        gme=f_total(psi, _convention(ns.convention)),
        factorization=factorization,
        notices=tuple(notices),
    )
    sys.stdout.write(emit_report(report, ns.json))
    return 0


def _cmd_witness(ns) -> int:
    tol = _tolerance(ns.tol)
    state = parse_state_file(ns.file, tol=tol)
    convs = ([EdgeConvention(ns.convention)] if ns.convention
             else list(EdgeConvention))
    results = {conv: witness(state, conv) for conv in convs}
    first = next(iter(results.values()))
    if ns.json:
        payload = {
            "tool_version": __version__,
            "input_digest": _digest(ns.file),
            "witness": {conv.value: r.value for conv, r in results.items()},
            "purification_rank": first.purification_rank,
            "pure_state_bypass": first.pure_state_bypass,
            "verdict": first.verdict,
        }
        sys.stdout.write(canonical_json(payload))
    else:
        for conv, r in results.items():
            sys.stdout.write(f"witness ({conv.value}): {r.value:.10g}\n")
        sys.stdout.write(f"purification rank: {first.purification_rank}\n")
        if first.pure_state_bypass:
            sys.stdout.write("note: rank-1 input scored directly "
                             "(pure-state bypass)\n")
        sys.stdout.write(f"verdict: {first.verdict}\n")
    return 0


def _cmd_convex_roof(ns) -> int:
    state = parse_state_file(ns.file, tol=_tolerance(ns.tol))
    seed = _seed(ns.seed)
    sizes = None if ns.ensemble_size is None else (ns.ensemble_size,)
    config = ConvexRoofConfig(ensemble_sizes=sizes, restarts=ns.restarts,
                              seed=seed)
    digest = _digest(ns.file) if ns.json else None  # refuse before the search
    result = convex_roof_upper_bound(state, config=config)
    weights = [p for p, _ in result.decomposition.members]
    if ns.json:
        payload = {
            "tool_version": __version__,
            "input_digest": digest,
            "convention": result.convention.value,
            "upper_bound": result.value,
            "spectral_value": result.spectral_value,
            "ensemble_weights": weights,
            "restarts": ns.restarts,
            "seed": seed,
        }
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write(
            f"convex-roof upper bound ({result.convention.value}): "
            f"{result.value:.10g}\n"
            f"spectral ensemble value: {result.spectral_value:.10g}\n"
            f"ensemble size: {len(weights)}  weights: "
            + " ".join(f"{w:.6f}" for w in weights)
            + f"\nseed: {seed}  restarts: {ns.restarts}\n")
    return 0


def _cmd_classify(ns) -> int:
    _, _, fact, notices = _factorized(ns)
    factors = _subsets_text(fact.factors)
    for notice in notices:
        sys.stdout.write(f"note: {notice}\n")
    sys.stdout.write(f"factors: {factors}\n")
    sys.stdout.write("GME\n" if fact.is_gme else "not GME\n")
    for cut in fact.marginal_cuts:
        sys.stdout.write(f"marginal cut (within 10x of tolerance): "
                         f"{cut.label()}\n")
    return 0


def _cmd_random(ns) -> int:
    dims = _parse_dims(ns.dims)
    seed = _seed(ns.seed)
    psi = haar_random_pure(dims, seed)
    text = render_state_document(psi, {"generator": "haar", "seed": seed})
    if ns.out:
        try:
            Path(ns.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise TrigmeError(f"{ns.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check_inequalities(ns) -> int:
    dims = _parse_dims(ns.dims)
    if len(dims) < 3:
        raise ValidationError("--dims needs at least 3 parties")
    if ns.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {ns.trials}")
    seed = _seed(ns.seed)
    worst = float("inf")
    failures = 0
    for k in range(ns.trials):
        rep = check_polygamy(haar_random_pure(dims, seed + k))
        worst = min(worst, rep.min_slack)
        if not rep.all_hold:
            failures += 1
    sys.stdout.write(
        f"dims: {'x'.join(str(d) for d in dims)}  trials: {ns.trials}  "
        f"seed: {seed}\nmin slack: {worst:.6e}\n")
    if failures:
        sys.stdout.write(f"VIOLATIONS: {failures} of {ns.trials} states\n")
        return 2
    sys.stdout.write("all inequalities hold\n")
    return 0


def _cmd_selftest(ns) -> int:
    return 0 if run_selftest(sys.stdout) else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="trigme",
                     description="Concurrence-triangle GME measures")
    parser.add_argument("--version", action="version",
                        version=f"trigme {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    conv_kw = dict(choices=[c.value for c in EdgeConvention],
                   help="triangle edge convention (default: concurrence)")

    p = sub.add_parser("analyze", help="full pure-state GME report")
    p.add_argument("file")
    p.add_argument("--convention", **conv_kw)
    p.add_argument("--tol", type=float, default=LOAD_TOL,
                   help="load/validation tolerance; also sets the "
                        "product-cut threshold when above 1e-6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("witness", help="purification witness for a "
                                       "mixed state")
    p.add_argument("file")
    p.add_argument("--convention", **conv_kw)
    p.add_argument("--tol", type=float, default=LOAD_TOL,
                   help="load/validation tolerance; eigenvalues at or "
                        "below it (or 1e-9) do not count toward the rank")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("convex-roof", help="convex-roof upper bound")
    p.add_argument("file")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int)
    p.add_argument("--ensemble-size", type=int,
                   help="fixed decomposition size (default: rank .. rank+2)")
    p.add_argument("--tol", type=float, default=LOAD_TOL,
                   help="load/validation tolerance; eigenvalues at or "
                        "below it (or 1e-9) do not count toward the rank")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_convex_roof)

    p = sub.add_parser("classify", help="finest separability factorization")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=LOAD_TOL)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("random", help="write a Haar-random state document")
    p.add_argument("--dims", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("check-inequalities",
                       help="polygamy inequality campaign on Haar samples")
    p.add_argument("--dims", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_check_inequalities)

    p = sub.add_parser("selftest", help="full property campaign")
    p.set_defaults(handler=_cmd_selftest)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every ``run_command`` in this process, built on first
    use; parsing reads it and never changes it."""
    return build_parser()


def run_command(argv) -> int:
    parser = _shared_parser()
    try:
        ns = parser.parse_args(list(argv))
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"trigme: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help/--version
        return int(exc.code or 0)
    try:
        return ns.handler(ns)
    except InternalInvariantError as exc:
        print(f"trigme: internal invariant breach: {exc}", file=sys.stderr)
        return 2
    except (TrigmeError, MemoryError) as exc:
        print(f"trigme: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
