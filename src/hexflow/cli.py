"""Command-line front end.

Exit codes: 0 success, 2 input problem (parse/validation) or an output
file that cannot be written, 3 inadmissible factor, 4 non-convergence
(step budget or stall), 5 Jacobian not positive definite, 6 target not
attainable.  Identical inputs and seed produce byte-identical outputs:
reductions are ordered and floats are written in shortest round-trip
decimal.  Output paths are checked before any work, so an output that is
a directory or lies in a missing directory exits 2 whatever the run would
have ended with, and a command leaves all of its output files or none.
A solve that exits 5 or 6 writes its log and last iterate like any other
run.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .conformal import (
    chain_global_jacobian,
    curvature_dump,
    fd_global_jacobian,
    global_jacobian,
    load_factor,
    sample_admissible,
    save_factor,
)
from .errors import (
    DomainError,
    HexflowError,
    JacobianNotPD,
    NotAdmissible,
    NotAttained,
    ParseError,
)
from .hexagon import (
    CornerAlpha,
    FaceEta,
    det_length_alpha_jacobian,
    diagonal_identity_residuals,
    length_jacobian_fd,
)
from .jsonio import check_writable, dump, dumps, floats, load, reprs, write
from .solve import (
    CONVERGED,
    JACOBIAN_NOT_PD,
    FlowConfig,
    NewtonConfig,
    run_flow,
    solve_prescribed,
)
from .tolerances import FD_SAMPLE_MARGIN
from .triangulation import check_structure_condition, load_surface
from .volume import PyramidChart, volume_grid

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INADMISSIBLE = 3
EXIT_NONCONVERGED = 4
EXIT_NOT_PD = 5
EXIT_NOT_ATTAINED = 6

# `hexflow volume` grids have at most this many ticks per axis (10^6 points).
VOLUME_MAX_TICKS = 100


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(data: dict, path: str | None) -> None:
    if path is None:
        print(dumps(data))
    else:
        dump(data, path, "curvature")


def _write_all(*outputs) -> None:
    """Call writer(path) for each (path, writer) whose path is set; when one
    fails, remove the files already written and re-raise, so that a command
    leaves all of its output files or none."""
    written = []
    try:
        for path, writer in outputs:
            if path:
                writer(path)
                written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def _load_target(path, n: int) -> np.ndarray:
    data = load(path, "target")
    if not isinstance(data, dict) or "K" not in data:
        raise ParseError(f"target file {path} must be an object with key 'K'")
    K = floats(data, "K", path, "target")
    if K.shape != (n,):
        got = f"{K.size} components" if K.ndim == 1 else f"shape {K.shape}"
        raise ParseError(f"target file {path} has {got}, surface has {n}")
    return K


def cmd_validate(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    violations = check_structure_condition(surface)
    print(
        f"surface: {surface.n_boundary} boundary components, "
        f"{len(surface.edge_ids)} edges, {len(surface.face_ids)} faces"
    )
    if violations:
        print("structure_condition: violated")
        for fid, label, value in violations:
            print(f"  face {fid}: {label} = {_fmt(value)}")
    else:
        print("structure_condition: holds")
    return EXIT_OK


def cmd_curvature(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    factor = load_factor(args.factors, surface.n_boundary)
    _write_json(curvature_dump(surface, factor), args.out)
    return EXIT_OK


def cmd_flow(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    factor = load_factor(args.factors, surface.n_boundary)
    Kbar = _load_target(args.target, surface.n_boundary)
    cfg = FlowConfig(
        method=args.method,
        s=args.s,
        dt0=args.dt0,
        tol=args.tol,
        max_steps=args.max_steps,
    )
    result, trace = run_flow(surface, factor, Kbar, cfg)
    _write_all((args.trace, lambda path: write(path, trace.to_csv(), "trace")),
               (args.out, lambda path: save_factor(result, path)))
    print(
        f"status={trace.status} steps={trace.last('step')} t={_fmt(trace.last('t'))} "
        f"resid_inf={_fmt(trace.last('resid_inf'))}"
    )
    if trace.status == CONVERGED:
        return EXIT_OK
    if trace.status == JACOBIAN_NOT_PD:
        return EXIT_NOT_PD
    return EXIT_NONCONVERGED


def cmd_solve(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    factor = load_factor(args.factors, surface.n_boundary)
    Kbar = _load_target(args.target, surface.n_boundary)
    cfg = NewtonConfig(tol=args.tol, max_iters=args.max_iters)
    stalled = None
    try:
        result, log = solve_prescribed(surface, factor, Kbar, cfg)
    except (JacobianNotPD, NotAttained) as exc:  # its log and last iterate explain the stop
        stalled, result, log = exc, exc.factor, exc.log
    _write_all((args.log, lambda path: write(path, log.to_csv(), "log")),
               (args.out, lambda path: save_factor(result, path)))
    if stalled is not None:
        raise stalled
    print(f"status={log.status} iters={log.last('iter')} "
          f"resid_inf={_fmt(log.last('resid_inf'))}")
    return EXIT_OK if log.status == CONVERGED else EXIT_NONCONVERGED


def cmd_jacobian_check(args) -> int:
    if args.samples < 1:
        raise DomainError("--samples must be at least 1")
    if args.seed < 0:
        raise DomainError("--seed must be non-negative")
    surface = load_surface(args.surface, strict=args.strict)
    rng = np.random.default_rng(args.seed)
    eta_zero = not surface.edge_etas.any()
    structure_ok = not check_structure_condition(surface)

    max_sym = 0.0
    min_eig = math.inf
    max_fd_dev = 0.0
    max_identity = 0.0
    max_det_dev = 0.0
    for _ in range(args.samples):
        factor = sample_admissible(surface, rng, margin=FD_SAMPLE_MARGIN)
        max_sym = max(max_sym, chain_global_jacobian(surface, factor).symmetry_residual())
        J = global_jacobian(surface, factor)
        min_eig = min(min_eig, J.min_eigenvalue())
        fd = fd_global_jacobian(surface, factor)
        dense = J.dense()
        scale = max(1.0, float(np.abs(dense).max()))
        max_fd_dev = max(max_fd_dev, float(np.abs(dense - fd).max()) / scale)
        for corners, etas in zip(surface.corners, surface.etas.tolist()):
            ca = CornerAlpha(*factor.alpha[corners])
            fe = FaceEta(*etas)
            det_closed = det_length_alpha_jacobian(ca, fe)
            det_fd = float(np.linalg.det(length_jacobian_fd(ca, fe)))
            max_det_dev = max(
                max_det_dev, abs(det_closed - det_fd) / max(1.0, abs(det_closed))
            )
            if eta_zero:
                res = diagonal_identity_residuals(ca, fe)
                max_identity = max(max_identity, max(abs(r) for r in res))

    print(f"samples={args.samples} seed={args.seed}")
    print(f"max_symmetry_residual={_fmt(max_sym)}")
    print(f"min_eigenvalue={_fmt(min_eig)}")
    print(f"max_fd_deviation={_fmt(max_fd_dev)}")
    print(f"max_det_deviation={_fmt(max_det_dev)}")
    if eta_zero:
        print(f"max_zero_weight_identity_residual={_fmt(max_identity)}")
    print(f"structure_condition={'holds' if structure_ok else 'violated'}")
    return EXIT_OK


def cmd_volume(args) -> int:
    step = args.grid_step
    if not 0.0 < step < math.inf:
        raise DomainError("--grid-step must be positive and finite")
    if (VOLUME_MAX_TICKS + 1) * step < 0.5 * math.pi:
        raise DomainError(f"--grid-step {step!r} gives over {VOLUME_MAX_TICKS} ticks per axis")
    eta = FaceEta(*args.eta)
    base = CornerAlpha(*args.base)
    chart = PyramidChart(eta=eta, base_alpha=base)

    ticks = []
    k = 1
    while k * step < 0.5 * math.pi:
        ticks.append(k * step)
        k += 1
    grid = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    # the base is row 0, which the chart admitted; the inadmissible points are skipped
    points, volumes, eigs = volume_grid(chart, np.vstack((base.as_tuple(), grid)))
    table = np.column_stack((points, volumes, eigs[:, 0], eigs[:, -1]))
    rows = map(",".join, reprs(table))
    lines = ["alpha_i,alpha_j,alpha_k,volume,hess_eig_min,hess_eig_max", *rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        write(args.out, text, "volume")
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache  # built on the first call, then shared by every main()
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexflow",
        description=(
            "Discrete conformal structures on ideally triangulated surfaces "
            "with boundary: boundary-length curvature, curvature flows, "
            "prescribed-length solving and hexagon-pyramid volumes."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"hexflow {__version__} (format v1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_strict(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument(
            "--strict", dest="strict", action="store_true", default=True,
            help="reject faces with repeated corners (default)",
        )
        g.add_argument(
            "--allow-repeated", dest="strict", action="store_false",
            help="admit faces whose corners repeat a boundary component",
        )

    p = sub.add_parser("validate", help="validate a surface file and report the structure condition")
    p.add_argument("surface")
    add_strict(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curvature", help="boundary lengths, Jacobian and margins for a factor")
    p.add_argument("surface")
    p.add_argument("factors")
    p.add_argument("--out", help="write JSON here instead of stdout")
    add_strict(p)
    p.set_defaults(func=cmd_curvature, outputs={"out": "curvature"})

    p = sub.add_parser("flow", help="integrate a curvature flow toward target boundary lengths")
    p.add_argument("surface")
    p.add_argument("factors")
    p.add_argument("target", help="JSON file with key 'K'")
    p.add_argument("--method", choices=("ricci", "calabi", "fractional"), default="ricci")
    p.add_argument("--s", type=float, default=0.5, help="fractional order (fractional method only)")
    p.add_argument("--dt0", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--trace", help="write the accepted-step trace CSV here")
    p.add_argument("--out", help="write the final factor JSON here")
    add_strict(p)
    p.set_defaults(func=cmd_flow, outputs={"trace": "trace", "out": "factor"})

    p = sub.add_parser("solve", help="Newton solve for a factor with prescribed boundary lengths")
    p.add_argument("surface")
    p.add_argument("factors")
    p.add_argument("target", help="JSON file with key 'K'")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out", help="write the solution factor JSON here")
    p.add_argument("--log", help="write the iterate log CSV here")
    add_strict(p)
    p.set_defaults(func=cmd_solve, outputs={"log": "log", "out": "factor"})

    # no abbreviations: "--h" would otherwise abbreviate --help and exit 0
    p = sub.add_parser("jacobian-check", allow_abbrev=False,
                       help="sample admissible factors and report Jacobian residuals")
    p.add_argument("surface")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_strict(p)
    p.set_defaults(func=cmd_jacobian_check)

    p = sub.add_parser("volume", help="tabulate pyramid volume and Hessian eigenvalues on an angle grid")
    p.add_argument("--eta", type=float, nargs=3, required=True, metavar=("E_IJ", "E_IK", "E_JK"))
    p.add_argument("--base", type=float, nargs=3, required=True, metavar=("A_I", "A_J", "A_K"))
    p.add_argument("--grid-step", type=float, default=math.pi / 60)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_volume, outputs={"out": "volume"})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every output path (option dest -> kind of file) is checked before any work
        for dest, kind in getattr(args, "outputs", {}).items():
            if path := getattr(args, dest):
                check_writable(path, kind)
        return args.func(args)
    except NotAdmissible as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        if exc.report is not None:
            for eid, m in zip(exc.report.edge_ids, exc.report.margins):
                print(f"  edge {eid}: margin {_fmt(m)}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except JacobianNotPD as exc:
        print(f"jacobian not positive definite: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except NotAttained as exc:
        print(f"not attained: {exc}", file=sys.stderr)
        return EXIT_NOT_ATTAINED
    except HexflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
