"""Command-line front end.

Exit codes: 0 success, 2 input problem (parse/validation), 3 inadmissible
factor, 4 non-convergence (step budget or stall), 5 Jacobian not positive
definite, 6 target not attainable.  Identical inputs and seed produce
byte-identical outputs: reductions are ordered and floats are written in
shortest round-trip decimal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .conformal import (
    curvature_dump,
    fd_global_jacobian,
    global_jacobian,
    load_factor,
    sample_admissible,
    save_factor,
)
from .errors import (
    HexflowError,
    JacobianNotPD,
    NotAdmissible,
    NotAttained,
    ParseError,
    ValidationError,
)
from .hexagon import (
    CornerAlpha,
    FaceEta,
    det_length_alpha_jacobian,
    diagonal_identity_residuals,
    edge_length_alpha,
    face_metric,
)
from .solve import (
    CONVERGED,
    FlowConfig,
    NewtonConfig,
    run_flow,
    solve_prescribed,
)
from .triangulation import check_structure_condition, load_surface
from .volume import PyramidChart, relative_volume, volume_hessian

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INADMISSIBLE = 3
EXIT_NONCONVERGED = 4
EXIT_NOT_PD = 5
EXIT_NOT_ATTAINED = 6


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=1)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_target(path, n: int) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read target file {path}: {exc}") from exc
    if not isinstance(data, dict) or "K" not in data:
        raise ParseError(f"target file {path} must be an object with key 'K'")
    K = np.asarray(data["K"], dtype=float)
    if K.shape != (n,):
        raise ParseError(f"target has {K.size} components, surface has {n}")
    return K


def cmd_validate(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    violations = check_structure_condition(surface)
    print(
        f"surface: {surface.n_boundary} boundary components, "
        f"{len(surface.edges)} edges, {len(surface.faces)} faces"
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
    dump = curvature_dump(surface, factor)
    _write_json(dump, args.out)
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
    if args.trace:
        trace.write_csv(args.trace)
    if args.out:
        save_factor(result, args.out)
    last = trace.rows[-1]
    print(
        f"status={trace.status} steps={last[0]} t={_fmt(last[1])} "
        f"resid_inf={_fmt(last[3])}"
    )
    if trace.status == CONVERGED:
        return EXIT_OK
    if trace.status == "JacobianNotPD":
        return EXIT_NOT_PD
    return EXIT_NONCONVERGED


def cmd_solve(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    factor = load_factor(args.factors, surface.n_boundary)
    Kbar = _load_target(args.target, surface.n_boundary)
    cfg = NewtonConfig(tol=args.tol, max_iters=args.max_iters)
    result, log = solve_prescribed(surface, factor, Kbar, cfg)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(log.to_csv())
    if args.out:
        save_factor(result, args.out)
    last = log.rows[-1]
    print(f"status={log.status} iters={last[0]} resid_inf={_fmt(last[1])}")
    return EXIT_OK if log.status == CONVERGED else EXIT_NONCONVERGED


def cmd_jacobian_check(args) -> int:
    surface = load_surface(args.surface, strict=args.strict)
    rng = np.random.default_rng(args.seed)
    eta_zero = all(e.eta == 0.0 for e in surface.edges)
    structure_ok = not check_structure_condition(surface)

    max_sym = 0.0
    min_eig = math.inf
    max_fd_dev = 0.0
    max_identity = 0.0
    max_det_dev = 0.0
    for _ in range(args.samples):
        factor = sample_admissible(surface, rng, margin=args.margin)
        J_chain = global_jacobian(surface, factor, blocks="chain")
        max_sym = max(max_sym, J_chain.symmetry_residual())
        J = global_jacobian(surface, factor)
        min_eig = min(min_eig, J.min_eigenvalue())
        fd = fd_global_jacobian(surface, factor, h=args.h)
        dense = J.dense()
        scale = max(1.0, float(np.abs(dense).max()))
        max_fd_dev = max(max_fd_dev, float(np.abs(dense - fd).max()) / scale)
        for f in surface.faces:
            ca = CornerAlpha(*(factor.alpha[c] for c in f.corners))
            fe = FaceEta(*surface.face_etas(f))
            m = face_metric(ca, fe)
            det_closed = det_length_alpha_jacobian(ca, fe, m)
            fd_face = _fd_length_jacobian(ca, fe, args.h)
            det_fd = float(np.linalg.det(fd_face))
            max_det_dev = max(
                max_det_dev, abs(det_closed - det_fd) / max(1.0, abs(det_closed))
            )
            if eta_zero:
                res = diagonal_identity_residuals(ca, fe, m)
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


def _fd_length_jacobian(alpha: CornerAlpha, eta: FaceEta, h: float) -> np.ndarray:
    def lengths(a):
        return np.array(
            [
                edge_length_alpha(a[0], a[1], eta.e_ij),
                edge_length_alpha(a[0], a[2], eta.e_ik),
                edge_length_alpha(a[1], a[2], eta.e_jk),
            ]
        )

    base = list(alpha.as_tuple())
    cols = []
    for t in range(3):
        hi, lo = list(base), list(base)
        hi[t] += h
        lo[t] -= h
        cols.append((lengths(hi) - lengths(lo)) / (2.0 * h))
    return np.column_stack(cols)


def cmd_volume(args) -> int:
    eta = FaceEta(*args.eta)
    base = CornerAlpha(*args.base)
    chart = PyramidChart(eta=eta, base_alpha=base)

    lines = ["alpha_i,alpha_j,alpha_k,volume,hess_eig_min,hess_eig_max"]

    def emit(a: CornerAlpha, H: np.ndarray) -> None:
        V = relative_volume(chart, a)
        eig = np.linalg.eigvalsh(H)
        lines.append(
            ",".join(
                [_fmt(a.a_i), _fmt(a.a_j), _fmt(a.a_k), _fmt(V), _fmt(eig[0]), _fmt(eig[-1])]
            )
        )

    emit(base, volume_hessian(chart, base))
    step = args.grid_step
    ticks = []
    k = 1
    while k * step < 0.5 * math.pi:
        ticks.append(k * step)
        k += 1
    for a_i in ticks:
        for a_j in ticks:
            for a_k in ticks:
                try:
                    a = CornerAlpha(a_i, a_j, a_k)
                    H = volume_hessian(chart, a)  # raises off the admissible set
                except HexflowError:
                    continue
                emit(a, H)

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


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
    p.set_defaults(func=cmd_curvature)

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
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("solve", help="Newton solve for a factor with prescribed boundary lengths")
    p.add_argument("surface")
    p.add_argument("factors")
    p.add_argument("target", help="JSON file with key 'K'")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out", help="write the solution factor JSON here")
    p.add_argument("--log", help="write the iterate log CSV here")
    add_strict(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("jacobian-check", help="sample admissible factors and report Jacobian residuals")
    p.add_argument("surface")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-6, help="finite-difference step")
    # interior default: the FD oracle degrades near the polytope facets
    p.add_argument("--margin", type=float, default=1e-2, help="sampling inset margin")
    add_strict(p)
    p.set_defaults(func=cmd_jacobian_check)

    p = sub.add_parser("volume", help="tabulate pyramid volume and Hessian eigenvalues on an angle grid")
    p.add_argument("--eta", type=float, nargs=3, required=True, metavar=("E_IJ", "E_IK", "E_JK"))
    p.add_argument("--base", type=float, nargs=3, required=True, metavar=("A_I", "A_J", "A_K"))
    p.add_argument("--grid-step", type=float, default=math.pi / 60)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_volume)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
