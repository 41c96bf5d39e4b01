"""Command-line front end.

Subcommands: ``info`` (surface invariants and the boundary enumeration),
``op`` (one of the five edge operations), ``twosum``, ``tensor``, ``poly``
(any of the polynomial invariants as canonical text), and ``verify``
(pointwise exact checking of the tensor-product identities).

Only the modules that reading and writing a presentation file needs load
with this one; ``poly`` imports the polynomial engines and ``verify`` the
verifier when they run, so no other command pays for them at start-up.

Exit codes: 0 success / verification passed, 1 verification found a
counterexample, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arrow import boundary_components, surface_stats
from .errors import RibbonTensorError
from .files import dumps_presentation, loads_presentation
from .packaged import Coupling, EdgeOpKind, apply_edge_op, two_sum, uniform_tensor

_SLOT = {0: "t", 1: "h"}


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RibbonTensorError(f"cannot read {path}: {exc}") from None
    return loads_presentation(text)


def _write(path, pg):
    text = dumps_presentation(pg)
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise RibbonTensorError(f"cannot write {path}: {exc}") from None


def _cmd_info(args) -> int:
    pg = _read(args.file)
    stats = surface_stats(pg.ap)
    print(
        f"v={stats.v} e={stats.e} k={stats.k} b={stats.b} genus={stats.euler_genus} "
        f"orientable={'yes' if stats.orientable else 'no'}"
    )
    print(
        f"vertex_classes={len(pg.vparts)} boundary_classes={len(pg.bparts)}"
    )
    for bd in boundary_components(pg.ap):
        if bd.circle is not None:
            print(f"boundary {bd.id}: bare circle {bd.circle}")
        else:
            tokens = " ".join(f"{c}.{p}{_SLOT[s]}" for c, p, s in bd.crossings)
            print(f"boundary {bd.id}: {tokens}")
    return 0


def _cmd_op(args) -> int:
    pg = _read(args.file)
    kind = EdgeOpKind(args.kind)
    _write(args.out, apply_edge_op(pg, args.edge, kind))
    return 0


def _parse_coupling(spec: str) -> Coupling:
    parts = spec.split(":")
    if len(parts) != 3 or parts[2] not in ("straight", "swap"):
        raise RibbonTensorError(
            f"bad coupling {spec!r}, expected 'f:e:straight' or 'f:e:swap'"
        )
    return Coupling(parts[0], parts[1], parts[2] == "swap")


def _cmd_twosum(args) -> int:
    pg = _read(args.file_g)
    ph = _read(args.file_h)
    _write(args.out, two_sum(pg, ph, _parse_coupling(args.coupling)))
    return 0


def _cmd_tensor(args) -> int:
    pg = _read(args.file_g)
    ph = _read(args.file_h)
    mode = args.coupling_mode
    if mode == "straight":
        swaps = {}
    elif mode == "swap":
        swaps = {f: True for f in pg.ap.edges}
    elif mode.startswith("random:"):
        import random

        try:
            rng = random.Random(int(mode.split(":", 1)[1]))
        except ValueError:
            raise RibbonTensorError(f"bad coupling mode {mode!r}: SEED must be an integer") from None
        swaps = {f: rng.random() < 0.5 for f in sorted(pg.ap.edges)}
    else:
        raise RibbonTensorError(
            f"bad coupling mode {mode!r}, expected straight|swap|random:SEED"
        )
    _write(args.out, uniform_tensor(pg, ph, args.edge, swaps))
    return 0


# Each polynomial the ``poly`` command computes, from the ``polynomials``
# module and the packaged presentation read.  ``_cmd_poly`` imports the
# module when it runs, so no other command loads it, and each entry looks its
# functions up on the module when called, so a rebinding of the module's
# names (the benchmark's tracer) is seen.
_POLYS = {
    "q": lambda m, pg: m.q_poly(pg),
    "qmv": lambda m, pg: m.q_multivariate(pg),
    "z": lambda m, pg: m.z_poly(pg),
    "zhat": lambda m, pg: m.zhat_poly(pg),
    "qhat": lambda m, pg: m.qhat_poly(pg),
    "transition": lambda m, pg: m.transition_poly(pg.ap),
    "mvbr": lambda m, pg: m.mv_br_poly(pg.ap),
    "br": lambda m, pg: m.br_poly(pg.ap),
    "tutte": lambda m, pg: m.tutte_poly(m.graph_of_presentation(pg.ap)),
    "zdot": lambda m, pg: m.zdot_tutte(m.graph_of_presentation(pg.ap)),
}


def _cmd_poly(args) -> int:
    from . import poly, polynomials

    which = args.which
    p = _POLYS[which](polynomials, _read(args.file))
    text = poly.to_canonical_string(p)
    if args.format == "json":
        print(json.dumps({"which": which, "polynomial": text}))
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    from . import tensor_formula

    try:
        kind = tensor_formula.TheoremKind(args.theorem)
    except ValueError:
        raise RibbonTensorError(
            f"unknown theorem {args.theorem!r}; choose from "
            + ", ".join(k.value for k in tensor_formula.TheoremKind)
        ) from None
    report = tensor_formula.run_verification(
        kind, seed=args.seed, instances=args.instances, points=args.points
    )
    if args.format == "json":
        payload = {
            "theorem": report.kind,
            "seed": report.seed,
            "instances": report.instances,
            "points": report.points,
            "comparisons": report.comparisons,
            "resampled": report.resampled,
            "result": "pass" if report.ok else "fail",
            "elapsed_s": round(report.elapsed, 3),
            "failures": [
                {
                    "instance": f.instance,
                    "point": f.point,
                    "comparisons": [list(c) for c in f.comparisons],
                }
                for f in report.failures
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"theorem={report.kind} seed={report.seed} instances={report.instances} "
            f"points={report.points} comparisons={report.comparisons} "
            f"resampled={report.resampled}"
        )
        for f in report.failures:
            print(f"FAIL instance={f.instance}")
            print(f"     point={f.point}")
            for name, lhs, rhs in f.comparisons:
                print(f"     {name}: lhs={lhs} rhs={rhs}")
        print(
            f"result={'PASS' if report.ok else 'FAIL'} elapsed={report.elapsed:.2f}s"
        )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbontensor",
        description="Arrow presentations, their edge surgery and tensor products, "
        "and the associated topological Tutte polynomials (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="surface invariants and boundary enumeration")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("op", help="apply one edge operation")
    p.add_argument("file")
    p.add_argument("edge")
    p.add_argument(
        "kind", choices=[k.value for k in EdgeOpKind], help="operation to apply"
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("twosum", help="2-sum two presentation files")
    p.add_argument("file_g")
    p.add_argument("file_h")
    p.add_argument("--coupling", required=True, help="f:e:straight or f:e:swap")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_twosum)

    p = sub.add_parser("tensor", help="tensor a factor onto every edge")
    p.add_argument("file_g")
    p.add_argument("file_h")
    p.add_argument("--edge", required=True, help="coupled edge of the factor")
    p.add_argument(
        "--coupling-mode",
        default="straight",
        help="straight | swap | random:SEED (per-edge seeded couplings)",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("poly", help="compute a polynomial invariant")
    p.add_argument("file")
    p.add_argument(
        "--which",
        required=True,
        choices=list(_POLYS),
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("verify", help="verify a tensor-product identity")
    p.add_argument("theorem")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instances", type=int, default=30)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except RibbonTensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed early.  Point stdout at the null device so the
        # flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was all written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
