"""Command-line front end.

Subcommands: euler, bezout, basis, point-table, verify.
Exit codes: 0 ok, 1 verification failure, 2 usage or parse error (a
bad `verify --groups` name or `--sweep-config` file included), 3 kernel
or resource failure (an error, not a verdict).
"""

from __future__ import annotations

import argparse
import sys

from . import bundles as bd
from . import point as pt
from . import projective as pj
from . import render
from . import schubert as sb

# json, and verify (the sweep harness), are imported only by the commands
# that use them, so that a one-shot euler, bezout, basis or point-table
# loads neither.


class _UsageError(Exception):
    pass


def _print_json(payload) -> None:
    import json
    print(json.dumps(payload, indent=2))


def _ambient(args) -> pj.Ambient:
    try:
        return pj.ambient(args.p, args.q)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_sum(args) -> bd.BundleSum:
    try:
        specs = bd.parse_bundles(args.bundles)
    except bd.BundleParseError as exc:
        raise _UsageError(f"cannot parse bundle list: {exc}") from None
    return bd.BundleSum((args.p, args.q), specs)


def cmd_euler(args) -> int:
    amb = _ambient(args)
    bs = _parse_sum(args)
    product = bd.euler_product(amb, bs)
    inv = bd.bundle_invariants(bs)
    closed = bd.euler_closed_form(amb, inv) if inv.context_ok else None
    agrees = None if closed is None else closed == product
    if args.format == "json":
        payload = {
            "p": args.p, "q": args.q, "bundles": bs.token(),
            "degree": None if product.is_zero() else list(product.degree()),
            "product": render.proj_json(product),
            "closed_form": None if closed is None else render.proj_json(closed),
            "agrees": agrees,
            "context_violations": list(inv.context_violations),
        }
        _print_json(payload)
        return 0
    latex = args.format == "latex"
    print(f"e(F) product     = {render.proj_text(product, latex)}")
    if closed is not None:
        print(f"e(F) closed form = {render.proj_text(closed, latex)}")
        print("AGREES with product" if agrees else "DISAGREES with product")
        return 0 if agrees else 1
    for v in inv.context_violations:
        print(f"context warning: {v} (closed form skipped)")
    return 0


def cmd_bezout(args) -> int:
    amb = _ambient(args)
    bs = _parse_sum(args)
    inv = bd.bundle_invariants(bs)
    if not inv.context_ok:
        raise _UsageError("context violated: " + "; ".join(inv.context_violations))
    exp = sb.bezout_expansion(inv)
    cls = sb.expansion_class(exp, amb)
    product = bd.euler_product(amb, bs)
    if args.format == "json":
        payload = {
            "p": args.p, "q": args.q, "bundles": bs.token(),
            "notation": args.notation,
            "expansion": render.expansion_json(exp, amb),
            "rendered": render.expansion_text(exp, amb, args.notation),
            "class": render.proj_json(cls),
            "agrees_with_product": cls == product,
        }
        _print_json(payload)
        return 0 if cls == product else 1
    latex = args.format == "latex"
    print(f"e(F) = {render.expansion_text(exp, amb, args.notation, latex)}")
    print(f"     = {render.proj_text(cls, latex)}")
    if cls != product:
        print("INTERNAL ERROR: expansion disagrees with the product oracle")
        return 1
    return 0


def cmd_basis(args) -> int:
    amb = _ambient(args)
    basis = amb.basis(args.m)
    if args.format == "json":
        payload = [{"monomial": list(mono),
                    "degree": list(pj.mono_degree_pib(mono))}
                   for mono in basis]
        _print_json(payload)
        return 0
    latex = args.format == "latex"
    names = [render.mono_text(mono, latex) for mono in basis]
    print(", ".join(names))
    if args.diagram:
        _print_basis_diagram(basis, args.m)
    return 0


def _print_basis_diagram(basis, m: int) -> None:
    pts = {(cw - z0, ccw + z0) for z0, _, cw, ccw in basis}
    avals, bvals = zip(*pts, (0, 0))   # the window holds the origin
    print(f"basis of coset m={m}, dot at (a,b) for degree m(omega-2)+2a+2b sigma")
    for b in range(max(bvals), min(bvals) - 1, -1):
        row = []
        for a in range(min(avals), max(avals) + 1):
            if (a, b) in pts:
                row.append("*")
            elif a == 0 and b == 0:
                row.append("+")
            else:
                row.append(".")
        print(" ".join(row))


def cmd_point_table(args) -> int:
    try:
        census = pt.point_census(args.window)
    except ValueError as exc:  # a window outside 0..WINDOW_MAX
        raise _UsageError(str(exc)) from None
    rows = []
    for (a, b), syms in sorted(census.items()):
        gens = [render.point_text(pt.p_sym(s)) for s in sorted(syms)]
        rows.append((a, b, pt.point_group(syms), gens))
    if args.format == "json":
        payload = [{"degree": [a, b], "group": group, "generators": gens}
                   for a, b, group, gens in rows]
        _print_json(payload)
        return 0
    for a, b, group, gens in rows:
        print(f"degree {a:+d}{b:+d}sigma : {group:5s} <{', '.join(gens)}>")
    return 0


def _sweep_config(path: str):
    """The verify.SweepConfig read from a JSON file."""
    import json

    from . import verify as vf
    try:
        with open(path) as fh:
            return vf.SweepConfig.from_json(json.load(fh))
    except OSError as exc:
        raise _UsageError(f"cannot read sweep config: {exc}") from None
    except (ValueError, TypeError) as exc:  # bad JSON, keys or bounds
        detail = " ".join(str(exc).split())
        raise _UsageError(f"bad sweep config {path}: {detail}") from None


def cmd_verify(args) -> int:
    from . import verify as vf
    cfg = _sweep_config(args.sweep_config) if args.sweep_config else vf.SweepConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.include_negative_degrees:
        cfg.include_negative_degrees = True
    groups = tuple(args.groups.split(",")) if args.groups is not None else None
    try:
        report = vf.run_verify(cfg, groups=groups)
    except ValueError as exc:  # an unknown group; the groups catch their own
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(vf.report_text(report))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="c2bezout",
        description="Exact equivariant Euler classes and Bezout expansions "
                    "over finite projective spaces with involution.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_pq(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)

    def add_fmt(sp):
        sp.add_argument("--format", choices=("text", "latex", "json"),
                        default="text")

    sp = sub.add_parser("euler", help="Euler class of a sum of line bundles")
    add_pq(sp)
    sp.add_argument("--bundles", required=True,
                    help='comma-separated, e.g. "O(3),O(2),xO(1)"')
    add_fmt(sp)
    sp.set_defaults(fn=cmd_euler)

    sp = sub.add_parser("bezout", help="expansion into Schubert classes")
    add_pq(sp)
    sp.add_argument("--bundles", required=True)
    sp.add_argument("--notation", choices=("dim", "codim"), default="dim")
    add_fmt(sp)
    sp.set_defaults(fn=cmd_bezout)

    sp = sub.add_parser("basis", help="free module basis of one coset")
    add_pq(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--diagram", action="store_true",
                    help="text dot diagram of the basis degrees")
    add_fmt(sp)
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("point-table", help="groups of the point ring")
    sp.add_argument("--window", type=int, default=8)
    add_fmt(sp)
    sp.set_defaults(fn=cmd_point_table)

    sp = sub.add_parser("verify", help="run the identity sweep")
    sp.add_argument("--sweep-config", help="path to a JSON sweep config")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--include-negative-degrees", action="store_true")
    sp.add_argument("--groups", help="comma-separated check groups to run")
    add_fmt(sp)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (_UsageError, bd.ContextViolation, pt.OutsideSupportedSubring) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (pj.KernelError, RecursionError, MemoryError, ArithmeticError) as exc:
        detail = " ".join(str(exc).split())  # one line
        print(f"error: {type(exc).__name__}" + (f": {detail}" if detail else ""),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
