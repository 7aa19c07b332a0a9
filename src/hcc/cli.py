"""Command-line front end.

Subcommands: ``omega`` (coefficient/pi tables and the inequality suite),
``ring`` (filtration profile of a finite group), ``present`` (complex
summary and optional normalization), ``cover`` (build a cover, Betti
numbers, total-Betti verdict), ``bounds`` (lower-bound report, optionally
compared against the exact cover), ``iterate`` (homology growth), and
``selfcheck`` (the full invariant suite).

Exit codes: 0 success, 1 input error, 2 falsification (a theorem-level
invariant violated by computed data; the offending instance is printed).
Output is deterministic: JSON by default, TSV for tables via
``--format tsv``; integers above 2^53 are serialized as strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import bounds, covers, fpexact, groupring, omega, presentations, selfcheck
from .errors import FalsificationError

__all__ = ["main"]

_BIG = 1 << 53


class _InputError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for falsification
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _stringify_big(value: Any) -> Any:
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _BIG else value
    if isinstance(value, (list, tuple)):
        return [_stringify_big(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify_big(v) for k, v in value.items()}
    return value


def _emit_json(payload: dict, out) -> None:
    out.writelines(json.JSONEncoder(indent=2).iterencode(_stringify_big(payload)))  # no joined copy
    out.write("\n")


def _emit_tsv(header: list[str], rows: list[list[Any]], out) -> None:
    out.write("\t".join(header) + "\n")
    for row in rows:
        out.write("\t".join(str(x) for x in row) + "\n")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_presentation(path: str) -> presentations.Presentation:
    return presentations.parse_presentation(_read_file(path))


def _group_from_args(args, p: int) -> groupring.OrderedGroup:
    if getattr(args, "r", None) is not None:
        return groupring.make_elementary_abelian(p, args.r)
    if getattr(args, "cyclic", None) is not None:
        return groupring.make_cyclic(args.cyclic)
    if getattr(args, "table", None) is not None:
        return groupring.parse_group_table(_read_file(args.table))
    raise _InputError("specify a target group: --r, --cyclic or --table")


def _cmd_omega(args, out) -> int:
    if args.suite is not None:
        report = omega.check_inequality_suite(args.suite)
        violations = report.discipline_violations()
        rows = [
            [r.family, ",".join(str(x) for x in r.params), r.lhs, r.rhs,
             int(r.holds), int(r.equality)]
            for r in report.rows
        ]
        if args.format == "tsv":
            _emit_tsv(["family", "params", "lhs", "rhs", "holds", "equality"], rows, out)
        else:
            _emit_json(
                {
                    "suite_r_max": args.suite,
                    "rows": [
                        {"family": r.family, "params": list(r.params), "lhs": r.lhs,
                         "rhs": r.rhs, "holds": r.holds, "equality": r.equality}
                        for r in report.rows
                    ],
                    "violations": list(violations),
                },
                out,
            )
        if violations:
            raise FalsificationError(
                "inequality discipline violated", payload={"violations": list(violations)}
            )
        return 0
    if args.r is None:
        raise _InputError("omega needs --r (or --suite R_MAX)")
    table = omega.omega_by_convolution(args.p, args.r)
    rows = [[args.p, args.r, k, table.value(k), table.pi(k)] for k in range(table.degree + 1)]
    if args.format == "tsv":
        _emit_tsv(["p", "r", "k", "omega", "pi"], rows, out)
    else:
        _emit_json(
            {
                "p": args.p,
                "r": args.r,
                "rows": [{"k": k, "omega": om, "pi": pi} for _, _, k, om, pi in rows],
            },
            out,
        )
    return 0


def _cmd_ring(args, out) -> int:
    group = _group_from_args(args, args.p)
    if args.k_max is not None and args.k_max < 1:
        fpexact.check_prime(args.p)  # a bad prime is reported first, and no profile is computed
        raise _InputError("k_max must be at least 1")
    profile = groupring.filtration_profile(args.p, group)
    dims, lambdas = profile.delta_dims, profile.lambdas
    if args.k_max is not None:
        dims, lambdas = dims[: args.k_max + 1], lambdas[: args.k_max]
    if args.format == "tsv":
        rows = [[k, dim, lambdas[k] if k < len(lambdas) else ""] for k, dim in enumerate(dims)]
        _emit_tsv(["k", "dim", "lambda"], rows, out)
    else:
        _emit_json(
            {
                "p": args.p,
                "group": group.label,
                "order": group.size,
                "delta_dims": list(dims),
                "lambdas": list(lambdas),
                "nilpotent": profile.nilpotent,
                "stabilization_k": profile.stabilization_k,
            },
            out,
        )
    return 0


def _cmd_present(args, out) -> int:
    pres = _load_presentation(args.pres)
    summary = presentations.complex_summary(pres, args.p)
    payload = {
        "p": args.p,
        "generators": list(pres.generator_names),
        "n_generators": pres.n_generators,
        "n_relators": pres.n_relators,
        "witness_deficiency": pres.deficiency,
        "boundary": summary.boundary.to_rows(),
        "rank": summary.rank,
        "b0": summary.b0,
        "b1": summary.b1,
        "b2": summary.b2,
        "euler": summary.euler,
    }
    if args.normalize:
        normalized = presentations.normalize_presentation(pres, args.p)
        nsummary = presentations.complex_summary(normalized, args.p)
        payload["normalized"] = {
            "presentation": normalized.to_text(),
            "boundary": nsummary.boundary.to_rows(),
            "diagonal": [
                nsummary.boundary.entry(i, i) for i in range(nsummary.rank)
            ],
        }
    _emit_json(payload, out)
    return 0


def _infer_ea_target(hom_text: str, p: int) -> groupring.OrderedGroup:
    """Infer (Z_p)^r from a coordinate-form homomorphism file."""
    for raw in hom_text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or "->" not in line:
            continue
        rhs = line.partition("->")[2].strip()
        if rhs.startswith("(") and rhs.endswith(")"):
            r = rhs.count(",") + 1
            return groupring.make_elementary_abelian(p, r)
    raise _InputError(
        "cannot infer the target group from the homomorphism file; "
        "pass --r, --cyclic or --table"
    )


def _cmd_cover(args, out) -> int:
    pres = _load_presentation(args.pres)
    hom_text = _read_file(args.hom)
    if args.r is not None or args.cyclic is not None or args.table is not None:
        group = _group_from_args(args, args.p)
    else:
        group = _infer_ea_target(hom_text, args.p)
    hom = covers.parse_homomorphism(hom_text, pres, group)
    cover = covers.build_cover(pres, hom, args.p)
    payload = {
        "p": args.p,
        "group": group.label,
        "order": group.size,
        "surjective": hom.surjective,
        "b0": cover.b0,
        "b1": cover.b1,
        "b2": cover.b2,
        "hrk": cover.hrk,
        "euler": cover.euler,
        "base": {"b0": cover.base.b0, "b1": cover.base.b1, "b2": cover.base.b2},
        "verdict": None,
    }
    verdict = None
    ea = group.is_elementary_abelian()
    if ea is not None and ea[0] == args.p:
        verdict = covers.hc_verdict(cover)
        payload["verdict"] = {
            "r": verdict.r,
            "threshold": verdict.threshold,
            "hrk": verdict.hrk,
            "passed": verdict.passed,
            "equality": verdict.equality,
            "connected": verdict.connected,
            "case": verdict.case,
            "unclassified": verdict.unclassified,
        }
    _emit_json(payload, out)
    if verdict is not None:
        verdict.raise_if_falsifying()
    return 0


def _cmd_bounds(args, out) -> int:
    group = _group_from_args(args, args.p)
    profile = groupring.filtration_profile(args.p, group)
    report = bounds.bound_general(args.b1, args.d, profile)
    if args.actual:
        if not (args.pres and args.hom):
            raise _InputError("--actual needs --pres and --hom")
        pres = _load_presentation(args.pres)
        hom = covers.parse_homomorphism(_read_file(args.hom), pres, group)
        if not hom.surjective:
            raise _InputError("--actual needs a surjective --hom: the bounds are about its kernel")
        cover = covers.build_cover(pres, hom, args.p)
        if (args.b1, args.d) != (cover.base.b1, pres.deficiency):
            raise _InputError(
                f"--b1 {args.b1} --d {args.d} disagree with --pres, which has "
                f"b1 {cover.base.b1} and deficiency {pres.deficiency}"
            )
        if cover.b1 < report.best_bound:
            payload = report.to_json_dict()
            payload.update(actual=cover.b1, tight=False, verdict="falsified")
            _emit_json(payload, out)
        report = bounds.with_actual(report, cover.b1)
    _emit_json(report.to_json_dict(), out)
    return 0


def _cmd_iterate(args, out) -> int:
    pres = _load_presentation(args.pres)
    result = bounds.growth_iterate(pres, args.p, args.steps)
    _emit_json(
        {
            "p": args.p,
            "stages": [
                {
                    "index": st.index,
                    "b1": st.b1,
                    "generators": st.n_generators,
                    "relators": st.n_relators,
                }
                for st in result.stages
            ],
            "truncated": result.truncated,
            "reason": result.reason,
        },
        out,
    )
    return 0


def _cmd_selfcheck(args, out) -> int:
    results = selfcheck.run_all()
    for res in results:
        out.write(f"{'ok  ' if res.ok else 'FAIL'} {res.name}: {res.detail}\n")
    bad = [res for res in results if not res.ok]
    if bad:
        out.write(f"{len(bad)} of {len(results)} checks failed\n")
        return 2
    out.write(f"all {len(results)} checks passed\n")
    return 0


@functools.cache  # built on the first call, then reused: parse_args leaves it unchanged
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="hcc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, group_flags=False, formats=("json",)):  # TSV only where the output is a table
        sp.add_argument("--p", type=int, required=True, help="coefficient prime")
        sp.add_argument("--format", choices=formats, default="json")
        if group_flags:
            sp.add_argument("--r", type=int, help="elementary abelian target (Z_p)^r")
            sp.add_argument("--cyclic", type=int, help="cyclic target Z_n")
            sp.add_argument("--table", help="multiplication-table file")

    sp = sub.add_parser("omega", help="coefficient and pi tables; --suite for the inequality ledger")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--r", type=int)
    sp.add_argument("--suite", type=int, metavar="R_MAX")
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.set_defaults(func=_cmd_omega)

    sp = sub.add_parser("ring", help="filtration profile of a finite group")
    add_common(sp, group_flags=True, formats=("json", "tsv"))
    sp.add_argument("--k-max", type=int, default=None)
    sp.set_defaults(func=_cmd_ring)

    sp = sub.add_parser("present", help="presentation complex summary")
    add_common(sp)
    sp.add_argument("--pres", required=True, help="presentation file")
    sp.add_argument("--normalize", action="store_true")
    sp.set_defaults(func=_cmd_present)

    sp = sub.add_parser("cover", help="regular cover Betti numbers and verdict")
    add_common(sp, group_flags=True)
    sp.add_argument("--pres", required=True)
    sp.add_argument("--hom", required=True, help="homomorphism file")
    sp.set_defaults(func=_cmd_cover)

    sp = sub.add_parser("bounds", help="first-homology lower bound report")
    add_common(sp, group_flags=True)
    sp.add_argument("--b1", type=int, required=True, help="b1 of the group over F_p")
    sp.add_argument("--d", type=int, required=True, help="witness presentation deficiency")
    sp.add_argument("--actual", action="store_true", help="also build the cover")
    sp.add_argument("--pres")
    sp.add_argument("--hom")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("iterate", help="iterated maximal elementary abelian p-quotient")
    add_common(sp)
    sp.add_argument("--pres", required=True)
    sp.add_argument("--steps", type=int, default=2)
    sp.set_defaults(func=_cmd_iterate)

    sp = sub.add_parser("selfcheck", help="run the full invariant suite")
    sp.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        fpexact.entry_cap()  # a bad HCC_MATRIX_CAP fails every subcommand alike
        return args.func(args, sys.stdout)
    except FalsificationError as exc:
        sys.stderr.write(f"FALSIFIED: {exc}\n")
        sys.stderr.write(json.dumps(_stringify_big(exc.payload), indent=2, sort_keys=True) + "\n")
        return 2
    except (_InputError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        sys.stderr.write(f"error: out of memory: {exc}\n" if str(exc) else "error: out of memory\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
