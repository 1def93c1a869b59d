"""Command line front end.

    verolab check <ID> [--field F --<param> V ... --seed S --budget B --out json|text]
    verolab suite <smoke|full-desk> [--out json|text] [--timing]
    verolab construct <kind> --field F [--n N --d D --k K --m M] [--out FILE]
    verolab vcode --n N --d D --field F --wmax W [--powerpoints] [--out json]

Exit codes: 0 pass, 1 a check failed, 2 bad input (VerolabError), and
141 (128 + SIGPIPE, as a shell reports a process killed by it) when the
reader of stdout closes it early, as `verolab ... | head -1` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constructions import (
    conic,
    desarguesian_spread,
    dual_arc_ad,
    dual_arc_ik,
    elliptic_ovoid,
    hyperoval,
    rational_normal_curve,
    wedge_family,
)
from .errors import BadParams, VerolabError
from .field import parse_field
from .harness import CHECK_REGISTRY, _resolve, result_to_json, run_check, run_suite, suite_to_json
from .linalg import format_family, rank
from . import vcode as vc


# every parameter some check declares is a flag of `check`; run_check
# rejects one the chosen check does not declare
CHECK_PARAMS = {name: p for check in CHECK_REGISTRY.values() for name, p in check.params.items()}

# kind -> (builder, the flags it needs); each builder names the field f
CONSTRUCTIONS = {
    "spread": (desarguesian_spread, ("k",)),
    "conic": (conic, ()),
    "hyperoval": (hyperoval, ()),
    "ovoid": (elliptic_ovoid, ()),
    "rnc": (rational_normal_curve, ("d",)),
    "dual-arc-ad": (dual_arc_ad, ("n", "d")),
    "dual-arc-ik": (dual_arc_ik, ("n", "d", "k")),
    "wedge": (wedge_family, ("m",)),
}


def _check_cmd(args) -> int:
    params = {key: getattr(args, key) for key in ("field", *CHECK_PARAMS) if getattr(args, key) is not None}
    res = run_check(args.check_id, params, seed=args.seed, budget=args.budget)
    if args.out == "json":
        print(result_to_json(res, with_timing=True))
    else:
        state = "hypothesis-not-met" if not res.hypothesis_ok else ("pass" if res.conclusion_ok else "FAIL")
        print(f"{res.check_id} {res.params} mode={res.mode} -> {state} ({res.wall_time_ms:.1f} ms)")
        if res.witness is not None:
            print(f"  witness: {res.witness}")
        if res.data:
            print(f"  data: {res.data}")
    return 0 if res.passed else 1


def _suite_cmd(args) -> int:
    results, exit_code = run_suite(args.name, seed=args.seed)
    if args.out == "json":
        print(suite_to_json(args.name, results, with_timing=args.timing))
    else:
        for r in results:
            state = "hypothesis-not-met" if not r.hypothesis_ok else ("pass" if r.conclusion_ok else "FAIL")
            print(f"{r.check_id:18s} {state:18s} {r.mode:28s} {r.wall_time_ms:9.1f} ms  {r.params}")
        n_pass = sum(1 for r in results if r.passed)
        print(f"{n_pass}/{len(results)} checks passed")
    return exit_code


def _construct_cmd(args) -> int:
    build, flags = CONSTRUCTIONS[args.kind]
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise BadParams(f"construct {args.kind} needs {' '.join(missing)}")
    fam = list(build(f=parse_field(args.field), **{flag: getattr(args, flag) for flag in flags}))
    text = format_family(fam)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:  # a missing directory, a directory, no permission: bad input, not a failed check
            raise BadParams(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        print(text)
    return 0


def _vcode_cmd(args) -> int:
    # the VCODE check's schema bounds n, d and wmax and asks for a finite field
    given = {key: getattr(args, key) for key in ("field", "n", "d", "wmax", "powerpoints")}
    _, params = _resolve("VCODE", CHECK_REGISTRY["VCODE"], given)
    f = params["field"]
    cm = (
        vc.powerpoint_check_matrix(args.n, args.d, f)
        if args.powerpoints
        else vc.veronese_check_matrix(args.n, args.d, f)
    )
    w, supports = vc.min_weight(cm, args.wmax)
    reports = vc.classify_supports(cm, supports)
    doc = {
        "params": {
            "n": args.n,
            "d": args.d,
            "field": f.name,
            "wmax": args.wmax,
            "powerpoints": bool(args.powerpoints),
        },
        "M": cm.n_cols,
        "N": cm.n_rows,
        "rank": rank(cm.h),
        "min_weight": w,
        "supports": [
            {"indices": list(rep.indices), "source_rank": rep.source_rank}
            for rep in reports
        ],
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="verolab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="run one named check", allow_abbrev=False)
    p_check.add_argument("check_id", choices=sorted(CHECK_REGISTRY))
    p_check.add_argument("--field", type=str, default=None)
    for name, p in sorted(CHECK_PARAMS.items()):
        if isinstance(p.default, bool):
            p_check.add_argument(f"--{name}", action="store_true", default=None)
        else:
            p_check.add_argument(f"--{name}", type=int, default=None)
    for flag in ("budget", "seed"):
        p_check.add_argument(f"--{flag}", type=int, default=None)
    p_check.add_argument("--out", choices=("json", "text"), default="text")
    p_check.set_defaults(fn=_check_cmd)

    p_suite = sub.add_parser("suite", help="run a pinned suite")
    p_suite.add_argument("name", choices=("smoke", "full-desk"))
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--timing", action="store_true")
    p_suite.add_argument("--out", choices=("json", "text"), default="text")
    p_suite.set_defaults(fn=_suite_cmd)

    p_con = sub.add_parser("construct", help="emit a family fixture")
    p_con.add_argument("kind", choices=sorted(CONSTRUCTIONS))
    p_con.add_argument("--field", type=str, required=True)
    for flag in sorted({flag for _, flags in CONSTRUCTIONS.values() for flag in flags}):
        p_con.add_argument(f"--{flag}", type=int, default=None)
    p_con.add_argument("--out", type=str, default=None)
    p_con.set_defaults(fn=_construct_cmd)

    p_vc = sub.add_parser("vcode", help="point-column code report")
    p_vc.add_argument("--n", type=int, required=True)
    p_vc.add_argument("--d", type=int, required=True)
    p_vc.add_argument("--field", type=str, required=True)
    p_vc.add_argument("--wmax", type=int, required=True)
    p_vc.add_argument("--powerpoints", action="store_true")
    p_vc.add_argument("--out", choices=("json",), default="json")
    p_vc.set_defaults(fn=_vcode_cmd)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except VerolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull, so
        # the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
