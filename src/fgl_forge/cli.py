"""Command-line surface: build objects, run verifiers, export reports.

Three subcommands:

    log     print the equivariant logarithm list for a configured ring
    verify  run a single named verification claim
    suite   run a profile of claims (quick | full) in order

Exit codes: 0 everything verified, 1 a verification failed (a machine-readable
report with the witness is still emitted), 2 usage or configuration error,
130 interrupted (partial suite report is flushed first).

Reports are wrapped in the canonical envelope of `reports` (schema
"fgl-forge/1"); identical configurations produce byte-identical JSON.
Requests share the R_n contexts of equivariant_ring.rn_context and the
Lubin-Tate contexts of lubin_tate.lt_context, so a table built for one claim
is reused by the next one in the process.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .equivariant_ring import (
    chain_inversion_check,
    rn_context,
    rn_log,
    verify_ideal_invariance,
    verify_log_relations,
    verify_t_collapse,
    verify_tk_recursion,
    verify_tkvk,
    verify_v_collapse,
)
from .errors import ForgeError, VerificationFailure
from .lubin_tate import (
    cotangent_check,
    d_factors,
    fixed_subring_presentation,
    lt_context,
    residue_height,
)
from .poly_core import poly_to_json
from .reports import canonical_json, envelope, render_line

CLAIMS = (
    "recursion",
    "tkvk",
    "invariance",
    "v-collapse",
    "t-collapse",
    "chain-inversion",
    "cotangent",
    "height",
    "unit-factors",
    "fixed-subring",
    "eq351",
)

# documented feasibility limits; --force bypasses them
_LIMITS = {"n": 3, "m": 3, "k": 6, "d": 4, "precision": 16, "madic": 10, "cutoff": 64}


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _modulus(text):
    bits = tuple(int(x) for x in text.split(","))
    if any(b not in (0, 1) for b in bits):
        raise argparse.ArgumentTypeError("modulus must be comma-separated 0/1 bits")
    return bits


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fgl-forge",
        description="Exact verifiers for 2-typical formal group laws "
        "with cyclic 2-group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_cutoff=True):
        p.add_argument("--n", type=_positive, default=2, help="group exponent: C_{2^n}")
        p.add_argument("--m", type=_positive, default=1, help="truncation level")
        p.add_argument("--k", type=_positive, default=3, help="generator index bound")
        p.add_argument("--d", type=_positive, default=1, help="residue field F_{2^d}")
        p.add_argument(
            "--modulus", type=_modulus, default=None,
            help="field modulus bits, constant term first (e.g. 1,1,1 for x^2+x+1)",
        )
        p.add_argument("--precision", type=_positive, default=8, help="Witt precision N")
        p.add_argument("--madic", type=_positive, default=6, help="truncation order M")
        if with_cutoff:
            p.add_argument("--cutoff", type=_positive, default=None, help="series cutoff")
        p.add_argument("--json", metavar="PATH", default=None, help="write JSON here")
        p.add_argument("--force", action="store_true", help="bypass feasibility limits")

    p_log = sub.add_parser("log", help="print the equivariant logarithm list")
    common(p_log, with_cutoff=False)

    p_verify = sub.add_parser("verify", help="run one verification claim")
    p_verify.add_argument("claim", choices=CLAIMS)
    common(p_verify)

    p_suite = sub.add_parser("suite", help="run a claim profile")
    p_suite.add_argument("profile", choices=("quick", "full"), nargs="?", default="quick")
    common(p_suite)
    return parser


@functools.cache
def _parser():
    """The process's one parser; parsing leaves it unchanged, so requests share it."""
    return _build_parser()


def _check_limits(args, parser):
    if getattr(args, "force", False):
        return
    for name, cap in _LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and value > cap:
            parser.error(
                f"--{name} {value} exceeds the documented limit {cap} "
                "(use --force to override)"
            )


def _config(args):
    keys = ("command", "claim", "profile", "n", "m", "k", "d", "modulus",
            "precision", "madic", "cutoff")
    out = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _lt_context(args):
    return lt_context(
        args.n,
        args.m,
        d=args.d,
        modulus=args.modulus,
        precision=args.precision,
        madic=args.madic,
    )


def _verify_reports(args):
    """Dispatch a claim name to verifier calls; returns a list of reports."""
    claim = args.claim
    if claim == "eq351":
        return [verify_log_relations(rn_context(args.n, args.k))]
    if claim == "recursion":
        return [verify_tk_recursion(rn_context(args.n, args.k), args.k)]
    if claim == "tkvk":
        return [verify_tkvk(rn_context(args.n, args.k), args.k)]
    if claim == "invariance":
        return [verify_ideal_invariance(rn_context(args.n, args.k), args.k)]
    if claim == "v-collapse":
        h = (1 << (args.n - 1)) * args.m
        ctx = rn_context(args.n, max(args.k, h), m=args.m)
        return [verify_v_collapse(ctx, args.k)]
    if claim == "t-collapse":
        # --k names the generator index r; run every level the lemma covers
        ctx = rn_context(args.n, args.k, m=args.m)
        levels = [j for j in range(args.n) if args.k > (1 << j) * args.m]
        if not levels:
            raise ValueError(f"no level satisfies r > 2^k m for r={args.k}, m={args.m}")
        return [verify_t_collapse(ctx, j, args.k) for j in levels]
    if claim == "chain-inversion":
        return [chain_inversion_check(rn_context(args.n, args.k), cutoff=args.cutoff)]
    if claim == "cotangent":
        return [cotangent_check(_lt_context(args))]
    if claim == "height":
        return [residue_height(_lt_context(args), cutoff=args.cutoff)]
    if claim == "unit-factors":
        return [d_factors(_lt_context(args))]
    if claim == "fixed-subring":
        return [fixed_subring_presentation(_lt_context(args))]
    raise ValueError(f"unknown claim {claim!r}")


def _suite_jobs(profile):
    """The (description, thunk) list for a profile; thunks are independent."""
    jobs = []
    if profile == "quick":
        grids = {"eq351": [(1, 3), (2, 3)], "recursion": [(2, 1), (2, 2)],
                 "tkvk": [(2, 1), (2, 2)], "invariance": [(2, 2)]}
        scenarios = [(2, 1, 1)]
        collapse_v = [(2, 1, 3)]
        collapse_t = [(2, 1, 3)]
        chains = [(2, 2)]
    else:
        grids = {"eq351": [(1, 4), (2, 4), (3, 3)],
                 "recursion": [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)],
                 "tkvk": [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)],
                 "invariance": [(2, 4), (3, 3)]}
        scenarios = [(2, 1, 1), (2, 2, 2), (3, 1, 1)]
        collapse_v = [(2, 1, 3), (2, 1, 4)]
        collapse_t = [(2, 1, 2), (2, 1, 3)]
        chains = [(1, 2), (2, 3)]

    for n, k in grids["eq351"]:
        jobs.append(
            (f"eq351 n={n}", lambda n=n, k=k: verify_log_relations(rn_context(n, k)))
        )
    for n, k in grids["recursion"]:
        jobs.append(
            (f"recursion n={n} k={k}",
             lambda n=n, k=k: verify_tk_recursion(rn_context(n, k), k))
        )
    for n, k in grids["tkvk"]:
        jobs.append(
            (f"tkvk n={n} k={k}", lambda n=n, k=k: verify_tkvk(rn_context(n, k), k))
        )
    for n, k in grids["invariance"]:
        jobs.append(
            (f"invariance n={n} k={k}",
             lambda n=n, k=k: verify_ideal_invariance(rn_context(n, k), k))
        )
    for n, m, r in collapse_v:
        h = (1 << (n - 1)) * m
        jobs.append(
            (f"v-collapse n={n} m={m} r={r}",
             lambda n=n, m=m, r=r, h=h:
                 verify_v_collapse(rn_context(n, max(r, h), m=m), r))
        )
    for n, m, r in collapse_t:
        for j in range(n):
            if r > (1 << j) * m:
                jobs.append(
                    (f"t-collapse n={n} m={m} r={r} level={n - j}",
                     lambda n=n, m=m, r=r, j=j:
                         verify_t_collapse(rn_context(n, r, m=m), j, r))
                )
    for n, k in chains:
        jobs.append(
            (f"chain-inversion n={n}",
             lambda n=n, k=k: chain_inversion_check(rn_context(n, k)))
        )
    for n, m, d in scenarios:
        for name, fn in (
            ("cotangent", cotangent_check),
            ("height", residue_height),
            ("unit-factors", d_factors),
            ("fixed-subring", fixed_subring_presentation),
        ):
            jobs.append(
                (f"{name} n={n} m={m} d={d}",
                 lambda n=n, m=m, d=d, fn=fn: fn(lt_context(n, m, d=d)))
            )
    return jobs


def _run_suite(jobs):
    """Run jobs one after another, in job order.

    Returns (reports, interrupted); on Ctrl-C the reports finished so far.
    A VerificationFailure inside a job is converted to its failed report;
    any other exception propagates.
    """
    reports = []
    for _, fn in jobs:
        try:
            reports.append(fn())
        except VerificationFailure as exc:
            reports.append(exc.report)
        except KeyboardInterrupt:
            return reports, True
    return reports, False


def _emit(body, args):
    text = canonical_json(body)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
        for report in body["reports"]:
            print(render_line(report))
    else:
        sys.stdout.write(text)
    return 0 if body["ok"] else 1


def _cmd_log(args):
    ctx = rn_context(args.n, args.k)
    values = rn_log(ctx)
    report = {
        "claim": "log",
        "params": {
            "n": args.n,
            "k_max": args.k,
            "values": [poly_to_json(l) for l in values],
        },
        "status": "verified",
        "witness": None,
        "bounds": ctx.bounds(),
    }
    body = envelope([report], config=_config(args))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(canonical_json(body))
    else:
        sys.stdout.write(canonical_json(body))
    for k, l in enumerate(values, start=1):
        print(f"# l_{k} = {l!r}", file=sys.stderr)
    return 0


def _cmd_verify(args):
    try:
        reports = _verify_reports(args)
    except VerificationFailure as exc:
        body = envelope([exc.report], config=_config(args))
        _emit(body, args)
        return 1
    return _emit(envelope(reports, config=_config(args)), args)


def _cmd_suite(args):
    jobs = _suite_jobs(args.profile)
    reports, interrupted = _run_suite(jobs)
    body = envelope(reports, config=_config(args), interrupted=interrupted)
    code = _emit(body, args)
    return 130 if interrupted else code


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    _check_limits(args, parser)
    try:
        if args.command == "log":
            return _cmd_log(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_suite(args)
    except KeyboardInterrupt:
        return 130
    except VerificationFailure as exc:
        body = envelope([exc.report], config=_config(args))
        sys.stdout.write(canonical_json(body))
        return 1
    except (ForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
