"""Command-line surface: build objects, run verifiers, export reports.

Three subcommands:

    log     print the equivariant logarithm list for a configured ring
    verify  run a single named verification claim
    suite   run a profile (quick | full) of verify requests in order

The flag table _FLAGS reads every well-formed request in one loop.  One
top-level argparse parser, built from the same table on first need, handles
help, abbreviations, --flag=value and usage errors, and is the reference the
tests hold the table parse to.

Both verify and suite run a claim through its one entry in _CLAIMS, which
returns the claim's reports; a false claim is a report with status "failed"
and a witness, never an exception.

Exit codes: 0 everything verified, 1 a claim is false (the machine-readable
report with its witness is still emitted; verify emits the first failed
report alone), 2 usage or configuration error, an internal cross-check that
broke (a ConsistencyFailure) or a request that ran out of memory (a
MemoryError, which --force requests past the caps can meet), 130
interrupted (suite flushes the reports of the entries it finished first).
A request is checked in one order before it runs: a flag the claim does not
read given a value other than its default, then a value outside the claim's
domain, then a value past its caps without --force.  The first and the last
are the parser's usage errors, which print its usage line and then
"fgl-forge: error: ...".  A domain refusal, like any other ValueError,
ConsistencyFailure or MemoryError, prints one "error: " line.  Every exit 2
leaves stdout empty.

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

from .coefficients import field_refusal
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
from .errors import ConsistencyFailure
from .lubin_tate import (
    cotangent_check,
    d_factors,
    fixed_subring_presentation,
    lt_context,
    residue_height,
)
from .poly_core import poly_to_json
from .reports import _report, canonical_json, envelope, render_line


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


# every flag a command takes; each claim of `verify` reads a few of them (its
# _CLAIMS entry), and `log` takes the four it reads
_FLAGS = {
    "--n": dict(type=_positive, default=2, help="group exponent: C_{2^n}"),
    "--m": dict(type=_positive, default=1, help="truncation level"),
    "--k": dict(type=_positive, default=3, help="generator index bound"),
    "--d": dict(type=_positive, default=1, help="residue field F_{2^d}"),
    "--modulus": dict(
        type=_modulus, default=None,
        help="field modulus bits, constant term first (e.g. 1,1,1 for x^2+x+1)",
    ),
    "--precision": dict(type=_positive, default=8, help="Witt precision N"),
    "--madic": dict(type=_positive, default=6, help="truncation order M"),
    "--cutoff": dict(type=_positive, default=None, help="series cutoff"),
    "--json": dict(metavar="PATH", default=None, help="write JSON here"),
    "--force": dict(action="store_true",
                    help="run past the claim's caps on parameter sizes"),
}


# the value argparse gives a flag left out: its default, False for store_true
_DEFAULTS = {flag: spec.get("default", False if "action" in spec else None)
             for flag, spec in _FLAGS.items()}
# the value flags by name, with their defaults: all but --json and --force
_VALUE_DEFAULTS = {flag[2:]: default for flag, default in _DEFAULTS.items()
                   if flag not in ("--json", "--force")}


def _build_parser():
    """The top-level parser, one subparser per command of _COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="fgl-forge",
        description="Exact verifiers for 2-typical formal group laws "
        "with cyclic 2-group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positional, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        if positional is not None:
            command.add_argument(positional[0], **positional[1])
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.cache
def _parser():
    """The process's parser; parsing leaves it unchanged, so requests share it."""
    return _build_parser()


def _parse(argv):
    """The arguments of argv, as the top-level parser gives them.

    The flag table reads every well-formed request (_parse_table); anything
    else (help, an abbreviation, --flag=value, a flag before the positional, a
    value that starts with "-", a value its type rejects, an unknown token)
    goes to the one top-level parser, built on first need.  So help, usage
    errors and exit 2 are argparse's.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_table(argv)
    return _parser().parse_args(argv) if args is None else args


def _parse_table(argv):
    """The Namespace argparse gives a well-formed argv, or None to leave it to argparse.

    Well-formed: a command, its positional (a claim; a profile, which may be
    left out), then only exact flag names of the command, each store_true
    flag alone and each other flag followed by one value that does not start
    with "-" and that its type converts.  The last of repeated flags wins, as
    in argparse.  Never prints, never exits.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, positional, flags = command
    values = {flag[2:]: _DEFAULTS[flag] for flag in flags}
    values["command"] = argv[0]
    i = 1
    if positional is not None:
        dest, keywords = positional
        if len(argv) > 1 and argv[1] in keywords["choices"]:
            values[dest] = argv[1]
            i = 2
        elif "default" in keywords:
            values[dest] = keywords["default"]
        else:
            return None
    while i < len(argv):
        flag = argv[i]
        if flag not in flags:
            return None
        spec = _FLAGS[flag]
        if "action" in spec:  # store_true
            values[flag[2:]] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        convert = spec.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return None
        values[flag[2:]] = value
        i += 2
    return argparse.Namespace(**values)


def _check_request(args):
    """Refuse a request its claim cannot serve, in one order: a flag the claim
    does not read, then a value outside the claim's domain, then a value past
    its caps.

    An unread flag given at its default leaves the envelope as if it were left
    out, so it stays accepted.  The first and the last are usage errors of
    the parser; the domain is a ValueError with the library's message, raised
    before any context is built.  --force lifts the caps alone.  suite has no
    entry: it takes only --json.
    """
    name = args.claim if args.command == "verify" else args.command
    if name not in _CLAIMS:
        return
    _, reads, caps, domain = _CLAIMS[name]
    values = vars(args)
    unread = [f"--{key}" for key, default in _VALUE_DEFAULTS.items()
              if key not in reads and values.get(key, default) != default]
    if unread:
        _parser().error(f"{name} does not read {', '.join(unread)} "
                        f"(it reads {', '.join('--' + key for key in reads)})")
    refusal = domain(args) if domain else None
    if refusal is not None:
        raise ValueError(refusal)
    if args.force:
        return
    for key, cap in caps.items():
        if key == "k":
            cap = cap[args.n]
        value = values[key]
        if value is not None and value > cap:
            where = f" at --n {args.n}" if key == "k" else ""
            _parser().error(f"--{key} {value} exceeds the limit {cap} of {name}{where} "
                            "(use --force to override)")


def _config(args):
    """Every flag the subcommand reads, less where the output goes and --force."""
    out = {}
    for key, value in vars(args).items():
        if value is not None and key not in ("json", "force"):
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


def _t_collapse(args):
    """--k names the generator index r; one report per level the lemma covers."""
    ctx = rn_context(args.n, args.k, m=args.m)
    return [verify_t_collapse(ctx, j, args.k)
            for j in range(args.n) if args.k > (1 << j) * args.m]


def _log(args):
    ctx = rn_context(args.n, args.k)
    values = [poly_to_json(l) for l in rn_log(ctx)]
    return [_report("log", {"n": args.n, "k_max": args.k, "values": values}, True,
                    bounds=ctx.bounds())]


def _exceeds_h(x, a):
    """x > h = 2^{n-1} m, with no h formed wider than x."""
    return a.n <= x.bit_length() and x > a.m << (a.n - 1)


def _h_text(a):
    """h = 2^{n-1} m in decimal, or through its exponent where the decimal
    would pass the 4300 digits that int writes."""
    if a.n + a.m.bit_length() > 14000:
        return f"2^{a.n - 1} * {a.m}"
    return str(a.m << (a.n - 1))


def _lt_domain(a):
    """The refusals of lt_context that read the flags alone, in its order:
    the field's, then the context's; the claims check theirs after it."""
    refusal = field_refusal(a.d, a.modulus)
    if refusal is None and a.precision < a.madic:
        refusal = "Witt precision must be at least the truncation order"
    return refusal


def _cotangent_domain(a):
    refusal = _lt_domain(a)
    if refusal is None and a.madic < 2:
        refusal = f"cotangent needs madic >= 2: m/m^2 is zero at madic {a.madic}"
    return refusal


def _height_domain(a):
    refusal = _lt_domain(a)
    # cutoff < 2^h exactly when the cutoff has at most h bits
    if refusal is None and a.cutoff is not None and not _exceeds_h(a.cutoff.bit_length(), a):
        refusal = f"cutoff {a.cutoff} < 2^h, h = {_h_text(a)}"
    return refusal


def _chain_domain(a):
    # the window 2^{k+1} - 1 of k_max, which a wider cutoff exceeds
    if a.cutoff is not None and a.cutoff.bit_length() > a.k + 1:
        return f"cutoff {a.cutoff} exceeds the order-{(2 << a.k) - 1} window of k_max={a.k}"
    return None


_RN = ("n", "k")
_LT = ("n", "m", "d", "modulus", "precision", "madic")
_LT_CAPS = {"n": 3, "m": 3, "d": 4, "precision": 16, "madic": 10}

# {claim: (its runner, the value flags the runner reads, its caps, its
# domain)}.  The runner maps parsed arguments to the claim's reports, in
# order, and looks its verifier up when called, so a patched module name
# reaches it.  The domain maps them to the message of the ValueError the
# library raises on flag values outside the claim's hypotheses, or None; it
# compares values only and builds nothing, and --force does not lift it.
# The caps are the largest values served without --force, n first; the cap
# of --k is {n: cap} at each n of the domain.  Each edge inside the domain
# finishes fresh within 60 s.  `log` is not a claim of `verify`, but keeps
# its flags and caps here too.
_CLAIMS = {
    "recursion": (lambda a: [verify_tk_recursion(rn_context(a.n, a.k), a.k)],
                  _RN, {"n": 3, "k": {2: 6, 3: 5}},
                  lambda a: "the level-drop recursion needs n >= 2" if a.n < 2 else None),
    "tkvk": (lambda a: [verify_tkvk(rn_context(a.n, a.k), a.k)],
             _RN, {"n": 3, "k": {1: 6, 2: 6, 3: 4}}, None),
    "invariance": (lambda a: [verify_ideal_invariance(rn_context(a.n, a.k), a.k)],
                   _RN, {"n": 3, "k": {1: 6, 2: 6, 3: 4}}, None),
    "v-collapse": (lambda a: [verify_v_collapse(rn_context(a.n, a.k, m=a.m), a.k)],
                   ("n", "m", "k"), {"n": 3, "m": 3, "k": {1: 6, 2: 6, 3: 6}},
                   lambda a: None if _exceeds_h(a.k, a) else f"r must exceed h = {_h_text(a)}"),
    # some level j has r > 2^j m exactly when level 0 has r > m
    "t-collapse": (_t_collapse, ("n", "m", "k"), {"n": 3, "m": 3, "k": {1: 6, 2: 6, 3: 5}},
                   lambda a: None if a.k > a.m else
                   f"no level satisfies r > 2^k m for r={a.k}, m={a.m}"),
    "chain-inversion": (lambda a: [
        chain_inversion_check(rn_context(a.n, a.k), cutoff=a.cutoff)],
        (*_RN, "cutoff"), {"n": 3, "k": {1: 5, 2: 4, 3: 3}}, _chain_domain),
    "cotangent": (lambda a: [cotangent_check(_lt_context(a))], _LT, _LT_CAPS,
                  _cotangent_domain),
    # 2^h at the largest (n, m), h = 2^{n-1} m; a verified height stops at v_h
    "height": (lambda a: [residue_height(_lt_context(a), cutoff=a.cutoff)],
               (*_LT, "cutoff"),
               {**_LT_CAPS, "cutoff": 1 << (_LT_CAPS["m"] << (_LT_CAPS["n"] - 1))},
               _height_domain),
    "unit-factors": (lambda a: [d_factors(_lt_context(a))], _LT, _LT_CAPS, _lt_domain),
    "fixed-subring": (lambda a: [fixed_subring_presentation(_lt_context(a))],
                      _LT, _LT_CAPS, _lt_domain),
    "eq351": (lambda a: [verify_log_relations(rn_context(a.n, a.k))],
              _RN, {"n": 3, "k": {1: 6, 2: 6, 3: 6}}, None),
    "log": (_log, _RN, {"n": 3, "k": {1: 6, 2: 6, 3: 6}}, None),
}
CLAIMS = tuple(claim for claim in _CLAIMS if claim != "log")

_SCENARIOS = ("cotangent", "height", "unit-factors", "fixed-subring")
_ACCEPTANCE_GRID = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3))

# A profile is a tuple of `verify` arguments, run in order through _CLAIMS.
PROFILES = {
    "quick": (
        "eq351 --n 1 --k 3", "eq351 --n 2 --k 3",
        "recursion --n 2 --k 1", "recursion --n 2 --k 2",
        "tkvk --n 2 --k 1", "tkvk --n 2 --k 2",
        "invariance --n 2 --k 2",
        "v-collapse --n 2 --m 1 --k 3",
        "t-collapse --n 2 --m 1 --k 3",
        "chain-inversion --n 2 --k 2",
        *(f"{claim} --n 2 --m 1 --d 1" for claim in _SCENARIOS),
    ),
    "full": (
        "eq351 --n 1 --k 4", "eq351 --n 2 --k 4", "eq351 --n 3 --k 3",
        *(f"recursion --n {n} --k {k}" for n, k in _ACCEPTANCE_GRID),
        *(f"tkvk --n {n} --k {k}" for n, k in _ACCEPTANCE_GRID),
        "invariance --n 2 --k 4", "invariance --n 3 --k 3",
        "v-collapse --n 2 --m 1 --k 3", "v-collapse --n 2 --m 1 --k 4",
        "t-collapse --n 2 --m 1 --k 2", "t-collapse --n 2 --m 1 --k 3",
        "chain-inversion --n 1 --k 2", "chain-inversion --n 2 --k 3",
        *(f"{claim} --n {n} --m {m} --d {d}"
          for n, m, d in ((2, 1, 1), (2, 2, 2), (3, 1, 1)) for claim in _SCENARIOS),
    ),
}


# {command: (its help, its positional (name, argparse keywords) or None, the
# flags of _FLAGS it takes)}; the argparse parser and the table parse both
# read it
_COMMANDS = {
    "log": ("print the equivariant logarithm list", None,
            ("--n", "--k", "--json", "--force")),
    "verify": ("run one verification claim", ("claim", dict(choices=CLAIMS)),
               tuple(_FLAGS)),
    "suite": ("run a claim profile",
              ("profile", dict(choices=tuple(PROFILES), nargs="?", default="quick")),
              ("--json",)),
}


def _run_suite(profile):
    """Run the entries of a profile one after another, in profile order.

    Returns (reports, interrupted); on Ctrl-C the reports of the entries
    finished so far.  Any exception but KeyboardInterrupt propagates.
    """
    reports = []
    for entry in PROFILES[profile]:
        args = _parse(["verify", *entry.split()])
        try:
            reports.extend(_CLAIMS[args.claim][0](args))
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
    code = _emit(envelope(_log(args), config=_config(args)), args)
    for k, l in enumerate(rn_log(rn_context(args.n, args.k)), start=1):
        print(f"# l_{k} = {l!r}", file=sys.stderr)
    return code


def _cmd_verify(args):
    reports = _CLAIMS[args.claim][0](args)
    failed = [r for r in reports if r["status"] != "verified"]
    # the first failed report alone; status "failed", exit 1
    return _emit(envelope(failed[:1] or reports, config=_config(args)), args)


def _cmd_suite(args):
    reports, interrupted = _run_suite(args.profile)
    body = envelope(reports, config=_config(args), interrupted=interrupted)
    code = _emit(body, args)
    return 130 if interrupted else code


def main(argv=None):
    args = _parse(argv)
    try:
        _check_request(args)
        if args.command == "log":
            return _cmd_log(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_suite(args)
    except KeyboardInterrupt:
        return 130
    except (ConsistencyFailure, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller request, or drop --force",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
