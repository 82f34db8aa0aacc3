"""Every process that CI starts: one runner, one table of requests.

Every child runs in a fresh interpreter through run(), under one
address-space cap (MEMORY_CAP) and one time limit (TIME_LIMIT):

- each row of ROWS, a request checked by its exit code, its stdout and its
  stderr;
- each demo of demos/, which must end in "all checks verified";
- `suite quick` and `suite full` under two hash seeds, which must print the
  same canonical bytes;
- a 1-second run of each benchmark workload, whose every request must match
  its pinned digest in perfbench/answers.json;
- a traced run (--trace 1) of each benchmark workload, which must match
  every pinned digest too and report every per-layer metric BENCHMARK.json
  names, so a program change that breaks the tracer fails here.

CI runs the module as one step, after the tier-1 run and the benchmark's own
tests, and starts no other process:

    python -m pytest tests/fresh.py -q --durations=0

pytest collects only test_*.py by default, so the tier-1 run skips this
module.  The cap edges are read off cli._CLAIMS (CORNERS), so a raised cap
brings its own row; any other request is one new row.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from fgl_forge import cli, equivariant_ring, lubin_tate
from fgl_forge.poly_core import gamma_act, reduce_mod2
from fgl_forge.series_fgl import TruncatedSeries1

MEMORY_CAP = 2 << 30  # bytes: RLIMIT_AS of every child
TIME_LIMIT = 60  # seconds: every edge of cli._CLAIMS finishes within it

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
_BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())
_WORKLOADS = [workload["name"] for workload in _BENCHMARK["workloads"]]


def run(*args, env=None):
    """`python *args` in a fresh interpreter that imports fgl_forge from src,
    with the variables of `env` added to its environment, under MEMORY_CAP;
    subprocess.TimeoutExpired past TIME_LIMIT."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=TIME_LIMIT,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP)),
    )


# ---- falsifiers: a falsified row applies one in the child, then runs cli.main ----

def double_levels():
    """Every value of the orbit table's level generators doubled: every norm
    factor is then a non-unit."""
    level = lubin_tate.OrbitTable.level
    lubin_tate.OrbitTable.level = lambda self, s, k: tuple(2 * t for t in level(self, s, k))


def bump_chain():
    """t_1 x^3 added to the outermost step of the chain: the chain is then
    psi + t_1 x^3 + O(x^4)."""
    chain = equivariant_ring._chain_steps

    def bumped(ctx, X):
        outer, *inner = chain(ctx, X)
        bump = TruncatedSeries1.monomial(outer.ring, ctx.generator(1, rational=True), 3, X)
        return [outer + bump, *inner]

    equivariant_ring._chain_steps = bumped


def bump_level():
    """gamma(t_2 t_3^4), of degree 62, added to the cached mod-2 level image
    a claim reads: at recursion --n 2 --k 5 that image is t_5^{C_2}, of the
    same degree, and the difference, which lies in I_5 unbumped, then has
    the normal form mod I_5 of gamma(t_2 t_3^4)."""
    t_bar = equivariant_ring._t_bar

    def bumped(ctx, r, k):
        bump = gamma_act(ctx.generator(2) * ctx.generator(3) ** 4)
        return t_bar(ctx, r, k) + reduce_mod2(bump)

    equivariant_ring._t_bar = bumped


def _factor_1(index):
    """The unit-factors witness of norm factor 1, read off the orbit table."""
    return {"witness": {"factor": 1, "index": index, "level": 2, "residue": []}}


def _t1_at(argv):
    """The witness of bump_chain on a chain-inversion request at its default
    cutoff: t_1 in R_n over Q, at the cutoff 2^{k+1} - 1, the window of the
    log certificate."""
    args = cli._parse(argv.split())
    ring = {"k_max": args.k, "kind": "Rn", "n": args.n, "rational": True}
    return {"cutoff": (2 << args.k) - 1,
            "witness": {"ring": ring, "terms": [{"coeff": "1", "monomial": {"t1": 1}}]}}


def corners():
    """The edges of the caps of cli._CLAIMS inside each claim's domain, as
    argv strings: an R_n claim at its --k cap at each n and each m it reads,
    a Lubin-Tate claim at all its caps at once."""
    out = []
    for claim, (_, reads, caps, domain) in cli._CLAIMS.items():
        command = "log" if claim == "log" else f"verify {claim}"
        if "k" in caps:
            ms = range(1, caps["m"] + 1) if "m" in reads else [None]
            grid = [{"n": n, "m": m, "k": k} for n, k in caps["k"].items() for m in ms]
        else:
            grid = [caps]
        for values in grid:
            argv = command + "".join(f" --{key} {value}" for key, value in values.items()
                                     if value is not None)
            if domain is None or domain(cli._parse(argv.split())) is None:
                out.append(argv)
    return out


CORNERS = corners()


# (argv, falsifier, exit code, check).  The check of exit 0 is None or an
# earlier row whose stdout this one must equal (every report must be
# "verified" either way); of exit 1, the witness of the one report and, for
# chain-inversion, its params.cutoff; of exit 2, the last line of stderr, the
# only line for a ValueError of the library
ROWS = [
    # every cap edge, which no benchmark pool runs.  At R_2 nearly all the
    # time of recursion, tkvk and invariance is squaring v_k and t_k (mod
    # I_6 the recursion builds no v_6); chain-inversion runs its chain 63,
    # 31 and 15 orders through the logarithm at (n, k) = (1, 5), (2, 4) and
    # (3, 3); the Lubin-Tate claims at all their caps read the largest box,
    # d = 4, M = 10, N = 16, and height and unit-factors write their
    # residues through residue_json with no residue ring built
    *((argv, None, 0, None) for argv in CORNERS),
    # falsified unit-factors at its cap (3, 3) and at (4, 3) past it: the
    # witness is factor 1, at index 2^{n-1} m and level 2
    ("verify unit-factors --n 3 --m 3", "double_levels", 1, _factor_1(12)),
    ("verify unit-factors --n 4 --m 3 --force", "double_levels", 1, _factor_1(24)),
    # falsified chain-inversion at each of its caps: the witness is t_1, at
    # the cutoff 63, 31 and 15
    *((argv, "bump_chain", 1, _t1_at(argv))
      for argv in CORNERS if argv.startswith("verify chain-inversion ")),
    # falsified recursion at (2, 5), reduced through the normal-form table of
    # the basis of I_5: the witness, eight terms of R_2 mod 2, is the one the
    # heap route (poly_core._nf) gives
    ("verify recursion --n 2 --k 5", "bump_level", 1, {"witness": {
        "ring": {"k_max": 5, "kind": "Rn", "mod2": True, "n": 2},
        "terms": [{"coeff": "1", "monomial": monomial} for monomial in (
            {"t2": 1, "t3": 4}, {"t1": 3, "t3": 4}, {"t1": 4, "t2": 9}, {"t1": 7, "t2": 8},
            {"t1": 16, "t2": 5}, {"t1": 19, "t2": 4}, {"t1": 28, "t2": 1}, {"t1": 31})]}}),
    # one request read off the flag table, then through argparse as an
    # abbreviation and as --flag=value: the three stdouts are byte-identical
    ("verify height --n 2 --m 1 --precision 8", None, 0, None),
    ("verify height --n 2 --m 1 --prec 8", None, 0, "verify height --n 2 --m 1 --precision 8"),
    ("verify height --n=2 --m=1 --precision=8", None, 0,
     "verify height --n 2 --m 1 --precision 8"),
    # the h = 6 height route (logarithm mod (tau))
    ("verify height --n 2 --m 3", None, 0, None),
    # h = 8, and a cutoff above 2^h: both share the one context of their
    # configuration, which the benchmark pools do not cover
    ("verify height --n 3 --m 2", None, 0, None),
    ("verify height --n 2 --m 1 --cutoff 64", None, 0, None),
    # the h = 12 height, read off the first odd v_k image mod (tau) with no
    # 2-series expanded
    ("verify height --n 3 --m 3", None, 0, None),
    # cotangent and unit-factors from the orbit table at h = 6, 8 and 12
    ("verify cotangent --n 2 --m 3", None, 0, None),
    ("verify unit-factors --n 2 --m 3", None, 0, None),
    ("verify cotangent --n 3 --m 2", None, 0, None),
    ("verify unit-factors --n 3 --m 2", None, 0, None),
    ("verify cotangent --n 3 --m 3", None, 0, None),
    ("verify unit-factors --n 3 --m 3", None, 0, None),
    # fixed-subring with each action applied once to the whole box: a
    # 2262-monomial box at (3, 3, d=3) that no benchmark pool covers, and
    # (2, 3, d=2)
    ("verify fixed-subring --n 3 --m 3 --d 3", None, 0, None),
    ("verify fixed-subring --n 2 --m 3 --d 2", None, 0, None),
    # an explicit --modulus, x^3 + x^2 + 1 (alpha = 7); its config records
    # the modulus
    ("verify fixed-subring --n 2 --m 3 --d 3 --modulus 1,0,1,1", None, 0, None),
    # h = 8 and h = 12 at the --cutoff cap 2^12, which reads no v_k past v_h
    ("verify height --n 3 --m 2 --cutoff 4096", None, 0, None),
    ("verify height --n 3 --m 3 --cutoff 4096", None, 0, None),
    # a field with no default modulus: F_64 as F_2[x]/(x^6 + x + 1)
    ("verify fixed-subring --n 1 --m 1 --d 6 --modulus 1,1,0,0,0,0,1 --force", None, 0, None),
    # a request over a cap: the table reads it, and the argparse parser is
    # built only to report the error
    ("verify recursion --n 2 --k 7", None, 2,
     "fgl-forge: error: --k 7 exceeds the limit 6 of recursion at --n 2 "
     "(use --force to override)"),
    # a request outside its claim's domain reports the domain, before the
    # caps, which --force could not help: recursion below n = 2, inside and
    # past the k cap, and v-collapse at r <= h = 2^{n-1} m past the k and n
    # caps; past the cap and inside the domain, the cap
    ("verify recursion --n 1 --k 3", None, 2, "error: the level-drop recursion needs n >= 2"),
    ("verify recursion --n 1 --k 7", None, 2, "error: the level-drop recursion needs n >= 2"),
    ("verify v-collapse --n 3 --m 2 --k 7", None, 2, "error: r must exceed h = 8"),
    ("verify v-collapse --n 3 --m 3 --k 12", None, 2, "error: r must exceed h = 12"),
    ("verify v-collapse --n 4 --m 1 --k 3", None, 2, "error: r must exceed h = 8"),
    ("verify v-collapse --n 3 --m 2 --k 9", None, 2,
     "fgl-forge: error: --k 9 exceeds the limit 6 of v-collapse at --n 3 "
     "(use --force to override)"),
    # a flag the claim does not read (tkvk reads --n and --k)
    ("verify tkvk --n 2 --k 2 --m 3", None, 2,
     "fgl-forge: error: tkvk does not read --m (it reads --n, --k)"),
    # ValueErrors with the library's messages: madic 1 and a cutoff below
    # 2^h within the cap, which the domain refuses before any context is
    # built, and from the library a u-window past its cap and a reducible
    # sextic modulus
    ("verify cotangent --n 2 --m 1 --madic 1 --precision 1", None, 2,
     "error: cotangent needs madic >= 2: m/m^2 is zero at madic 1"),
    ("verify height --n 3 --m 2 --cutoff 64", None, 2, "error: cutoff 64 < 2^h, h = 8"),
    # the bound written through its exponent: 2^h has 4933 digits at h = 16384
    ("verify height --n 15 --m 1 --cutoff 64 --force", None, 2,
     "error: cutoff 64 < 2^h, h = 16384"),
    ("verify fixed-subring --n 1 --m 20 --force", None, 2,
     "error: exponent beyond the representable window"),
    ("verify fixed-subring --n 1 --m 1 --d 6 --modulus 1,0,1,0,0,1,1 --force", None, 2,
     "error: modulus [1, 0, 1, 0, 0, 1, 1] is reducible over F_2"),
    # a field the flags alone rule out, refused before the caps as a domain
    ("verify cotangent --d 5 --force", None, 2, "error: no default modulus for d=5"),
]


def run_row(argv, falsifier=None):
    """One row's request in a fresh interpreter: `python -m fgl_forge argv`,
    or, with a falsifier, this module applying it before cli.main(argv)."""
    if falsifier is None:
        return run("-m", "fgl_forge", *argv.split())
    return run(__file__, falsifier, *argv.split())


def _assert_exit(proc, code=0):
    """The child printed no traceback and exited with `code`."""
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr


@pytest.mark.parametrize(
    "argv, falsifier, code, check", ROWS,
    ids=[" ".join(filter(None, (falsifier, argv))) for argv, falsifier, _, _ in ROWS],
)
def test_row(argv, falsifier, code, check):
    proc = run_row(argv, falsifier)
    _assert_exit(proc, code)
    if code == 2:
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines[-1] == check
        if check.startswith("error: "):
            assert len(lines) == 1
        return
    body = json.loads(proc.stdout)
    if code == 0:
        assert body["ok"] is True and body["reports"]
        assert all(r["status"] == "verified" for r in body["reports"])
        if check is not None:
            assert proc.stdout == run_row(check).stdout
        return
    (report,) = body["reports"]
    assert report["witness"] == check["witness"]
    if "cutoff" in check:
        assert report["params"]["cutoff"] == check["cutoff"]


@pytest.mark.parametrize("demo", sorted((_ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo(demo):
    proc = run(str(demo))
    _assert_exit(proc)
    assert proc.stdout.splitlines()[-1] == "all checks verified"


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_suite_is_seed_free(profile):
    """No request draws random numbers and no envelope depends on the hash
    seed: two seeds print the same bytes, those json.dumps gives."""
    outs = []
    for seed in ("0", "1"):
        proc = run("-m", "fgl_forge", "suite", profile, env={"PYTHONHASHSEED": seed})
        _assert_exit(proc)
        outs.append(proc.stdout)
    out = outs[0]
    assert outs[1] == out
    body = json.loads(out)
    assert body["ok"] is True and body["reports"]
    assert all(r["status"] == "verified" for r in body["reports"])
    assert out == json.dumps(body, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _benchmark(workload, *args):
    """The result line of perfbench/run.py on the workload, after checking
    that every request matched its pinned digest."""
    proc = run(str(_ROOT / "perfbench" / "run.py"), "--workload", workload, *args)
    _assert_exit(proc)
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    return last


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_benchmark_gate(workload):
    """A 1-second run of the workload: every request matches its pinned digest."""
    _benchmark(workload, "--seconds", "1", "--trace", "0")


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_traced_benchmark_run(workload):
    """The traced run patches program functions by name and reads the
    per-layer metrics off them: it must still run, match every digest and
    report each per-layer metric of BENCHMARK.json."""
    metrics = _benchmark(workload, "--trace", "1")["metrics"]
    missing = [m["name"] for m in _BENCHMARK["per_layer"] if m["name"] not in metrics]
    assert not missing, missing


if __name__ == "__main__":
    # a falsified row: python tests/fresh.py FALSIFIER ARGV...
    globals()[sys.argv[1]]()
    sys.exit(cli.main(sys.argv[2:]))
