"""Every fast route guarded by a mutant: one table of string edits.

Each row of ROWS is (file, old, new, test ids).  The runner copies src,
tests, perfbench/, pyproject.toml and BENCHMARK.json of the checkout under
the test's tmp_path, asserts that `old` occurs exactly once in the copy of
`file` (so a stale row fails loudly instead of testing nothing), puts `new`
in its place, and runs `pytest -x -q <test ids>` in the copy through
fresh.run, under its memory cap and time limit.  A row passes when that run
fails: pytest exits 1 (a test failed, not a usage or collection error), and
the fgl_forge it imported is the copy's, not the checkout's.

The rows:

- equivariant_ring._residuals returns zero for both relations;
- _residuals compares the numerators (.num) of l_k and its right side in
  place of the polynomials (==), which drops the denominator;
- _residuals builds the right side of relation 2 from gamma l_k, not
  gamma^2 l_k;
- _t_power builds t_i^{2^{j+1}} for t_i^{2^j}, in the logarithm's
  correction sums and the recursion's right side alike;
- the chain-step table keyed by the constant 0, not by the cutoff;
- the chain-step table stores a list and returns it without a copy.

CI runs the module in the step of tests/fresh.py:

    python -m pytest tests/fresh.py tests/mutants.py -q --durations=0

pytest collects only test_*.py by default, so the tier-1 run skips it.  A
row that survives is a finding: a test must catch it, and the row stays.
"""

import shutil
from pathlib import Path

import pytest

import fresh

_ROOT = Path(__file__).resolve().parents[1]
_COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")

_EQUIVARIANT = "src/fgl_forge/equivariant_ring.py"
_RESIDUALS = ("    return (zero if lk == rhs1 else lk - rhs1,\n"
              "            zero if glk == rhs2 else glk - rhs2)\n")
_CHAIN_FILL = """    steps = ctx._chain_steps.get(cutoff)
    if steps is None:
        L = log_series(rn_log(ctx), ctx.ring_q, cutoff)
        terms = [(1, 1)]
        for i in range(1, ctx.k_max + 1):
            ti = ctx.generator(i, rational=True)
            if not ti.is_zero() and (1 << i) <= cutoff:
                terms.append((gamma_act(ti, -1), 1 << i))
        phi = formal_sum_via_log(L, terms)
        steps = ctx._chain_steps[cutoff] = tuple(
"""
_CHAIN_STORE = """        steps = ctx._chain_steps[cutoff] = tuple(
            _gamma_shift(phi, j) for j in range(ctx.half, 0, -1))
    return list(steps)
"""

_FUSED = "tests/test_equivariant.py::test_the_fused_relation_sums_match_the_combine_chain"

# (name, file, old, new, test ids)
ROWS = [
    ("residuals-zero", _EQUIVARIANT, _RESIDUALS, "    return zero, zero\n", [
        _FUSED,
        "tests/test_equivariant.py::test_log_relations_fail_at_relation_2_and_form_no_later_level",
        "tests/test_cli.py::test_a_falsified_claim_exits_one_with_its_failed_report_alone"
        "[_sabotage_eq351]",
    ]),
    ("residuals-num", _EQUIVARIANT, _RESIDUALS,
     _RESIDUALS.replace("lk == rhs1", "lk.num == rhs1.num")
     .replace("glk == rhs2", "glk.num == rhs2.num"), [_FUSED]),
    ("residuals-rhs2-from-gamma", _EQUIVARIANT, "rhs1, rhs2 = glk + a1, g2lk + a2",
     "rhs1, rhs2 = glk + a1, glk + a2", [
         _FUSED, "tests/test_equivariant.py::test_log_relations_exact",
     ]),
    ("t-power-exponent", _EQUIVARIANT, "ring.mono_of(v, 1 << j)",
     "ring.mono_of(v, 1 << (j + 1))", [
        "tests/test_equivariant.py::test_the_recursion_rhs_is_the_power_route_inside_the_caps",
        _FUSED,
    ]),
    ("chain-steps-constant-key", _EQUIVARIANT, _CHAIN_FILL,
     _CHAIN_FILL.replace(".get(cutoff)", ".get(0)").replace("[cutoff]", "[0]"), [
         "tests/test_equivariant.py::"
         "test_the_chain_step_table_reads_each_cutoff_as_a_fresh_context_does",
         "tests/test_equivariant.py::"
         "test_four_threads_on_one_fresh_context_race_on_the_chain_steps",
     ]),
    ("chain-steps-shared-list", _EQUIVARIANT, _CHAIN_STORE,
     _CHAIN_STORE.replace("= tuple(", "= list(").replace("return list(steps)", "return steps"), [
         "tests/test_equivariant.py::test_a_changed_step_list_leaves_the_table_as_it_was",
     ]),
]

# the child: pytest.main in the copy, then the file of the fgl_forge it imported
_CHILD = """
import os, sys
os.chdir(sys.argv[1])
import pytest
code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", *sys.argv[2:]])
print(sys.modules["fgl_forge"].__file__)
sys.exit(code)
"""


def _copy(dst):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out", ".hypothesis")
    for name in _COPIED:
        src = _ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name, ignore=ignore)
        else:
            shutil.copy2(src, dst / name)


@pytest.mark.parametrize("file, old, new, ids", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_mutant_is_killed(tmp_path, file, old, new, ids):
    _copy(tmp_path)
    path = tmp_path / file
    text = path.read_text()
    assert text.count(old) == 1, f"stale row: the old text occurs {text.count(old)} times"
    path.write_text(text.replace(old, new))
    proc = fresh.run("-c", _CHILD, str(tmp_path), *ids)
    imported = proc.stdout.splitlines()[-1] if proc.stdout else ""
    assert Path(imported) == tmp_path / "src" / "fgl_forge" / "__init__.py", proc.stdout
    assert proc.returncode == 1, proc.stdout + proc.stderr


def test_the_runner_passes_the_unmutated_copy(tmp_path):
    """The runner's unmutated copy passes every test a row names, so a row
    is killed by its edit and not by the copy."""
    _copy(tmp_path)
    ids = sorted({test for row in ROWS for test in row[4]})
    proc = fresh.run("-c", _CHILD, str(tmp_path), *ids)
    assert proc.stdout.splitlines()[-1] == str(tmp_path / "src" / "fgl_forge" / "__init__.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
