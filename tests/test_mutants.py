"""Mutation kill table: what the certifier rejects among wrong programs.

Each mutant is one plausible mistake, written as one source edit of one
module.  The edit is applied to a copy of the package, and a fresh
interpreter that imports the copy runs, at n = 3 and at q = 0.3 and
q = 0.5i (trunc 120), every verify suite on its own and matrix mode (the
agreement of the three constructions), each through ``cli.run`` at the
default seed.  A suite kills a mutant when it fails or raises.  The kill
sets are pinned as measured, and the unmutated control kills nothing, so a
suite that stops catching a mutant fails here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ellweights

SRC = Path(ellweights.__file__).resolve().parent

#: name -> (module, old text, new text), or None for the unmutated control
MUTANTS = {
    "control": None,
    "psi hbar shift subtracted": (
        "weightfn", "return lx + p.log_h if e else lx", "return lx - p.log_h if e else lx"),
    "psi mu difference sign flipped": (
        "weightfn", "lx + e * p.log_h + p.mu(k + 1) - p.mu(j)",
        "lx + e * p.log_h - p.mu(k + 1) + p.mu(j)"),
    "psi cases (1, None) and (0, None) swapped": (
        "weightfn", "tuple((int(ic < ia), None) if ic != ia",
        "tuple((int(ic > ia), None) if ic != ia"),
    "symmetrization drops its last term": (
        "weightfn", "for perm in itertools.product(*map(itertools.permutations, levels))]",
        "for perm in itertools.product(*map(itertools.permutations, levels))][:-1]"),
    "every term times theta(hbar)/theta(hbar + 0.01)": (
        "weightfn", "out.append(num / den)",
        "out.append(num / den * theta(ctx, p.log_h) / theta(ctx, p.log_h + 0.01))"),
    "P_args -hbar for +hbar": (
        "weightfn", "args.append(p.log_h + lx if il < ik else lx)",
        "args.append(-p.log_h + lx if il < ik else lx)"),
    "P_args hbar on I_l > I_k": (
        "weightfn", "args.append(p.log_h + lx if il < ik else lx)",
        "args.append(p.log_h + lx if il > ik else lx)"),
    "A_diagonal without sign(I)": (
        "restriction", "return (I.sign() * P(I, p.log_z, p, ctx)",
        "return (P(I, p.log_z, p, ctx)"),
    "global_sign always +1": (
        "mirror", "return -1 if (n * (n - 1) // 2) % 2 else 1", "return 1"),
    "kappa without the mu reversal": (
        "mirror", "log_z=tuple(p.log_mu[n - 1 - i] for i in range(n)),",
        "log_z=tuple(p.log_mu[i] for i in range(n)),"),
    "felder_R exchange entry theta(x - m) for theta(x + m)": (
        "rmatrix", "else (lx + lmu, p.log_h)", "else (lx - lmu, p.log_h)"),
    "theta without its first q-product factors": (
        "qtheta", "np.exp(log_q * np.arange(trunc))", "np.exp(log_q * np.arange(1, trunc + 1))"),
    "theta truncated to trunc/4 (error about 1e-9, below tol)": (
        "qtheta", "np.exp(log_q * np.arange(trunc))", "np.exp(log_q * np.arange(trunc // 4))"),
}

_PSI = ("diagonal", "rmatrel", "dualrel", "mirror", "interface", "matrix")
_THETA = ("theta", "rmatrel", "dualrel", "mirror", "interface", "matrix")

#: name -> (kill set at q = 0.3, kill set at q = 0.5i), as measured; every
#: mutant but the truncation below tol is killed at both q
KILLS = {
    "control": ((), ()),
    "psi hbar shift subtracted": (_PSI, _PSI),
    "psi mu difference sign flipped": (_PSI, _PSI),
    "psi cases (1, None) and (0, None) swapped": (("triangular",) + _PSI,) * 2,
    "symmetrization drops its last term": (_PSI[1:],) * 2,
    "every term times theta(hbar)/theta(hbar + 0.01)": (("diagonal", "matrix"),) * 2,
    # the recursions seed their diagonals from P_args too
    "P_args -hbar for +hbar": (("diagonal", "matrix"),) * 2,
    "P_args hbar on I_l > I_k": (("diagonal", "matrix"),) * 2,
    "A_diagonal without sign(I)": (("diagonal",),) * 2,
    "global_sign always +1": (("mirror", "interface"),) * 2,
    # the dual recursion reads its R-matrix at the kappa-swapped point
    "kappa without the mu reversal": (("dualrel", "mirror", "interface", "matrix"),) * 2,
    "felder_R exchange entry theta(x - m) for theta(x + m)": (("rmatrel", "dualrel"),) * 2,
    "theta without its first q-product factors": (_THETA, _THETA),
    "theta truncated to trunc/4 (error about 1e-9, below tol)": (
        ("dualrel",), ("rmatrel", "interface")),
}

_RUN = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import ellweights
from ellweights import cli
assert ellweights.__file__.startswith(sys.argv[1]), ellweights.__file__
kills = []
for q, trunc in ((0.3, None), (0.5j, 120)):
    killed = []
    for name in cli.SUITE_NAMES + ("matrix",):
        config = (cli.RunConfig(n=3, q=q, trunc=trunc, mode="matrix") if name == "matrix"
                  else cli.RunConfig(n=3, q=q, trunc=trunc, suites=(name,)))
        try:
            status, _ = cli.run(config)
        except Exception:
            status = 1
        if status:
            killed.append(name)
    kills.append(killed)
print(json.dumps(kills))
"""


def kill_sets(root: Path, edit) -> tuple[tuple[str, ...], ...]:
    """Kill sets at both q of the package copied under root with edit
    applied, each in ``cli.SUITE_NAMES`` order with matrix mode last."""
    pkg = root / "ellweights"
    shutil.copytree(SRC, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        module, old, new = edit
        path = pkg / f"{module}.py"
        text = path.read_text()
        assert text.count(old) == 1, f"{module}.py holds {old!r} {text.count(old)} times"
        path.write_text(text.replace(old, new))
    out = subprocess.run([sys.executable, "-c", _RUN, str(root)], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return tuple(tuple(k) for k in json.loads(out.stdout))


@pytest.mark.parametrize("name", list(MUTANTS))
def test_kill_set_pinned(name, tmp_path):
    assert kill_sets(tmp_path, MUTANTS[name]) == KILLS[name]
