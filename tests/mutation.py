"""A mutation probe: the operator swaps in one module that no test catches.

    python tests/mutation.py src/relmux/evaluation.py tests/test_evaluation.py

It parses the module with ``ast`` and swaps one operator at a time: + and -,
* and /, < and <=, > and >=, == and !=. Each mutant is written into a
temporary copy of the repository's ``src``, ``tests``, ``configs`` and
``pyproject.toml``, never into the working tree, and the given test files
run against that copy with ``-x``. A mutant they pass is run again against
the whole tier-1 suite, and one that passes that too is a survivor. Sites in
``EQUIVALENT`` are skipped, each with the reason no test can tell its swap
apart. It prints one line per site and exits 1 when any mutant survives.

This file is a script: its name does not match ``test_*.py``, so pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}
# "<module file>:<line>:<columns> <op> -> <op>", as the probe prints it: why
# no test can tell the swap apart.
# An entry whose line has moved no longer matches, so its site runs again.
EQUIVALENT: dict[str, str] = {
    "tensor.py:92:39-60 == -> !=": "Tensor._accumulate's adopt condition: np.require hands back a C-contiguous "
                                   "float64 g itself, so a float64 gradient is adopted either way, and no op "
                                   "hands on another dtype",
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Each swappable operator as (node, index into a comparison's ops, or
    None for a binary or augmented operator), in source order."""
    found: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))


def mutant(source: str, k: int) -> tuple[str, str]:
    """The source with site k swapped, and the site's label: line, the
    columns its expression spans, and for a chained comparison the
    operator's place in the chain."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    old = type(node.op if i is None else node.ops[i])
    if i is None:
        node.op = SWAPS[old]()
    else:
        node.ops[i] = SWAPS[old]()
    place = f"[{i}]" if i is not None and len(node.ops) > 1 else ""
    span = f"{node.lineno}:{node.col_offset}-{node.end_col_offset}{place}"
    return ast.unparse(tree), f"{span} {SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def _env(copy: Path) -> dict[str, str]:
    # no bytecode cache: a mutant of the same size written within the same
    # second as the last one would otherwise load the last one's cached code
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def passes(copy: Path, args: list[str], timeout: float) -> bool:
    """Whether pytest passes in the copy; a run past ``timeout`` fails."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        return subprocess.run(cmd, cwd=copy, env=_env(copy), capture_output=True, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def timed_pass(copy: Path, args: list[str]) -> float:
    """Seconds the unmutated copy takes to pass ``args``; exits if it fails."""
    start = time.perf_counter()
    if not passes(copy, args, timeout=3600):
        sys.exit(f"the unmutated copy fails: pytest {' '.join(args)}")
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="the test files that should kill each mutant")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text(encoding="utf-8")
    n_sites = len(sites(ast.parse(source)))
    name = Path(args.module).name
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for entry in COPIED:
            src = ROOT / entry
            if src.is_dir():
                shutil.copytree(src, copy / entry, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / entry)
        target = copy / args.module
        # the probe is only as good as its copy: the tests must import the
        # copy's package, and the unparsed, unmutated module must pass
        where = subprocess.run([sys.executable, "-c", "import relmux; print(relmux.__file__)"],
                               cwd=copy, env=_env(copy), capture_output=True, text=True).stdout
        if not Path(where.strip()).is_relative_to(copy):
            sys.exit(f"the copy's tests would import relmux from {where.strip() or 'nowhere'}")
        target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        focused_s = timed_pass(copy, args.tests)
        tier1_s = timed_pass(copy, ["--continue-on-collection-errors"])
        for k in range(n_sites):
            text, label = mutant(source, k)
            site = f"{name}:{label}"
            if site in EQUIVALENT:
                print(f"{site}: equivalent ({EQUIVALENT[site]})", flush=True)
                continue
            target.write_text(text, encoding="utf-8")
            if not passes(copy, args.tests, timeout=10 * focused_s + 30):
                outcome = "killed"
            elif not passes(copy, ["--continue-on-collection-errors"], timeout=10 * tier1_s + 30):
                outcome = "killed by tier-1 only"
            else:
                outcome, survivors = "SURVIVES", survivors + 1
            print(f"{site}: {outcome}", flush=True)
    print(f"{n_sites} sites, {survivors} surviving")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
