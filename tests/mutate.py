"""Mutation census of the symbolic pipeline and the oracle, stdlib only.

Usage, from the root of a checkout::

    python tests/mutate.py src/pmmobility/poc.py src/pmmobility/mobility.py

Every mutation point of four operators in the named files is listed: swap a
comparison (== and !=, < and >=, > and <=, is and is not, in and not in),
swap and/or, negate an if test, flip a bool constant.  Each point is keyed
by its file, its operator, the unparsed text of the node it mutates (an
if's test, else the node) and how many points of that file, operator and
text come before it in ast.walk order.  The forty points whose keys hash
lowest are drawn, so an edit elsewhere in a file leaves the draw as it
was.  Each mutant is written into a temporary copy of src/ and tests/,
never into the checkout, and run with pytest -x over the tests of its
file: the oracle's own test files for oracle.py, the CLI, contract,
acceptance, frozen-answer and lazy-oracle tests for cli.py and report.py,
the symbolic test files for any other.  A mutant whose run passes
survives.  The script prints each verdict, the mutants not killed, and a
sha256 over the keys and verdicts of the drawn mutants.  It exits 1 when
a drawn mutant survives or times out, so a check can rest on it.  pytest
does not collect it.
"""

from __future__ import annotations

import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = 40
TIMEOUT_S = 300
# the fast ones first, as -x stops at the first failure
SYMBOLIC_TESTS = (
    "tests/test_parser.py",
    "tests/test_topology.py",
    "tests/test_poc_algebra.py",
    "tests/test_mobility.py",
    "tests/test_legs.py",
    "tests/test_subchains.py",
    "tests/test_relations.py",
    "tests/test_acceptance.py",
    "tests/test_cli.py",
    "tests/test_symbolic_order.py",
    "tests/test_frozen_answers.py",
)
# the oracle's own tests first, as they kill most of its mutants
ORACLE_TESTS = (
    "tests/test_oracle.py",
    "tests/test_frozen_answers.py",
    "tests/test_oracle_corpus.py",
    "tests/test_legs.py",
    "tests/test_cli.py",
)
# the report layer: the writer's and the renderer's byte-exact tests, and
# the check that the CLI loads the oracle only under --oracle
REPORT_TESTS = (
    "tests/test_cli.py",
    "tests/test_cli_contract.py",
    "tests/test_acceptance.py",
    "tests/test_frozen_answers.py",
    "tests/test_lazy_oracle.py",
)
TESTS = {
    "src/pmmobility/oracle.py": ORACLE_TESTS,
    "src/pmmobility/cli.py": REPORT_TESTS,
    "src/pmmobility/report.py": REPORT_TESTS,
}
_SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _operator(node: ast.AST) -> str | None:
    if isinstance(node, ast.Compare):
        return "compare"
    if isinstance(node, ast.BoolOp):
        return "and-or"
    if isinstance(node, ast.If):
        return "negate-if"
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return "flip-bool"
    return None


def mutation_points(path: str) -> list[tuple[str, int, int, str, str]]:
    """(file, line, node index in ast.walk order, operator, key) of each
    point; the key names the point by what it mutates, not where."""
    tree = ast.parse((ROOT / path).read_text())
    seen: dict[tuple[str, str], int] = {}
    points = []
    for index, node in enumerate(ast.walk(tree)):
        if op := _operator(node):
            text = ast.unparse(node.test if isinstance(node, ast.If) else node)
            occurrence = seen[op, text] = seen.get((op, text), -1) + 1
            points.append((path, node.lineno, index, op, f"{path}\0{op}\0{text}\0{occurrence}"))
    return points


def draw(points: list[tuple[str, int, int, str, str]]) -> list[tuple[str, int, int, str, str]]:
    """The SAMPLE points whose keys hash lowest, in file and line order."""
    lowest = sorted(points, key=lambda point: hashlib.sha256(point[-1].encode()).digest())
    return sorted(lowest[:SAMPLE])


def _mutate(node: ast.AST) -> None:
    if isinstance(node, ast.Compare):
        node.ops[0] = _SWAPS[type(node.ops[0])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.If):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    else:
        node.value = not node.value


def mutant_source(source: str, index: int | None = None) -> str:
    """The source unparsed, with the point at index mutated when given."""
    tree = ast.parse(source)
    if index is not None:
        _mutate(list(ast.walk(tree))[index])
    return ast.unparse(ast.fix_missing_locations(tree))


def verdict(copy: Path, tests: tuple[str, ...]) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += tests
    try:
        run = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if run.returncode == 0 else "killed"


def main(paths: list[str]) -> int:
    drawn = draw([point for path in paths for point in mutation_points(path)])
    digest = hashlib.sha256()
    missed = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        # each mutant differs from this baseline only by its mutation
        originals = {path: (ROOT / path).read_text() for path in paths}
        for path, source in originals.items():
            (copy / path).write_text(mutant_source(source))
        for tests in sorted({TESTS.get(path, SYMBOLIC_TESTS) for path in paths}):
            if verdict(copy, tests) != "survived":
                print(f"{' '.join(tests)} fail without a mutant", file=sys.stderr)
                return 1
        for path, line, index, op, key in drawn:
            (copy / path).write_text(mutant_source(originals[path], index))
            result = verdict(copy, TESTS.get(path, SYMBOLIC_TESTS))
            (copy / path).write_text(mutant_source(originals[path]))
            print(f"{result:8} {path}:{line} {op}", flush=True)
            digest.update(f"{key}\0{result}\n".encode())
            if result != "killed":
                missed.append(f"{path}:{line} {op} {result}")
    print(f"killed {len(drawn) - len(missed)} of {len(drawn)}; not killed:")
    for mutant in missed:
        print(f"  {mutant}")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
