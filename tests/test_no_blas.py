"""No BLAS or LAPACK call on any value path: a BLAS kernel may round a
sum of products differently from the elementwise expression, and
differently on another CPU, so outputs would depend on the host.

Every subcommand runs in process with numpy's BLAS and LAPACK entry
points replaced by functions that raise. ``a @ b`` on arrays does not go
through a module attribute, so the source of the package is also
scanned for the matrix-multiply operator and for those names."""

import ast
from pathlib import Path

import numpy as np
import pytest

import weakmeas
from weakmeas.cli import main

SRC = Path(weakmeas.__file__).resolve().parent

#: Attribute and import names that reach BLAS or LAPACK.
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}

PATCHED = [(np.linalg, "norm"), (np.linalg, "eigvalsh"), (np, "vdot"), (np, "dot"),
           (np, "inner"), (np, "matmul")]

MODEL_ARGS = [("--model", "linear"), ("--model", "exact-ideal"),
              ("--model", "exact-ppbs", "--tv", "0.6", "--ah", "0.55")]


def blas_uses(path: Path) -> list[int]:
    """Lines of ``path`` that multiply matrices with @ or name a BLAS or
    LAPACK entry point."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and BLAS_NAMES & {a.name for a in node.names}:
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_names_no_blas(path):
    assert blas_uses(path) == []


def test_scan_sees_matmul_and_blas_names(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import numpy as np\nfrom numpy import einsum\n"
                    "a = b @ c\na @= b\nn = np.linalg.norm(a)\nv = np.vdot(a, b)\n")
    assert blas_uses(path) == [2, 3, 4, 5, 6]


def _argvs(tmp_path):
    for i, model in enumerate(MODEL_ARGS):
        yield ["probs", "--theta", "30", "--epsilon", "0.08", *model]
        yield ["estimate", "--theta", "30", "--epsilon", "0.08", "--shots", "1000", *model]
        yield ["montecarlo", "--theta", "30", "--epsilon", "0.08", "--shots", "1000",
               "--replicas", "20", "--seed", "3", *model]
        for fmt in ("csv", "json"):
            yield ["sweep", "--theta-stop", "359", "--epsilon", "0.08", "--postselect", "300",
                   "--format", fmt, "--out", str(tmp_path / f"sweep{i}.{fmt}"), *model]
    yield ["montecarlo", "--theta", "30", "--epsilon", "0.08", "--shots", "1000",
           "--replicas", "20", "--seed", "3", "--mode", "poisson"]
    yield ["weakvalue", "--theta", "30", "--postselect", "200"]
    yield ["fisher", "--theta", "30", "--postselect", "200", "--shots", "1000"]


def test_subcommands_run_without_blas(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS or LAPACK entry point was called")

    for module, name in PATCHED:
        monkeypatch.setattr(module, name, refuse)
    commands = set()
    for argv in _argvs(tmp_path):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        commands.add(argv[0])
    assert commands == {"probs", "sweep", "weakvalue", "fisher", "estimate", "montecarlo"}
