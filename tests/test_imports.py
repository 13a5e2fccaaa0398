"""Each ltgsim module keeps its underscore names to itself, no run path
leaves numpy's core for numpy.linalg, numpy.polynomial or BLAS, and no
module computes in an extended-precision type.

A private name is free to change with its module; another module that
imports it would silently depend on that detail.  A matrix product or a
linalg or polynomial call goes through OpenBLAS or LAPACK, whose kernels
are chosen for the CPU and whose threads follow the environment, so the
bits of a result would depend on both.  ``long double`` is 80-bit x87 on
x86-64 Linux, binary128 in software on aarch64 and plain double on Windows
and macOS arm64, so a result summed in it would depend on the platform.
The static tests read every module under ``src/ltgsim`` with ``ast``; the
runtime guard runs every command in a child process with the numpy.linalg
functions made to raise.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ltgsim"

# numpy attributes that reach BLAS or LAPACK, as read after ``np.`` or ``numpy.``
BLAS_ATTRIBUTES = {"dot", "matmul", "linalg", "polynomial"}

# numpy's extended-precision types, as attributes, imported names or dtype strings
LONG_DOUBLE_NAMES = {"longdouble", "clongdouble", "float128", "complex256", "float96", "longfloat"}


def private_imports(path: Path) -> list[str]:
    """``module:line name`` for each underscore name ``path`` imports from ltgsim."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "ltgsim":
            continue
        found += [f"{path.stem}:{node.lineno} {alias.name}" for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def blas_uses(path: Path) -> list[str]:
    """``module:line what`` for each ``@``, ``np.dot``, ``np.matmul``,
    ``np.linalg`` or ``np.polynomial`` in ``path``, imports included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.stem}:{node.lineno} @")
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{path.stem}:{node.lineno} {node.value.id}.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{name}" for name in names]
            found += [f"{path.stem}:{node.lineno} import {name}" for name in names
                      if name.split(".")[:2] in (["numpy", attr] for attr in BLAS_ATTRIBUTES)]
    return found


def long_double_uses(path: Path) -> list[str]:
    """``module:line name`` for each extended-precision type ``path`` names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [f"{path.stem}:{node.lineno} {name}" for name in names if name in LONG_DOUBLE_NAMES]
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_blas_scan_finds_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nimport numpy.linalg\nfrom numpy import polynomial\n"
                     "a = b @ c\na @= b\nnp.dot(a, b)\nnp.linalg.solve(a, b)\nnp.einsum('i,i', a, b)\n")
    assert sorted(blas_uses(probe)) == ["probe:2 import numpy.linalg", "probe:3 import numpy.polynomial",
                                        "probe:4 @", "probe:5 @", "probe:6 np.dot", "probe:7 np.linalg"]


def test_no_module_calls_blas_or_lapack():
    # Every product is an einsum with optimize=False or elementwise
    # arithmetic, every small solve is in Python floats.
    modules = sorted(SRC.glob("*.py"))
    assert [hit for path in modules for hit in blas_uses(path)] == []


def test_long_double_scan_finds_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy import float128\nnp.zeros(3, dtype=np.longdouble)\n"
                     "x.astype('clongdouble')\nnumpy.complex256\nnp.float96, np.longfloat\n"
                     "np.float64('longdouble_like')\n")
    assert sorted(long_double_uses(probe)) == [
        "probe:2 float128", "probe:3 longdouble", "probe:4 clongdouble", "probe:5 complex256",
        "probe:6 float96", "probe:6 longfloat"]


def test_no_module_computes_in_long_double():
    # The Monte Carlo sums are IEEE double in a fixed order, so their bits do
    # not depend on the width of the platform's long double.
    modules = sorted(SRC.glob("*.py"))
    assert [hit for path in modules for hit in long_double_uses(path)] == []


# Runs every preset, the optics table, the closed form and a small Monte Carlo
# with every numpy.linalg function made to raise, then reports whether
# numpy.polynomial was ever imported.
_GUARD_PROBE = """
import json, sys
import numpy.linalg

def refuse(*args, **kwargs):
    raise AssertionError("a run path called numpy.linalg")

for name in numpy.linalg.__all__:
    if callable(getattr(numpy.linalg, name)) and not isinstance(getattr(numpy.linalg, name), type):
        setattr(numpy.linalg, name, refuse)

from ltgsim.cli import PRESETS, run_config
configs = [{"preset": name} for name in sorted(PRESETS)] + [
    {"command": "optics-table"}, {"command": "analytic"},
    {"command": "mc-moment", "rtn": {"gamma": 1.0}, "mc": {"n_real": 200}}]
for config in configs:
    run_config(config)
print(json.dumps({"runs": len(configs), "polynomial": "numpy.polynomial" in sys.modules}))
"""


def test_run_paths_call_no_linalg_and_load_no_polynomial(child_env):
    proc = subprocess.run([sys.executable, "-c", _GUARD_PROBE], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"runs": 8, "polynomial": False}
