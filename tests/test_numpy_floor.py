"""The package must run on numpy 1.25, the floor in pyproject.toml, which no
test environment here has installed. This scans the source, the tests and
the benchmark for numpy names and keywords that arrived in numpy 2 instead."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pwexp"

# attributes of the numpy namespace (dotted below it) that numpy 1.25 lacks
NUMPY2_NAMES = {
    "trapezoid", "concat", "strings", "isdtype", "astype", "unique_values", "unique_all",
    "unique_counts", "unique_inverse", "cumulative_sum", "cumulative_prod", "vecdot", "vecmat",
    "matvec", "matrix_transpose", "permute_dims", "bitwise_count", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "pow", "acos", "acosh", "asin", "asinh", "atan",
    "atan2", "atanh", "long", "ulong", "linalg.vector_norm", "linalg.matrix_norm", "linalg.vecdot",
    "linalg.matrix_transpose", "linalg.diagonal", "linalg.trace", "linalg.outer", "linalg.cross",
    "linalg.svdvals", "linalg.tensordot", "linalg.matmul", "dtypes.StringDType",
}
# (function, keyword) pairs whose keyword numpy 1.25 does not accept
NUMPY2_KEYWORDS = {
    ("sort", "stable"), ("argsort", "stable"), ("asarray", "copy"), ("unique", "sorted"),
    ("reshape", "shape"), ("reshape", "copy"),
}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def numpy2_uses(source: str) -> list[str]:
    """Each use of a name or keyword from ``NUMPY2_NAMES`` and
    ``NUMPY2_KEYWORDS`` in ``source``, as ``line: np.name``."""
    tree = ast.parse(source)
    aliases = {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            below = node.module.partition(".")[2]
            for a in node.names:
                name = f"{below}.{a.name}" if below else a.name
                if name in NUMPY2_NAMES:
                    found.append(f"{node.lineno}: from {node.module} import {a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            head, _, rest = (_dotted(node) or "").partition(".")
            if head in aliases and rest in NUMPY2_NAMES:
                found.append(f"{node.lineno}: np.{rest}")
        elif isinstance(node, ast.Call):
            head, _, rest = (_dotted(node.func) or "").partition(".")
            if head in aliases:
                found += [f"{node.lineno}: np.{rest}({kw.arg}=)" for kw in node.keywords
                          if (rest, kw.arg) in NUMPY2_KEYWORDS]
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_uses_no_numpy2_only_api(path):
    assert numpy2_uses(path.read_text()) == []


# the CI entry on numpy 1.25 runs the tests and the benchmark as well
@pytest.mark.parametrize("path", sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_tests_and_benchmark_use_no_numpy2_only_api(path):
    assert numpy2_uses(path.read_text()) == []


@pytest.mark.parametrize("snippet, hit", [
    ("import numpy as np\nnp.trapezoid(y)", "2: np.trapezoid"),
    ("import numpy\nnumpy.concat([a, b])", "2: np.concat"),
    ("import numpy as xp\nx = xp.linalg.vector_norm(v)", "2: np.linalg.vector_norm"),
    ("from numpy import cumulative_sum", "1: from numpy import cumulative_sum"),
    ("import numpy as np\nnp.sort(a, stable=True)", "2: np.sort(stable=)"),
    ("import numpy as np\nnp.asarray(a, copy=False)", "2: np.asarray(copy=)"),
])
def test_scanner_flags_numpy2_names(snippet, hit):
    assert numpy2_uses(snippet) == [hit]


def test_scanner_ignores_methods_and_other_modules():
    src = "import numpy as np\nimport math\nx = a.astype(float)\nmath.pow(2, 3)\nnp.sort(a, kind='stable')"
    assert numpy2_uses(src) == []
