"""The two layers: no production path loads the gate-level circuits module,
and no production module imports it."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every method, then the report round trip and verification, in a fresh
# interpreter; qmm.circuits must still be unloaded at the end
SCRIPT = """
import sys
from pathlib import Path

import qmm.cli
from qmm import harness, io

out = Path(sys.argv[1])
for method in harness.MULTIPLY_METHODS + harness.READOUT_METHODS + harness.PREP_METHODS:
    if method.startswith("prep-"):
        inputs = {"x": harness.generate_vector(16, 4.0, 0)}
    else:
        inputs = {"a": harness.generate_matrix(4, 2.0, 0), "b": harness.generate_matrix(4, 2.0, 1)}
    cfg = harness.ExperimentConfig(method=method, eps=0.1, seed=0, inputs=inputs)
    path = out / f"{method}.json"
    io.save_report_json(path, harness.run_experiment(cfg).to_dict())
    ok, findings = harness.verify_bounds(io.load_report_json(path))
    assert ok, (method, findings)
assert "qmm.circuits" not in sys.modules, sorted(m for m in sys.modules if m.startswith("qmm"))
import qmm.circuits
print("ok")
"""


def test_production_paths_never_load_circuits(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
    assert len(list(tmp_path.glob("*.json"))) == 12


def test_only_circuits_imports_circuits():
    importers = []
    for path in sorted((SRC / "qmm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "circuits" for n in names):
                importers.append(path.name)
    assert importers == []
