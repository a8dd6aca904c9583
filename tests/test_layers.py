"""The two layers: no production path loads the gate-level circuits module,
no production module imports it, and every function a production module
defines runs on some production path (the block oracles excepted)."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every method, then the report round trip and verification, then each
# command-line verb, in a fresh interpreter under a profiler: qmm.circuits
# must still be unloaded at the end, and the production functions that
# never ran are printed
SCRIPT = """
import inspect
import sys
from pathlib import Path

ran = set()
sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code) if event == "call" else None)

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
a, b, x = (str(out / f"{name}.csv") for name in "abx")
Path(x).write_text("3,-1,4,1\\n")
for argv in (
    ["gen", "--n", "4", "--kappa", "2", "--seed", "1", "--out", a],
    ["gen", "--n", "4", "--kappa", "2", "--seed", "2", "--out", b],
    ["multiply", "--method", "swap", "--a", a, "--b", b, "--out", str(out / "cli-multiply.json")],
    ["readout", "--method", "sve", "--a", a, "--b", b, "--entries-out", str(out / "c.csv")],
    ["prepare", "--method", "dyadic", "--x", x],
    ["verify", str(out / "cli-multiply.json")],
    ["scaling", "--method", "swap", "--n-grid", "2,4", "--eps-grid", "0.2,0.1", "--seeds", "1", "--out", str(out / "s.csv")],
):
    assert qmm.cli.main(argv) == 0, argv
sys.setprofile(None)
assert "qmm.circuits" not in sys.modules, sorted(m for m in sys.modules if m.startswith("qmm"))
never = sorted(
    f"{name[4:]}.{attr}"
    for name, mod in sorted(sys.modules.items())
    if name.startswith("qmm.")
    for attr, fn in vars(mod).items()
    if inspect.isfunction(fn) and fn.__module__ == name and fn.__code__ not in ran
)
import qmm.circuits
print("never ran:", *never)
"""
# the block oracles the closed-form kernels are tested against;
# bench/tests/test_bench.py pins _sve_component's import-time binding
BLOCK_ORACLES = ["matmul._hhl_component", "matmul._phase0_after_undo", "matmul._sve_component", "matmul._walk_plane"]


def test_production_paths_never_load_circuits(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1].split() == ["never", "ran:", *BLOCK_ORACLES]
    assert len(list(tmp_path.glob("*.json"))) == 13


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
