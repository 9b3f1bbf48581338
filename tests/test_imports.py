"""Import budget: the SciPy subpackages that no default pipeline uses stay unloaded.

Each check runs in a fresh interpreter, because the test process has
imported them already. Also the import contract of the voxel oracle,
read from its source.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cplab

SRC = Path(cplab.__file__).resolve().parent.parent

SCRIPT = textwrap.dedent('''
    import sys
    from pathlib import Path

    UNUSED = ("scipy.interpolate", "scipy.optimize", "scipy.ndimage", "scipy.special")

    def loaded():
        return [name for name in UNUSED if name in sys.modules]

    from cplab import cli, config, fieldio

    TEMPLATE = """
    [domain]
    {domain}
    n = 3
    [nonlinearity]
    {nonlinearity}
    [grid]
    nr = 17
    nz = 33
    [oracle]
    N = 16
    [run]
    uniqueness_seeds = 2
    """
    TORSION = "form = constant\\nc = 1.0"
    CONFIGS = {
        "ball": ("kind = ball\\na = 1.0", "form = gelfand\\nlambda = 1.0"),
        "spheroid": ("kind = spheroid\\na = 1.0\\nb = 0.5", TORSION),
        "bump": ("kind = bump\\ncoeffs = 1 0 -2 0 1", TORSION),
    }
    cfgs = {}
    for name, (domain, nonlinearity) in CONFIGS.items():
        path = Path(name + ".cfg")
        path.write_text(TEMPLATE.format(domain=domain, nonlinearity=nonlinearity))
        cfgs[name] = config.parse_config(path)
    assert loaded() == [], f"set-up loaded {loaded()}"

    before = set(sys.modules)
    assert cli.run("verify", cfgs["ball"], Path("verify"), 0, quiet=True) == 0
    assert cli.run("oracle3d", cfgs["bump"], Path("oracle"), 0, quiet=True) == 0
    assert cli.run("continue", cfgs["spheroid"], Path("continue"), 0, quiet=True) == 0
    assert loaded() == [], f"the pipelines loaded {loaded()}"
    late = sorted(name for name in set(sys.modules) - before if name.startswith("scipy"))
    assert late == [], f"the pipelines imported {late} after set-up"

    from cplab import domain
    domain.tabulated([0.0, 0.5, 1.0], [0.5, 0.4, 0.0])
    assert "scipy.interpolate" in loaded(), "a tabulated profile did not load scipy.interpolate"
''')


def test_default_pipelines_load_no_unused_scipy_subpackage(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


# The meridian pipeline that the voxel oracle cross-checks: its stencil,
# Newton, linear algebra, eigen solve, checks and homotopy.
MERIDIAN_PIPELINE = {"cplab.solver", "cplab.stability", "cplab.verify", "cplab.continuation"}


def imported_modules(path: Path, package: str) -> set:
    """Every module that the source file at `path`, in `package`, imports by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_the_voxel_oracle_imports_nothing_of_the_meridian_pipeline():
    # It shares the body's geometry with `domain`, and nothing it checks.
    modules = imported_modules(SRC / "cplab" / "oracle3d.py", "cplab")
    assert "cplab.domain" in modules
    assert modules & MERIDIAN_PIPELINE == set()


# Every setting comes from the config file or the command line.
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list:
    """Each place where the source file at `path` reads the process environment."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"{path.name}:{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(f"{path.name}:{node.lineno}: from os import {alias.name}"
                         for alias in node.names if alias.name in ENVIRONMENT_READS)
    return found


def test_no_module_reads_an_environment_variable():
    modules = sorted((SRC / "cplab").glob("*.py"))
    assert modules
    assert [read for path in modules for read in environment_reads(path)] == []
