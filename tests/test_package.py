"""The package surface: its exports, and the README's library quick start."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ginprod
from ginprod import beta_poly, cli, combinatorics, edge_analysis, moment_engine, montecarlo, verify

MODULES = (combinatorics, beta_poly, moment_engine, edge_analysis, montecarlo, verify)
SRC = Path(ginprod.__file__).parents[1]


def test_exports_are_the_modules_own_lists():
    assert ginprod.__all__ == ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert len(set(ginprod.__all__)) == len(ginprod.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ginprod, name) is getattr(module, name), name


def test_init_names_no_export_in_a_string():
    tree = ast.parse(Path(ginprod.__file__).read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert strings & set(ginprod.__all__) == {"__version__"}


def test_readme_quick_start_runs():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    done = subprocess.run(
        [sys.executable, "-c", block], cwd=SRC.parent, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert 3.5 < float(done.stdout) < 4  # the sampled mean of s_1^2, below u_1 = 4


def test_docstring_references_resolve():
    # A renamed or deleted helper must not live on in the prose that names it:
    # every :func:, :data: and :class: reference in src/ is a name of its module
    # or, dotted, of the package.
    references = 0
    for module in (ginprod, *MODULES, cli):
        for name in re.findall(r":(?:func|data|class):`([\w.]+)`", Path(module.__file__).read_text(encoding="utf-8")):
            head, *rest = name.split(".")
            obj = getattr(module, head) if hasattr(module, head) else getattr(ginprod, head, None)
            for attr in rest:
                obj = getattr(obj, attr, None)
            assert obj is not None, f"{module.__name__} names {name}, which does not resolve"
            references += 1
    assert references > 30


def _unreferenced_functions(package: Path) -> set[str]:
    """Module-level functions of ``package`` that no code outside their own body reads.

    A function is read where its name is loaded, bare or as an attribute;
    strings, docstrings and ``__all__`` entries do not count.
    """
    defined, read = set(), set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(top.name)
                names.discard(top.name)
            read |= names
    return defined - read


def test_every_function_in_src_is_called_from_src():
    # A function only the tests call is a second way to do a job. Two are
    # exempt: replicate_rng states the reproducibility contract the tests
    # check the samplers against, and the package's module __getattr__ is
    # called by the interpreter, for a name the package does not hold yet.
    assert _unreferenced_functions(SRC / "ginprod") == {"replicate_rng", "__getattr__"}


def _in_child(code: str) -> list[str]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                          check=True).stdout.split()


def test_import_leaves_numpy_unloaded_until_a_sampler_name_is_read():
    # Only the sampler needs numpy; the first read of one of its names loads both.
    code = ("import sys, ginprod\n"
            "print('numpy' in sys.modules, 'ginprod.montecarlo' in sys.modules)\n"
            "spectra = ginprod.collect_spectra\n"
            "print('numpy' in sys.modules, spectra is sys.modules['ginprod.montecarlo'].collect_spectra)\n")
    assert _in_child(code) == ["False", "False", "True", "True"]


def test_star_import_binds_every_export():
    code = ("from ginprod import *\n"
            "import ginprod\n"
            "names = vars()\n"
            "print(len(ginprod.__all__), sum(names[name] is getattr(ginprod, name) for name in ginprod.__all__))\n")
    count, bound = _in_child(code)
    assert int(bound) == int(count) > 0
