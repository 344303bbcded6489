"""Package-level checks: what importing gaussent pulls in, and the README."""

import ast
import json
import os
import re
import subprocess
import sys
from math import log10
from pathlib import Path

import pytest

import gaussent
from gaussent import cli
from gaussent.spectra import SPECTRUM_COLUMNS, bundled_fixture_path, synthesize_spectra

SRC = Path(gaussent.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

#: Public names that neither the CLI nor perfbench/ reaches, each kept for the
#: reason given: an acceptance criterion that calls it, or README, which names it.
#: Every other public name must be reached, or it goes.
UNREACHED_BUT_KEPT = {
    "capacity_ratio": "acceptance criterion 8; the scalar form of a dense_ratio cell",
    "cm_from_photons": "acceptance criterion 10",
    "apply_local_squeezing": "acceptance criterion 11",
    "synthesize_spectra": "README: the spectra its CLI examples run on",
    "k_parameter": "README: the bias parameter k, whose disagreement analyze refuses",
}


#: What a fresh interpreter loads of numpy and scipy: after a statement, or
#: after ``python -m gaussent.cli`` runs an argv ("{tmp}" is the test's
#: directory).  Only the subcommands that build a table load numpy; the two
#: that do show that the probe sees it.
LOADS = {
    "import gaussent": ("import gaussent", []),
    "import gaussent.cli": ("import gaussent.cli", []),
    "--help": (["--help"], []),
    "analyze --at": (["analyze", "--at", "6.5MHz"], []),
    "analyze --cm biased": (["analyze", "--cm", "{tmp}/biased.json"], []),
    "model": (["model", "--v1", "0.5", "--v2", "0.5", "--eta", "0.86"], []),
    "sweep-loss": (["sweep-loss", "--v", "0.5", "--steps", "5"], []),
    "fixtures": (["fixtures"], []),
    "ingest": (["ingest", "{tmp}/spectra.csv"], ["numpy"]),
    "contours": (["contours", "--metric", "epr", "--grid", "3"], ["numpy"]),
}
#: A bare matrix whose beam y is noisier than beam x, so biased, with a measured block.
BIASED = {
    "order": ["xp", "xm", "yp", "ym"],
    "matrix": [
        [1.1, 0.0, -0.8, 0.0],
        [0.0, 1.1, 0.0, 0.8],
        [-0.8, 0.0, 1.4, 0.0],
        [0.0, 0.8, 0.0, 1.4],
    ],
    "measured": {"v_sum_plus": 0.45, "v_diff_minus": 0.45, "cv_plus": 0.6, "cv_minus": 0.6},
}


@pytest.mark.parametrize("case", LOADS)
def test_only_the_table_subcommands_load_numpy(case, tmp_path):
    """The numpy and scipy packages in ``sys.modules`` as the interpreter exits,
    after each statement or command line has run and exited 0."""
    (tmp_path / "biased.json").write_text(json.dumps(BIASED))
    (tmp_path / "spectra.csv").write_text(
        ",".join(SPECTRUM_COLUMNS) + "\n6.5,1.2,1.3,1.2,1.3,0.6,0.7\n"
    )
    run, expected = LOADS[case]
    if isinstance(run, list):  # as `python -m gaussent.cli` runs it
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in run]
        run = (
            f"import runpy; sys.argv[1:] = {argv!r}; "
            "runpy.run_module('gaussent.cli', run_name='__main__', alter_sys=True)"
        )
    probe = (
        "import atexit, sys; atexit.register(lambda: print(sorted("
        "{m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}), file=sys.stderr))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", probe + run], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [repr(expected)]


def test_cli_import_builds_no_float_text_table():
    """The float-text kernel's tables, the writers' and the reader's, are built
    on their first call, not at import."""
    probe = (
        "import gaussent.cli, gaussent._floattext as kernel; "
        "print(kernel._tables.cache_info().currsize + kernel._powers.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_cli_import_leaves_importlib_resources_unloaded():
    """``import gaussent.cli`` finds the bundled anchors without importlib.resources.
    ``-S``: a site-packages ``.pth`` file may import it before the package does."""
    probe = "import sys, gaussent.cli; print('importlib.resources' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _numpy_imports(tree):
    """(enclosing nodes, outermost first; node) of each ``import numpy...`` or
    ``from numpy... import`` in a module, at any depth."""
    stack = [((), tree)]
    while stack:
        outer, node = stack.pop()
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if any(module.split(".")[0] == "numpy" for module in modules):
            yield outer, node
        stack.extend((outer + (node,), child) for child in ast.iter_child_nodes(node))


def _numpy_home(module: str, outer: tuple, node: ast.stmt) -> str | None:
    """Which of the three places numpy may be imported holds this import, or None."""
    parent = outer[-1]
    if module == "_floattext" and isinstance(parent, ast.Module):
        return "_floattext, at module level"
    if module == "states" and any(
        isinstance(n, ast.ClassDef) and n.name == "_Numpy" for n in outer
    ):
        return "states._Numpy"
    if (
        isinstance(parent, ast.If)
        and isinstance(parent.test, ast.Name)
        and parent.test.id == "TYPE_CHECKING"
        and node in parent.body
    ):
        return f"{module}, under TYPE_CHECKING"
    return None


def test_numpy_is_imported_in_its_one_home():
    """Every import of numpy in src/gaussent, at any depth, is ``_floattext``'s
    module-level one, the one in ``states._Numpy`` that every other module
    reaches as ``states.np``, or one for type checkers only."""
    homes, strays = [], []
    for path in sorted((SRC / "gaussent").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer, node in _numpy_imports(tree):
            home = _numpy_home(path.stem, outer, node)
            (homes if home else strays).append(home or f"{path.name}:{node.lineno}")
    assert strays == []
    assert sorted(homes) == [
        "_floattext, at module level", "states, under TYPE_CHECKING", "states._Numpy",
    ]


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert float(lines[0]) < 1.0
    assert float(lines[1]) < 1.0
    assert lines[2].startswith("PhotonDecomposition(")
    assert 2.0 / 3.0 < float(lines[3]) < 1.0


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Each `gaussent ...` line of README's CLI block exits 0, on the inputs it names."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.DOTALL).group(1)
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("gaussent ")]
    rows = [[getattr(row, name) for name in SPECTRUM_COLUMNS] for row in synthesize_spectra()]
    for name, cell in (("spectra.csv", repr), ("spectra_db.csv", lambda v: repr(10 * log10(v)))):
        body = "".join(f"{row[0]!r},{','.join(map(cell, row[1:]))}\n" for row in rows)
        (tmp_path / name).write_text(",".join(SPECTRUM_COLUMNS) + "\n" + body)
    anchors = tmp_path / "src" / "gaussent" / "fixtures" / "paper_anchors.json"
    anchors.parent.mkdir(parents=True)
    anchors.write_bytes(Path(bundled_fixture_path()).read_bytes())
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 10
    for argv in lines:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert capsys.readouterr().err == ""
    assert (tmp_path / "derived.csv").read_text().count("\n") == len(rows) + 1


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function or class of a
    module, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _references(tree, outside):
    """The names a module refers to as code (a Name, an Attribute or an
    import), skipping the subtree ``outside``; docstrings are not code."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is outside:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        stack.extend(ast.iter_child_nodes(node))


def test_every_public_name_is_reached():
    """Every public function, class and method of src/gaussent is referred to
    by the package or by perfbench/ outside its own definition, or is kept,
    with its reason, in UNREACHED_BUT_KEPT."""
    modules = sorted((SRC / "gaussent").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    callers = list(trees.values())
    callers += [ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")]
    unreached = [
        f"{path.stem}.{qualified}"
        for path, tree in trees.items()
        for qualified, node in _public_definitions(tree)
        if not any(node.name in set(_references(caller, node)) for caller in callers)
    ]
    assert sorted(name.rpartition(".")[2] for name in unreached) == sorted(UNREACHED_BUT_KEPT), (
        unreached
    )


def test_no_private_helper_outlives_its_callers():
    """Every private top-level function and class of src/gaussent is referred
    to by the package outside its own definition: none is kept for tests alone."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in (SRC / "gaussent").glob("*.py")]
    everywhere = [set(_references(tree, None)) for tree in trees]
    unreached = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        if not any(
            node.name in (set(_references(tree, node)) if caller is tree else names)
            for caller, names in zip(trees, everywhere)
        )
    ]
    assert unreached == []


def test_only_code_outside_a_definition_reaches_it():
    module = ast.parse(
        "def used():\n    return used()\n\n"
        "def documented():\n    \"\"\"See used() and unused().\"\"\"\n    return used\n\n"
        "def unused():\n    return 'unused'\n"
    )
    definitions = dict(_public_definitions(module))
    reached = {
        name for name, node in definitions.items()
        if name in set(_references(module, node))
    }
    # A recursive call, a docstring and a string do not count; a bare Name does.
    assert reached == {"used"}
    assert "documented" not in set(_references(module, None))
    imports = ast.parse("from gaussent.spectra import derive_row\nimport gaussent.cli\nx.pure")
    assert {"derive_row", "cli", "pure"} <= set(_references(imports, None))


@pytest.mark.parametrize("name, reason", sorted(UNREACHED_BUT_KEPT.items()))
def test_each_kept_name_has_the_use_its_reason_states(name, reason):
    if reason.startswith("acceptance criterion "):
        number = int(reason.split()[2].rstrip(";"))
        tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
        (criterion,) = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith(f"test_criterion_{number:02d}_")
        ]
        assert name in set(_references(criterion, None))
    else:
        assert reason.startswith("README: ")
        assert f"`{name}`" in README.read_text(encoding="utf-8")


def test_package_exports_its_eight_names():
    assert sorted(gaussent.__all__) == [
        "CorrelationMatrix4",
        "SqueezedBeam",
        "apply_loss",
        "decompose",
        "degree_of_epr",
        "degree_of_inseparability",
        "entangle_on_beamsplitter",
        "teleport_fidelity",
    ]
    assert all(hasattr(gaussent, name) for name in gaussent.__all__)
