"""Checks on the package source itself."""

import ast
from pathlib import Path

import braidwalk

SRC = Path(braidwalk.__file__).parent


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in {found}"


def test_one_unchecked_reduced_word_constructor():
    # words built without the letter check come from words._word alone
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__new__"
                    and [ast.unparse(a) for a in node.args] == ["ReducedWord"]):
                found.append(path.name)
    assert found == ["words.py"]
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "ReducedWord" in exported
    assert "_word" not in exported
    assert not hasattr(braidwalk, "_word")


EXPORTED = {
    # words
    "BoundaryPoint", "INFINITE", "ParseError", "ReducedWord",
    "VerificationError", "WingCore", "concat", "gromov", "invert",
    "left_translate", "parse_free", "pow_infinity", "power", "prefix",
    "print_free", "reduce", "rho", "wing_core",
    # braids
    "BraidWord", "PureWord", "is_pure", "parse_braid", "perm", "print_braid",
    "sigma_to_pure", "to_braid",
    # artin
    "UNDEFINED", "a_word", "apply_braid", "braid_equal", "occurrence_ratio",
    # combing
    "LengthGuardError", "MIForm", "MIStepper", "central_element", "flatten",
    "mi_braid", "mi_pure", "parse_mi", "print_mi", "rho_action",
    # boundary
    "ContractionWitness", "EmpiricalMeasure", "ball_cover_check",
    "contracting_family", "find_large_wing", "is_eps_contracting",
    "min_convolution_hit", "q_collection_witness",
    # walks and experiments
    "GeneratorDistribution", "Path", "WalkConfig", "sample_paths",
    "uniform_s", "uniform_sigma", "StabilizationReport",
    "artin_convergence_run", "emit", "selective_run", "stabilization_run",
    "theorem2_run",
}


def test_exported_names_are_pinned():
    # the package API grows or shrinks only together with this set
    init = ast.parse((SRC / "__init__.py").read_text())
    names = [alias.name for node in ast.walk(init)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) == len(set(names))
    assert set(names) == EXPORTED
    assert all(hasattr(braidwalk, name) for name in EXPORTED)



def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def test_public_names_are_exported_or_used():
    # a public top-level function, class or constant is package API
    # (exported from __init__) or used somewhere in the package; a name
    # that only tests call does not belong in src.  Click commands are
    # reached through their group.
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, used = [], set()
    for path, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not _is_click_command(node):
                    defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [(path.name, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{module}:{name}" for module, name in defined
            if not name.startswith("_") and name not in exported
            and name not in used]
    assert not dead, f"public names that nothing in the package uses: {dead}"
