"""The package holds no test-only code: every module-level function and class
in src/harmtomo is used by name somewhere else in the package, as a call or
reference or as an export of __init__.py.  References kept for the tests live
in tests/oracles.py."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "harmtomo"


def _definitions_and_uses():
    """Module-level (module, name) definitions, and the names used outside the
    definition of the same name: Name and Attribute nodes anywhere, plus the
    names __init__.py imports."""
    defs, uses = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = top.name
                defs.append((path.stem, own))
            if path.name == "__init__.py" and isinstance(top, ast.ImportFrom):
                uses.update(alias.name for alias in top.names)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    uses.add(name)
    return defs, uses


def test_every_definition_is_used_in_the_package():
    defs, uses = _definitions_and_uses()
    assert len(defs) > 100
    unused = [f"{module}.{name}" for module, name in defs if name not in uses]
    assert unused == [], f"defined in src/harmtomo but used only outside it: {unused}"


def _errstate_sites():
    """(module.function) of every np.errstate(...) call in src/harmtomo, by
    the module-level function or class that holds it."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "errstate"):
                    sites.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return sorted(sites)


def test_floating_point_blankets_are_the_listed_ones():
    # each np.errstate silences a class of floating-point warnings for the
    # code under it; a new one has to be added to this list on purpose
    assert _errstate_sites() == sorted([
        "forward._sweeps", "forward.solve_multiharmonic", "quasirev.compute_cbar",
        "quasirev.compute_ctilde", "norms.rho_t"])
