"""Every public definition in ``src/acgeom`` serves the tool.

A definition counts as called when its name appears as a ``Name`` or an
``Attribute`` in ``src/acgeom`` outside ``__init__.py`` (whose re-exports call
nothing), anywhere in ``perfbench/``, or as a part of a dotted path in the
tracer's ``SPAN_TARGETS``.  Tests do not count: a definition that only tests
use belongs in ``tests/`` (see ``germs.py``).  The census matches bare names,
not bindings, so a method that shares its name with a called one passes: it
can miss a dead definition, never flag a live one.

Options get the same rule: every defaulted parameter of a function or method
of ``src/acgeom`` is passed, by keyword or by position, by some call in
``src/`` (outside ``__init__.py``) or ``perfbench/`` to a function of its
name.  A value that only tests pass is a test knob: the tool's value becomes
the code, and a test that needs another value builds it in ``tests/``.  The
converse holds too: some such call omits the parameter, so that the default
is a value the tool relies on, not one that only tests leave out.

The test side has its own census: every name a module of ``tests/`` imports
is used in that module.
"""

import ast
from pathlib import Path

import acgeom

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "acgeom"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

# The uncalled definitions that stay, each with its reason.  The list can only
# shrink: an entry that gains a caller fails the census until it is removed.
_ITEM_4 = "paper check that waits for a CLI row (ROADMAP item 4)"
ALLOWLIST = {
    "chern.LeviCivita.torsion_free_residual": _ITEM_4 + ": decompose",
    "chern.almost_holomorphic_identities": _ITEM_4 + ": curvature",
    "chern.antisymmetrize_metric_linear": _ITEM_4 + ": asymptotics",
    "chern.pointwise_hermitian_residual": _ITEM_4 + ": curvature",
    "chern.special_frame": _ITEM_4 + ": curvature",
    "chern.symplectic_normalize": _ITEM_4 + ": asymptotics",
    "normal.torsion_jet_equivalence": _ITEM_4 + ": torsion",
    "normal.torsion_jet_normal": _ITEM_4 + ": torsion",
    "normal.verify_holomorphic_invariance": _ITEM_4 + ": normalize",
    "forms.canonical_p0_connection":
        "the abstract's (0,1)-connection on (p,0)-forms, the base case of "
        "the Schur-power construction (ROADMAP item 9)",
    "forms.exterior_derivative_check":
        "d against its four bidegree parts through the coordinate basis, "
        "a paper check for a CLI row (ROADMAP items 4 and 13)",
    "geodesic.integrator_convergence_ratio":
        "fourth-order convergence of the RK4 oracle, a paper check for a "
        "CLI row (ROADMAP items 4 and 13)",
    "geodesic.conjugate_block_residual":
        "reality of the packed connection action, a paper check for a CLI "
        "row (ROADMAP items 4 and 13)",
    "cli.serialize_manifold_spec":
        "acceptance criterion 10 pins the spec round trip "
        "(test_acceptance.py::test_criterion_10_cli)",
}


# The defaulted parameters that no call in src/ or perfbench/ passes, each
# with its reason.  The list can only shrink, as ALLOWLIST does.
OPTION_ALLOWLIST = {
    "cli.main(argv)":
        "the console script calls main() with no arguments, so that argparse "
        "reads sys.argv",
    "forms.FrameCalculus.zeta_derive(grad)":
        "forms.apply_operator passes it through its derive pair "
        "(calc.zeta_derive, calc.zetabar_derive), which the name match "
        "cannot see",
    "forms.FrameCalculus.zetabar_derive(grad)":
        "forms.apply_operator passes it through its derive pair, as for "
        "zeta_derive",
}


# The defaulted parameters that every call in src/ and perfbench/ passes,
# each with its reason.  The list can only shrink, as ALLOWLIST does.
DEFAULT_ALLOWLIST = {}


def _definitions():
    """{qualified name: bare name} of the public top-level functions and
    classes of ``src/acgeom`` and the public methods of those classes."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) \
                            and not sub.name.startswith("_"):
                        out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return out


def _span_target_parts(tree):
    """The dotted-path parts of the third field of each ``SPAN_TARGETS``
    entry."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS"
                for t in node.targets):
            return {part for entry in node.value.elts
                    for part in ast.literal_eval(entry)[2].split(".")}
    raise AssertionError("perfbench/tracing.py defines no SPAN_TARGETS")


def _called_names():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted(PERFBENCH.rglob("*.py"))
    names = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if path == PERFBENCH / "tracing.py":
            names |= _span_target_parts(tree)
    return names


def _options():
    """(qualified name, called name, parameter, positional index or None)
    for each defaulted parameter of the top-level functions of
    ``src/acgeom`` and the methods of its classes.  A constructor is called
    by its class name; the index counts the call's positional arguments,
    so it skips ``self`` and ``cls``."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(node.name, node, node.name, 0)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{f.name}", f,
                          node.name if f.name == "__init__" else f.name,
                          0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in f.decorator_list) else 1)
                         for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for qual, func, called, skip in funcs:
                args = func.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((f"{path.stem}.{qual}", called, arg.arg, i - skip))
                out += [(f"{path.stem}.{qual}", called, arg.arg, None)
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
    return out


def _calls():
    """{called name: [ast.Call]} over ``src/acgeom`` outside ``__init__.py``
    and ``perfbench/``.  A ``cls(...)`` call in the body of class C is a
    call of C, so a classmethod that builds its class counts."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted(PERFBENCH.rglob("*.py"))
    calls = {}
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth first, so a nested class overrides its owner
        owner = {id(node): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for node in ast.walk(c)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name == "cls":
                    name = owner.get(id(node), name)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param, index):
    """Whether ``call`` passes ``param`` (at positional ``index``); a
    ``*args`` or ``**kwargs`` counts for every parameter it can reach."""
    if index is not None and (len(call.args) > index or any(
            isinstance(arg, ast.Starred) for arg in call.args)):
        return True
    return any(kw.arg in (param, None) for kw in call.keywords)


def _flagged_options(ok):
    """``qual(param)`` of each defaulted parameter outside ``ALLOWLIST`` for
    which ``ok`` fails on the list of whether each call of its function
    passes it."""
    calls = _calls()
    flagged = set()
    for qual, called, param, index in _options():
        function = qual.rsplit(".", 1)[0] if qual.endswith(".__init__") else qual
        if function in ALLOWLIST:
            continue
        if not ok([_passes(c, param, index) for c in calls.get(called, [])]):
            flagged.add(f"{qual}({param})")
    return flagged


def test_every_option_has_a_tool_setter():
    flagged = _flagged_options(any)
    new = sorted(flagged - set(OPTION_ALLOWLIST))
    assert not new, ("defaulted parameters no call in src/ or perfbench/ "
                     f"passes (make the tool's value the code): {new}")
    stale = sorted(set(OPTION_ALLOWLIST) - flagged)
    assert not stale, f"allowlisted options now passed or gone (drop them): {stale}"
    assert all(reason.strip() for reason in OPTION_ALLOWLIST.values())


def test_every_default_is_relied_on():
    # the converse: a default that every call overrides is a value no caller
    # needs, so the parameter is required
    flagged = _flagged_options(lambda passed: not all(passed))
    new = sorted(flagged - set(DEFAULT_ALLOWLIST))
    assert not new, ("defaulted parameters every call in src/ and perfbench/ "
                     f"passes (make them required): {new}")
    stale = sorted(set(DEFAULT_ALLOWLIST) - flagged)
    assert not stale, f"allowlisted defaults now relied on or gone (drop them): {stale}"
    assert all(reason.strip() for reason in DEFAULT_ALLOWLIST.values())


def test_every_uncalled_definition_is_allowlisted():
    called = _called_names()
    flagged = {q for q, name in _definitions().items() if name not in called}
    new = sorted(flagged - set(ALLOWLIST))
    assert not new, f"uncalled definitions in src/ (call them or move them to tests/): {new}"
    stale = sorted(set(ALLOWLIST) - flagged)
    assert not stale, f"allowlisted definitions now called or gone (drop them): {stale}"
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _call_sites(name):
    """(module, top-level definition, method) of every call of ``name`` in
    ``src/acgeom``; a part that does not apply is None."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for sub in node.body if isinstance(node, ast.ClassDef) else [None]:
                where = (path.stem, getattr(node, "name", None), getattr(sub, "name", None))
                sites += [where for call in ast.walk(sub or node)
                          if isinstance(call, ast.Call)
                          and name in (getattr(call.func, "id", None),
                                       getattr(call.func, "attr", None))]
    return sites


def test_one_padding_rule():
    # the working order, the inverse germ and the Jacobians of a coordinate
    # change are built in one place, so no transport keeps its own copy
    for name in ("series_inverse", "_jacobian"):
        assert _call_sites(name) == [("structure", "ChartChange", "__init__")], name


def test_every_exported_name_resolves():
    assert len(set(acgeom.__all__)) == len(acgeom.__all__)
    missing = [name for name in acgeom.__all__ if not hasattr(acgeom, name)]
    assert not missing


def _unused_imports(tree):
    """The names an import in ``tree`` binds that no ``Name`` node reads.
    An attribute chain starts with a ``Name``, so ``np.zeros`` uses ``np``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_test_import_is_used():
    unused = {path.name: sorted(names) for path in sorted(TESTS.glob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not unused, f"unused imports in tests/: {unused}"
