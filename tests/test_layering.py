"""The package's layering, read from its source with ``ast``: which module may use
which private name of another, and which exceptions it may define and raise."""

import ast
import builtins
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mobshift"
#: the certificate modules, whose private names stay their own
CERTIFICATES = {"homogeneity", "inductive"}
#: the module that states each generator formula once: its private names stay its own, so a
#: module that needs a coefficient reads it from the public builders
REPRESENTATIONS = {"repn"}
#: how R(path) acts on a shift, which only numkernel and repn know
CONJUGATION = {"_parity_blocks", "_cartan_factors"}
#: the Gram behind the orthonormal basis, which only specialfn and repn read
BASIS = {"gram", "norm_sq_sequence"}
#: the series names, which repn defines (and classify_series returns) and only cli reads besides:
#: below the command line a family is its Realization
SERIES = {"HOLO", "ANTIHOLO", "PRINCIPAL", "COMPLEMENTARY", "REDUCIBLE"}

MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_the_walk_sees_the_package():
    assert {"numkernel", "repn", "homogeneity", "inductive", "cli"} <= {path.stem for path in MODULES}


def _private_reads(path: pathlib.Path, owners: set) -> list:
    """(owner, name) of each private name of an owner module that the module imports or reads
    as an attribute."""
    reads = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] in owners:
            reads += [(node.module, alias.name) for alias in node.names if alias.name.startswith("_")]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in owners and node.attr.startswith("_"):
                reads.append((node.value.id, node.attr))
    return reads


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_imports_a_private_name_of_a_certificate_module(path):
    assert not _private_reads(path, CERTIFICATES)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_imports_a_private_name_of_repn(path):
    assert not _private_reads(path, REPRESENTATIONS)


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_neither_certificate_module_imports_the_other(name):
    # each takes what it needs from the layers beneath, errors' DefectReport included, so a
    # command runs only the certificate module that it reads
    for node in ast.walk(_tree(SRC / f"{name}.py")):
        if isinstance(node, ast.ImportFrom):
            imported = {(node.module or "").rpartition(".")[2]} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported = {alias.name.rpartition(".")[2] for alias in node.names}
        else:
            continue
        assert not imported & CERTIFICATES, ast.unparse(node)


def test_only_errors_defines_the_defect_report():
    owners = [path.stem for path in MODULES for node in ast.walk(_tree(path))
              if isinstance(node, ast.ClassDef) and node.name == "DefectReport"]
    assert owners == ["errors"]


def _names(path: pathlib.Path) -> set:
    """Every name the module reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_numkernel_and_repn_read_the_spectrum_and_the_cartan_factors(path):
    if path.stem not in ("numkernel", "repn"):
        assert not _names(path) & CONJUGATION, sorted(_names(path) & CONJUGATION)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_specialfn_and_repn_read_the_gram(path):
    # every other module reaches the orthonormal basis through Realization.norms and .orthonormal
    if path.stem not in ("specialfn", "repn"):
        assert not _names(path) & BASIS, sorted(_names(path) & BASIS)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_repn_and_cli_read_the_series_names(path):
    if path.stem not in ("repn", "cli"):
        assert not _names(path) & SERIES, sorted(_names(path) & SERIES)


#: the cyclic collector's switches: a library import must never turn its host's collector
COLLECTOR = {"disable", "enable", "freeze", "set_threshold"}
#: the process entry, the only code that turns them
PROCESS_ENTRY = {"_enter_process", "main"}


def _enclosing_functions(tree: ast.AST) -> dict:
    """Each node of the tree mapped to the name of its innermost enclosing function, or None."""
    where = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            where[child] = name
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name)

    visit(tree, None)
    return where


def _collector_calls(path: pathlib.Path) -> list:
    """(innermost enclosing function or None, switch) of each ``gc.<switch>(...)`` call in the
    module, and (None, name) of each switch imported by name, which would hide its calls."""
    tree = _tree(path)
    where, calls = _enclosing_functions(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id == "gc" and node.func.attr in COLLECTOR:
                calls.append((where[node], node.func.attr))
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            calls.extend((None, alias.name) for alias in node.names if alias.name in COLLECTOR | {"*"})
    return calls


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_only_the_process_entry_turns_the_collector(path):
    allowed = PROCESS_ENTRY if path.stem == "cli" else set()
    calls = _collector_calls(path)
    assert all(where in allowed for where, _ in calls), calls
    if path.stem == "cli":  # the walk sees the entry's own calls
        assert {("_enter_process", "freeze"), ("_enter_process", "disable")} <= set(calls), calls


#: the two refusal families that the command line maps to exit 2 and 3, solve's refusal
#: and the bookkeeping error that no command line reaches: a new kind of refusal edits
#: this set and says why
ERRORS = {"ParameterError", "NumericsError", "SingularMatrixError", "WindowMismatchError"}
#: raised by an argparse type function, which the parser turns into its own exit-2 line
PARSER_ERRORS = {"argparse.ArgumentTypeError"}


def test_errors_defines_the_only_exception_classes():
    modules = [importlib.import_module(f"mobshift.{path.stem}") for path in MODULES]
    defined = {(module.__name__, name) for module in modules for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__}
    assert defined == {("mobshift.errors", name) for name in ERRORS}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_raise_names_a_package_error_or_a_builtin(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            builtin = isinstance(getattr(builtins, name, None), type)
            assert name in ERRORS | PARSER_ERRORS or builtin, (path.stem, node.lineno, name)


def test_a_shift_is_refused_at_one_door():
    # OperatorMatrix.single_diagonal is the one raise that refuses an operand that is not a
    # shift, so every certificate that takes a shift T refuses it in the same words
    doors = []
    for path in MODULES:
        tree = _tree(path)
        where = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = " ".join(c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if "single diagonal" in text:
                    doors.append((path.stem, where[node]))
    assert doors == [("numkernel", "single_diagonal")]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_compares_single_diagonal_with_none(path):
    # single_diagonal never returns None: it returns a shift's band or raises
    tree = _tree(path)
    where = _enclosing_functions(tree)
    # in each function, every name bound from an expression that reads the property
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(c, ast.Attribute) and c.attr == "single_diagonal" for c in ast.walk(node.value)):
            reads.update((where[node], t.id) for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                for o in operands:
                    read = getattr(o, "attr", None) == "single_diagonal" or (where[node], getattr(o, "id", None)) in reads
                    assert not read, (path.stem, node.lineno, ast.unparse(node))


def test_a_window_or_basis_mismatch_is_refused_at_its_doors():
    # TruncationWindow.require refuses a window of another index set, OperatorMatrix._require_on an
    # operator off a window's lattice or basis, and OperatorMatrix._init the shape of a band or of
    # data that does not fit the window: every other module checks through them and never names the error
    doors = set()
    for path in MODULES:
        tree = _tree(path)
        where = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "WindowMismatchError":
                    doors.add((path.stem, where[node]))
    assert doors == {("numkernel", "require"), ("numkernel", "_require_on"), ("numkernel", "_init")}
    readers = [path.stem for path in MODULES if "WindowMismatchError" in _names(path)]
    assert readers == ["numkernel"], readers
