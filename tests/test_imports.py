"""Every name a qitekit module or a test module imports is used in that
module, and every function the benchmark's trace wraps still exists under its
name."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qitekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:  # quoted annotations such as -> "StateVector"
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _used(ast.parse(node.value, mode="eval"))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = sorted(set(_imported(tree)) - set(_used(tree)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_benchmark_trace_names_resolve():
    # the benchmark's trace wraps these functions by name, so a rename would
    # otherwise fail only in a traced benchmark run
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"qitekit.{module}.{fn}"
        for module, fns in tracing.WRAPPED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"qitekit.{module}"), fn, None))
    ]
    assert tracing.WRAPPED and not missing, f"no longer resolve: {missing}"


def test_only_the_cli_takes_max_qubits():
    # the CLI checks --max-qubits once, when it validates a config; no
    # library function carries a width ceiling of its own
    offenders = [
        f"{path.name}:{node.name}"
        for path in MODULES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "max_qubits" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert not offenders, f"take a max_qubits parameter: {offenders}"


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_one_qite_step_kernel():
    # a state and a stack of states step through the same kernel: no module
    # but qite.py calls its parts, and a QMETTS chain builds its plans and
    # evolves its states through _propagate alone
    kernel = {"_advance", "_solve_in_rho", "_unitary", "_step_operators"}
    offenders = [
        f"{path.name}:{name}"
        for path in MODULES
        if path.name != "qite.py"
        for name in _called_names(ast.parse(path.read_text(), str(path)))
        if name in kernel
    ]
    assert not offenders, f"call the QITE step kernel outside qite.py: {offenders}"
    qite = ast.parse((PACKAGE / "qite.py").read_text())
    functions = {node.name for node in qite.body if isinstance(node, ast.FunctionDef)}
    qmetts = set(_called_names(ast.parse((PACKAGE / "qmetts.py").read_text())))
    assert qmetts & functions == {"_propagate", "_term_plans"}


def test_qite_step_kernel_has_one_path():
    # a state and a stack of states run the same expressions: only _advance,
    # whose explicit route forms S one state at a time, reads ndim, and one
    # norm helper, in statevector.py, serves QITE and the Lanczos oracle
    qite = ast.parse((PACKAGE / "qite.py").read_text())
    readers = sorted(
        getattr(node, "name", type(node).__name__)
        for node in qite.body
        if getattr(node, "name", None) != "_advance"
        and any(isinstance(sub, ast.Attribute) and sub.attr == "ndim" for sub in ast.walk(node))
    )
    assert not readers, f"read ndim outside _advance: {readers}"
    names = {
        getattr(node, field)
        for node in ast.walk(qite)
        for field in ("id", "arg", "name", "attr")
        if isinstance(getattr(node, field, None), str)
    }
    assert not names & {"stacked", "_real_dots"}
    analysis = ast.parse((PACKAGE / "analysis.py").read_text())
    norms = [node.name for node in ast.walk(analysis)
             if isinstance(node, ast.FunctionDef) and node.name.strip("_") == "norm"]
    assert not norms, f"analysis.py defines its own norm: {norms}"
    assert "_norm" in set(_imported(analysis)) & set(_imported(qite))


def test_one_start_state_kernel_and_register_rule():
    # every product and basis state comes from one outer-product kernel, and
    # StateVector alone refuses an empty register
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
    krons = [name for name, tree in trees.items() if "kron" in set(_called_names(tree))]
    assert not krons, f"call kron: {krons}"
    raisers = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and any(isinstance(sub, ast.Constant) and sub.value == "need at least one qubit"
                for sub in ast.walk(node))
    ]
    assert len(raisers) == 1, f"raise 'need at least one qubit' at {raisers}"


def test_stacking_and_route_rules_read_no_chain_length_or_pool_table():
    # a chain stacks its representatives by their amplitudes alone, and the
    # range route's floor is one row count, not a table of qubit counts
    qmetts = ast.parse((PACKAGE / "qmetts.py").read_text())
    (typical,) = [node for node in ast.walk(qmetts)
                  if isinstance(node, ast.FunctionDef) and node.name == "_typical_states"]
    assert "n_samples" not in {a.arg for a in ast.walk(typical.args) if isinstance(a, ast.arg)}
    qite = ast.parse((PACKAGE / "qite.py").read_text())
    assigned = {target.id for node in ast.walk(qite) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert "_RANGE_MIN_QUBITS" not in assigned


def _function(tree, name):
    (node,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_execute_run_finishes_its_manifest_once():
    # a run writes its manifest when it starts and, whatever happens, once
    # when it finishes
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    writes = [
        node.lineno
        for node in ast.walk(_function(cli, "execute_run"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_json"
        and any(isinstance(sub, ast.Constant) and sub.value == "manifest.json"
                for sub in ast.walk(node))
    ]
    assert len(writes) == 2, f"execute_run writes manifest.json at lines {writes}"


def test_only_check_options_bounds_the_overlap_threshold():
    qlanczos = ast.parse((PACKAGE / "qlanczos.py").read_text())
    bounders = sorted({
        function.name
        for function in qlanczos.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Compare)
        and any(isinstance(sub, ast.Constant) for sub in [node.left, *node.comparators])
        and any(getattr(sub, "id", None) == "overlap_threshold"
                for sub in [node.left, *node.comparators])
    })
    assert bounders == ["check_options"], f"bound overlap_threshold: {bounders}"


def test_qite_evolve_keeps_no_shadow_state():
    # the final state is _propagate's return value, not a copy kept on the side
    qite = ast.parse((PACKAGE / "qite.py").read_text())
    assert not [node for node in ast.walk(_function(qite, "qite_evolve"))
                if isinstance(node, ast.Nonlocal)]


def test_every_term_plan_field_is_read():
    # a field counts as read when it is read off a plan other than as an
    # argument that a constructor stores
    qite = ast.parse((PACKAGE / "qite.py").read_text())
    (plan,) = [node for node in qite.body
               if isinstance(node, ast.ClassDef) and node.name == "_TermPlan"]
    fields = {node.target.id for node in plan.body if isinstance(node, ast.AnnAssign)}
    trees = [ast.parse(path.read_text(), str(path)) for path in MODULES]
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    stored = {id(arg) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) in classes
              for arg in node.args}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and getattr(node.value, "id", None) == "plan" and id(node) not in stored}
    assert fields and fields <= read, f"_TermPlan fields never read: {sorted(fields - read)}"


def test_one_block_diagonalization():
    # spectral and the ground oracle's dense route diagonalize every sector
    # through one stacked eigh, and the Lanczos check is the only other eigh;
    # one row count, not a register size, picks the ground route
    analysis = ast.parse((PACKAGE / "analysis.py").read_text())
    sites = sorted(
        function.name
        for function in analysis.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "eigh"
    )
    assert sites == ["_lowest_ritz", "spectral"], f"eigh called in {sites}"
    assigned = {target.id for node in ast.walk(analysis) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert "_LANCZOS_MIN_DIM" not in assigned and "_DENSE_MAX_ROWS" in assigned


def _callers(name):
    """The package's functions (methods and nested functions too) that call
    ``name``."""
    return sorted({
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and name in set(_called_names(node))
    })


def test_one_symmetry_layout_per_hamiltonian():
    # Hamiltonian.layout alone builds H's symmetry orbits and sectors
    assert _callers("_layout") == ["layout"]
    assert _callers("_coordinates") == _callers("_min_labels") == ["_layout"]
    assert _callers("_symmetries") == ["_layout"]
    qmetts = ast.parse((PACKAGE / "qmetts.py").read_text())
    sources = [node.module for node in ast.walk(qmetts) if isinstance(node, ast.ImportFrom)]
    sources += [alias.name for node in ast.walk(qmetts)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert not [source for source in sources if source and "analysis" in source.split(".")]


def _forms_butterfly_pair(node):
    """A pair (x + y, x - y) of the same two operands."""
    if not isinstance(node, (ast.Tuple, ast.List)) or len(node.elts) != 2:
        return False
    add, sub = node.elts
    return (isinstance(add, ast.BinOp) and isinstance(add.op, ast.Add)
            and isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
            and ast.dump(add.left) == ast.dump(sub.left)
            and ast.dump(add.right) == ast.dump(sub.right))


def test_one_walsh_butterfly():
    # one kernel forms the (a + b, a - b) pair: spectral's blocks, the moves
    # of SpectralDecomposition into and out of them and the X-basis
    # collapse call it, and spectral's eigenvectors carry no sign table
    formers = sorted({
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and any(map(_forms_butterfly_pair, ast.walk(node)))
    })
    assert formers == ["_butterfly"], f"form the (a + b, a - b) pair: {formers}"
    assert {"_blocks", "_collapse_label"} <= set(_callers("_butterfly"))
    analysis = ast.parse((PACKAGE / "analysis.py").read_text())
    (decomposition,) = [node for node in analysis.body
                        if isinstance(node, ast.ClassDef) and node.name == "SpectralDecomposition"]
    assert "_butterfly" in set(_called_names(decomposition))
    assert "_signs" not in set(_imported(analysis))


def _is_grid(node):
    """A name ``grid`` or ``grids``, or an attribute ``.grids``."""
    return (isinstance(node, ast.Name) and node.id in ("grid", "grids")
            or isinstance(node, ast.Attribute) and node.attr == "grids")


def _assignment_targets(function):
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            yield from node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
            yield node.target


def test_one_block_address_per_basis_state():
    # hamiltonians._layout alone builds the grids that address each basis
    # state in the blocks (and ``place``, the inverse address, by a scatter on
    # them); everyone else reads them. Within analysis, only
    # SpectralDecomposition._combination writes through a grid, so vectors
    # leave the blocks one way
    functions = [node for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.FunctionDef)]
    builders = sorted({
        function.name for function in functions for target in _assignment_targets(function)
        for node in ast.walk(target) if _is_grid(node) and isinstance(node.ctx, ast.Store)
    })
    assert builders == ["_layout"], f"bind a grid: {builders}"
    writers = sorted({
        function.name for function in functions for target in _assignment_targets(function)
        for node in ast.walk(target)
        if isinstance(node, ast.Subscript) and any(map(_is_grid, ast.walk(node.slice)))
    })
    assert writers == ["_combination", "_layout"], f"write through a grid: {writers}"
    assert _callers("_combination") == ["ground", "ite"]


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def test_one_random_stream_and_numpy_draws_only_noise():
    # a QMETTS chain draws from statevector._Pcg64, the one holder of PCG64's
    # multiplier; numpy's generator is built once, in cli._draws, and only
    # under a test of the noise sigmas; no module draws through
    # Generator.choice, whose algorithm numpy does not promise to keep
    builders, choosers, strays, held = [], [], [], 0
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        choosers += [f"{path.name}:{node.lineno}" for node in calls
                     if getattr(node.func, "attr", None) == "choice"]
        rng_calls = [node for node in calls
                     if "default_rng" in (getattr(node.func, "attr", None),
                                          getattr(node.func, "id", None))]
        assert len(rng_calls) == (path.name == "cli.py"), f"{path.name} calls default_rng"
        builders += [
            (path.name, function.name, ast.unparse(node.test))
            for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.If) and any(call in rng_calls for call in ast.walk(node))
        ]
        stream = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "_Pcg64"
                  for sub in ast.walk(node)}
        literals = [node for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value == _PCG64_MULTIPLIER]
        held += sum(id(node) in stream for node in literals)
        strays += [f"{path.name}:{node.lineno}" for node in literals if id(node) not in stream]
    ((module, function, test),) = builders
    assert (module, function) == ("cli.py", "_draws")
    assert "noise_sigma" in test and "ledger_noise_sigma" in test
    assert not choosers, f"call .choice: {choosers}"
    assert held == 1 and not strays, f"hold the PCG64 multiplier outside _Pcg64: {strays}"
