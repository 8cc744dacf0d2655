"""The package's top-level names are the ones the README documents."""

import ast
import re
from pathlib import Path

import varfista

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_sketch_runs_and_names_the_package_api():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    imported = {alias.name for node in ast.walk(ast.parse(blocks[0]))
                if isinstance(node, ast.ImportFrom)
                and node.module == "varfista"
                for alias in node.names}
    called = set(re.findall(r"`varfista\.(\w+)\(", README))
    assert sorted(varfista.__all__) == sorted(imported | called
                                              | {"__version__"})


ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in src/ or perfbench/ uses, kept on purpose.
UNUSED_ALLOWED = {
    "check_xk_optimality": "README-documented test oracle (anchor step)",
    "global_min_phi": "README-documented test oracle (exact minimum)",
    "SmoothOracle": "README-documented smooth term given by callables",
}


def _trees(*globs):
    return [ast.parse(path.read_text(), str(path))
            for pattern in globs for path in sorted(ROOT.glob(pattern))]


def _is_dataclass(node):
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _public_definitions(tree):
    """(label, name, member) of the top-level functions and classes, with
    member False, and of the methods of those classes and the fields of
    their dataclasses, with member True."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, False
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and _is_dataclass(node):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name, True


def test_every_public_name_has_a_caller_outside_the_tests():
    # a reference is a Name, an Attribute or an imported name anywhere in
    # the package or in perfbench's modules; __all__ strings do not count.
    # A method or a dataclass field is used only where it is read as an
    # attribute: a local variable of its name, or a keyword that sets the
    # field, does not use it
    names, attributes = set(), set()
    for tree in _trees("src/varfista/*.py", "perfbench/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    unused = {label for tree in _trees("src/varfista/*.py")
              for label, name, member in _public_definitions(tree)
              if name not in (attributes if member else names)}
    assert unused == set(UNUSED_ALLOWED)


def audit_check_names():
    """The check names that ``audit.py`` passes to ``add``, ``add_unless``
    and ``CheckResult``: string literals, except where ``add_unless`` and
    ``add`` pass their own ``name`` on."""
    tree, = _trees("src/varfista/audit.py")
    names = [node.args[0] for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("add", "add_unless",
                                                    "CheckResult")]
    assert all(isinstance(name, ast.Constant)
               or getattr(name, "id", None) == "name" for name in names)
    return {name.value for name in names if isinstance(name, ast.Constant)}


def test_the_readme_table_names_every_audit_check():
    table = re.findall(r"^\| `([a-z-]+)` \|", README, re.M)
    assert len(table) == len(set(table))
    assert set(table) == audit_check_names()


def _numerical_failures_built(tree):
    """Calls of NumericalFailure, and bare ``raise NumericalFailure``."""
    def named(node):
        return "NumericalFailure" in (getattr(node, "id", None),
                                      getattr(node, "attr", None))
    return sum((isinstance(node, ast.Call) and named(node.func))
               or (isinstance(node, ast.Raise) and named(node.exc))
               for node in ast.walk(tree))


def test_only_the_finiteness_helper_constructs_numerical_failure():
    # one non-finite rule for solve and both baselines: any other place in
    # src/ that builds the error would be a second copy of the rule
    helper, = [node for tree in _trees("src/varfista/solver.py")
               for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "_require_finite"]
    total = sum(map(_numerical_failures_built, _trees("src/varfista/*.py")))
    assert total == _numerical_failures_built(helper) == 1


def _readers(name):
    """The innermost function of src/ around each read of ``name``, as a
    name or an attribute; "<module>" for a read outside any function."""
    readers = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if (getattr(node, "id", None) == name
                or getattr(node, "attr", None) == name) \
                and isinstance(getattr(node, "ctx", None), ast.Load):
            readers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for tree in _trees("src/varfista/*.py"):
        visit(tree, "<module>")
    return sorted(readers)


def test_the_zero_band_and_the_quotient_guard_are_formed_in_one_place():
    # the zero rule's band has a vector form and the O(n) one-record form;
    # the quotient guard is formed where a record is stored, and by the
    # one baseline that keeps no ledger
    assert _readers("_ZERO_BAND") == ["_zero_rule", "record_gap"]
    assert _readers("DENOM_EPSILON") == ["append_linearization",
                                         "run_fista_constant"]


def test_the_curvature_quotient_has_one_kernel():
    # U (in solve and the fista baseline), t1 and the cache's fold all take
    # the one-point gap quotient from _gap_quotient; the row form
    # (_gap_terms, _zero_rule) is its vector shape.  The retired U
    # function and its BLAS dot product are gone from src/
    assert _readers("_gap_quotient") == ["record_gap", "run_fista_constant",
                                         "solve"]
    for path in sorted(ROOT.glob("src/varfista/*.py")):
        text = path.read_text()
        assert "compute_U" not in text and "vdot" not in text, path.name


def test_solve_reads_no_private_name_of_the_ledger():
    solve, = [node for tree in _trees("src/varfista/solver.py")
              for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "solve"]
    read = {node.attr for node in ast.walk(solve)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "ledger"}
    assert {"append_linearization", "record_gap", "ymin_ratio_max"} <= read
    assert [name for name in read if name.startswith("_")] == []


def test_the_prox_step_and_the_stationarity_kernel_have_one_copy_each():
    # the solver's candidate is the one prox step in src/; the exact
    # oracles and the certificate check measure stationarity through the
    # one kernel, and the anchor check, over R^n, needs only a gradient
    assert _readers("prox") == ["compute_candidate"]
    assert _readers("_interval_dist") == ["active_set_stationary",
                                          "verify_certificate"]


def test_one_regularizer_class_reads_the_soft_threshold():
    # h = w ||u||_1 + the indicator of a box is one class, and its prox is
    # the one reader of soft_threshold in src/
    tree, = _trees("src/varfista/prox.py")
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert sorted(classes) == ["BoxIndicator"]
    prox, = [node for node in classes["BoxIndicator"].body
             if isinstance(node, ast.FunctionDef) and node.name == "prox"]
    assert _readers("soft_threshold") == ["prox"]
    assert any(getattr(node, "id", None) == "soft_threshold"
               for node in ast.walk(prox))


def test_no_module_names_an_anchor_region():
    # the problem is f + BoxIndicator over R^n: no name, attribute,
    # argument or import in src/ refers to a region Omega or a projector
    named = []
    for path in sorted(ROOT.glob("src/varfista/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for field in ("id", "attr", "arg", "name"):
                name = getattr(node, field, None)
                if isinstance(name, str) \
                        and name.lower() in ("omega", "projector"):
                    named.append((path.name, getattr(node, "lineno", 0),
                                  name))
    assert named == []


_PRODUCT_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum",
                  "c_einsum"}


def _has_product(node):
    """Whether ``node`` holds an ``@`` or a call of a numpy product."""
    return any((isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult))
               or (isinstance(sub, ast.Call)
                   and getattr(sub.func, "attr", getattr(sub.func, "id", None))
                   in _PRODUCT_CALLS)
               for sub in ast.walk(node))


def test_products_with_q_are_made_in_one_place():
    # every product with Q, of one point or of rows, goes through
    # QuadraticOracle._products, so one- and many-point products stay one
    # implementation; _scale_coefficients reads Q for its absolute row sums,
    # which are no product
    oracle, = [node for tree in _trees("src/varfista/gallery.py")
               for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "QuadraticOracle"]
    readers = {method.name: method for method in oracle.body
               if isinstance(method, ast.FunctionDef)
               and any(isinstance(node, ast.Attribute) and node.attr == "Q"
                       and getattr(node.value, "id", None) == "self"
                       and isinstance(node.ctx, ast.Load)
                       for node in ast.walk(method))}
    assert "_products" in readers
    assert [name for name, method in readers.items()
            if name != "_products" and _has_product(method)] == []


def test_the_momentum_point_record_is_combined_in_one_place():
    # the solvers evaluate f only through oracle records: a product with Q
    # for each point (QuadraticOracle.point, and value and grad called
    # alone), and for the momentum point the combination of the last two
    # trial points' records, with weights from the one implementation of
    # the anchor weights.  The combination makes no product
    assert _readers("_products") == ["grad", "point", "value"]
    assert _readers("combine") == ["run_fista_constant", "solve"]
    assert _readers("momentum_weights") == ["run_fista_constant", "solve"]
    assert _readers("anchor_weights") == ["compute_x", "run_fista_constant",
                                          "solve"]
    oracle, = [node for tree in _trees("src/varfista/gallery.py")
               for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "QuadraticOracle"]
    combine, = [method for method in oracle.body
                if isinstance(method, ast.FunctionDef)
                and method.name == "combine"]
    assert not _has_product(combine)


def test_the_oracle_keeps_no_memo():
    # f and grad f at one point share the product through the point's
    # record, so the oracle holds no state between calls
    text = (ROOT / "src/varfista/gallery.py").read_text()
    for name in ("_Qu", "_memo_u", "_memo_bytes", "_memo_Qu"):
        assert name not in text, name
    oracle, = [node for node in ast.parse(text).body
               if isinstance(node, ast.ClassDef)
               and node.name == "QuadraticOracle"]
    assert "tobytes" not in {getattr(node, "attr", None)
                             for node in ast.walk(oracle)}


def test_the_solvers_evaluate_f_through_records_with_no_type_branch():
    # solve and the baselines ask the oracle for records (point, combine,
    # gradient), never for value or grad, and leave to the oracle whether
    # a combination is formed or evaluated
    for tree in _trees("src/varfista/solver.py", "src/varfista/baselines.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr in ("value", "grad"):
                owner = node.value
                assert "smooth" not in (getattr(owner, "id", None),
                                        getattr(owner, "attr", None)), \
                    node.lineno
            if isinstance(node, ast.Call):
                assert getattr(node.func, "id", None) not in (
                    "isinstance", "issubclass", "hasattr", "type"), \
                    node.lineno
            assert getattr(node, "id", None) not in (
                "QuadraticOracle", "SmoothOracle"), node.lineno


def test_einsum_is_called_through_the_one_kernels_alias():
    # np.einsum without optimize returns c_einsum(*operands) from Python;
    # src/ calls _kernels.c_einsum, its C entry, and imports it from numpy
    # in that one place, so no einsum pays for the wrapper
    numpy_imports = []
    for path in sorted(ROOT.glob("src/varfista/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert getattr(node, "attr", None) != "einsum", path.name
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert "einsum" not in names, path.name
                if "c_einsum" in names and node.module.startswith("numpy"):
                    numpy_imports.append((path.name, node.module))
    assert numpy_imports == [("_kernels.py", "numpy._core.multiarray"),
                             ("_kernels.py", "numpy.core.multiarray")]


def test_benchmark_tracer_wraps_the_package_and_restores_it(monkeypatch):
    # perfbench/tracing.py wraps internals by name (solver.solve,
    # prox.BoxIndicator.prox, HistoryLedger.ymin_ratio_max, ...) and its
    # rescan classifier reads HistoryLedger.cached_ymin during a solve;
    # removing or renaming one in src/ fails here rather than in a
    # benchmark run.  This run changes best point and keeps it, so it
    # makes full and incremental rescans
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    import varfista.prox as prox
    import varfista.solver as solver
    from varfista.audit import audit_corpus
    from varfista.gallery import default_start

    solve, box_prox = solver.solve, prox.BoxIndicator.prox
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert solver.solve is not solve
        assert prox.BoxIndicator.prox is not box_prox
        problem = audit_corpus(2, 0)[1]
        solver.solve(problem, solver.SolverConfig(rho_hat=1e-7),
                     default_start(problem))
    finally:
        restore()
    spans = {tracer.labels[i] for i in tracer.name}
    assert {"solver.rescan_full", "solver.rescan_incremental"} <= spans
    assert solver.solve is solve
    assert prox.BoxIndicator.prox is box_prox
