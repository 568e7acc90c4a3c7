"""Structural rules read from the library's source with ``ast``.

The decision "is this a valid prime, and what do we say if not" lives in
``padics.require_primes`` alone; every entry point that takes a prime calls
it.  ``is_prime`` is left to that helper and to two places where it is
arithmetic or text validation, not argument checking.  In ``measures`` and
``zetabranch`` every public function with a parameter ``p`` or ``q`` calls
``require_primes`` or one of the named checkers that call it first
(``measures._open_set_level``, ``zetabranch._kummer``); the one exception is
``measures.open_set_closed_form``, a pure formula.

Bernoulli values reach formulas through ``rationals.zeta_neg_ratio`` (zeta
at a non-positive integer, with the Euler factors at a tuple of primes
removed, as an unreduced integer pair, or with none removed, the pair
that ``padics.reduce_relative`` takes beside its Euler factors) and
``rationals.bernoulli_polynomial``; ``bernoulli`` itself is read only
by those two, by the real-analytic Euler-Maclaurin tail and by the table
printer, so no module writes out a Bernoulli-value formula of its own.

The rows k! S(m, k) of the Stirling triangle have one source too:
``measures._stirling_triangle`` alone reads or extends the module triangle
``_TRIANGLE``, no other definition is named for Stirling numbers, and only
``measures._monomial_moments`` asks it for rows.  The numerators of the
one Taylor division are kept the same way: ``measures._xi_numerators``
alone reads or extends the module table ``_NUMERATORS``, keyed by (a, r),
and it alone calls ``xi_weights``, so every weight list the library forms
is the a weights of some xi_r, built only when its numerators are not
already in the table.

Euler factors are read mod p^K in one place: ``padics.factored_numerator``,
the numerator of a factored pair (num, den, m, primes) mod p^K, is called
only by ``padics.reduce_relative`` and ``zetabranch._kummer``, and
``_kummer`` asks ``zeta_neg_ratio`` for no primes, so it never multiplies
out a product-form Euler factor.

Every module table has one keeper.  A module-level name that some function
writes (an item or attribute stored or deleted, a mutating method called,
through a local alias too, or any method of a library object called) is a
key of ``TABLE_KEEPERS``, and its keeper is the one function that reads or
writes it: so every Teichmuller lift, from ``teichmuller``,
``double_teichmuller`` or ``angle_bracket``, passes through
``padics._teichmuller_lift``, and every prime check through the memo of
``padics.require_primes``.  The subcommand registry ``cli.COMMANDS`` is
written by one keeper and read by the dispatcher.

A ``PadicNumber`` is built unchecked in three places only:
``PadicNumber._of_unit``, which assigns the four slots with no reduction
or test, is named by ``padics._padic_unit`` (the one core under
``reduce_relative`` and ``reduce_absolute``), ``padics.teichmuller`` and
``padics.angle_bracket``, whose units are already reduced and prime to p,
and by no other code, so no alias hides a caller; the arithmetic operators
build their results through ``_padic_unit`` too.  The checked
``PadicNumber(...)`` reads only values from outside the library: the
library calls it only from ``PadicNumber.exact_zero`` and
``PadicNumber.zero_mod`` (as ``cls``) and ``MahlerSeries.deserialize``.

No module reads another module's private names: an underscore name is
imported, or read off an imported module, only inside the module that
defines it.  The unchecked p-adic reductions that ``mahler``, ``measures``
and ``zetabranch`` share are public names of ``padics``.

Only ``cli.main``, the ``pqzeta`` script, ends the process with ``os._exit``;
no library function can end the process of a program that calls it.

Work is refused before it starts in one place: ``cli.run`` reads the table
``cli.WORK_CAPS``, whose every key is a subcommand, and is the only code in
``cli`` that holds the text of a refusal "past the cap".

Every exact power a chain kernel forms goes through ``chains._pow``, which
refuses one of more than 4300 digits: no ``**`` or ``pow`` call is written
in the body of a ``chains.kernel_*`` constructor, its step function
included, or of ``propagate``.

A record's fields are written once, in its ``__slots__``: ``padics.Record``
builds the constructor of every subclass that defines none, and among the
subclasses only ``KLBranch`` and ``DoubleBranch``, which validate, and
``TrivialityReport``, which builds fresh containers, define ``__init__``.

Every public name of the library has a consumer.  A public top-level
function or class, or a public method or property of a top-level class, is
referenced from ``src/pqzeta`` outside its own definition (a method by
attribute, a top-level name by attribute or load, or by ``__all__``), or it
is listed in ``OUTSIDE_CONSUMERS`` with the caller outside the library that
runs it.  A reference oracle lives in the test that uses it, not in ``src/``.
"""

import ast
from collections import Counter
from pathlib import Path

import pqzeta

SOURCES = sorted(Path(pqzeta.__file__).parent.glob("*.py"))

IS_PRIME_CALLERS = {
    "padics.require_primes",
    "rationals._staudt_clausen_denominators",
    "mahler.MahlerSeries.deserialize",
}

BERNOULLI_CALLERS = {
    "rationals.bernoulli_polynomial",
    "rationals.zeta_neg_ratio",
    "analytic.zeta_dirichlet",
    "cli._cmd_bernoulli",
}

PRIME_CHECKERS = {"require_primes", "_open_set_level", "_kummer"}

# public functions of measures and zetabranch that take p or q and check no prime
UNCHECKED_PRIME_TAKERS = {"measures.open_set_closed_form"}

# module table -> its keeper, the one function that reads or writes it
TABLE_KEEPERS = {
    "padics._ROOTS": "padics._teichmuller_lift",
    "padics._LIFTS": "padics._teichmuller_lift",
    "padics._PRIMES": "padics.require_primes",
    "measures._NUMERATORS": "measures._xi_numerators",
    "measures._TRIANGLE": "measures._stirling_triangle",
    "mahler._WALK": "mahler._walked",
    "mahler._COLUMNS": "mahler.characteristic_coefficients_exact",
    "rationals._TABLE": "rationals.bernoulli",
}

# module registry -> its keeper, the one function that writes it
REGISTRY_KEEPERS = {"cli.COMMANDS": "cli.command.register"}

MUTATING_METHODS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear", "update", "setdefault",
                    "add", "discard", "sort", "reverse"}

OUTSIDE_CONSUMERS = {
    "gamma.morita_gamma_exact": "acceptance criterion 3 (tests/test_acceptance.py)",
    "measures.measure_on_open_set": "perfbench/wl_open_set.py",
    "measures.open_set_from_moments": "perfbench/wl_open_set.py",
    "zetabranch.excluded_sigma0": "perfbench/wl_zeta_sweep.py and the acceptance tests",
}


def _definitions(tree, module):
    """Yield (qualified name, node) for every function and class, nested ones too."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                yield name, child
                yield from walk(child, name)
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def _own_nodes(node):
    """The nodes of node's body, nested definitions excluded."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from _own_nodes(child)


def _calls(node, callee):
    """True when the body of node itself (not a nested definition) calls callee."""
    return any(isinstance(child, ast.Call) and (child.func.id if isinstance(child.func, ast.Name)
                                                else getattr(child.func, "attr", None)) == callee
               for child in _own_nodes(node))


def _parsed():
    assert SOURCES, "no library sources found"
    for path in SOURCES:
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _callers(callee):
    callers = set()
    for module, tree in _parsed():
        if _calls(tree, callee):
            callers.add(module)  # a call at module level
        callers.update(name for name, node in _definitions(tree, module) if _calls(node, callee))
    return callers


def test_is_prime_is_called_only_by_the_one_check():
    callers = _callers("is_prime")
    assert "padics.require_primes" in callers  # the walk does find calls
    assert callers <= IS_PRIME_CALLERS, sorted(callers - IS_PRIME_CALLERS)


def test_bernoulli_values_reach_formulas_through_zeta_neg():
    callers = _callers("bernoulli")
    assert "rationals.zeta_neg_ratio" in callers  # the walk does find calls
    assert callers <= BERNOULLI_CALLERS, sorted(callers - BERNOULLI_CALLERS)


def _names(node, name) -> bool:
    """Whether node names name, as a plain name or as an attribute."""
    return any(isinstance(child, ast.Name) and child.id == name or isinstance(child, ast.Attribute)
               and child.attr == name for child in ast.walk(node))


def _readers(table):
    """The functions whose code, nested definitions included, names table."""
    return {
        name
        for module, tree in _parsed()
        for name, node in _definitions(tree, module)
        if not isinstance(node, ast.ClassDef) and _names(node, table)
    }


def test_one_stirling_triangle():
    named = {
        name
        for module, tree in _parsed()
        for name, node in _definitions(tree, module)
        if "stirling" in node.name.lower()
    }
    assert named == _readers("_TRIANGLE") == {"measures._stirling_triangle"}
    assert _callers("_stirling_triangle") == {"measures._monomial_moments"}


def test_only_the_numerator_keeper_builds_weight_lists():
    assert _callers("xi_weights") == {"measures._xi_numerators"}


def test_euler_factors_are_read_mod_p_to_the_k_in_one_place():
    assert _callers("factored_numerator") == {"padics.reduce_relative", "zetabranch._kummer"}
    tree = dict(_parsed())["zetabranch"]
    kummer = next(node for name, node in _definitions(tree, "zetabranch") if name == "zetabranch._kummer")
    reads = [node for node in ast.walk(kummer)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "zeta_neg_ratio"]
    assert reads and all(len(node.args) == 1 and not node.keywords for node in reads)


def _outside_functions(tree):
    """The statements of a module or class body that no function holds, class bodies included."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _outside_functions(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def test_only_three_builders_construct_a_padic_number_unchecked():
    # a reference counts, not only a call, so an alias such as new = PadicNumber._of_unit hides no caller
    assert _readers("_of_unit") == {"padics._padic_unit", "padics.teichmuller", "padics.angle_bracket"}
    assert [node.lineno for _, tree in _parsed() for node in _outside_functions(tree) if _names(node, "_of_unit")] == []


def test_only_outside_values_go_through_the_checked_constructor():
    # a call of PadicNumber, of cls in its own classmethods, or of its class read off a value
    checked = _callers("PadicNumber") | {name for name in _callers("cls") if name.startswith("padics.PadicNumber.")}
    assert checked == {"padics.PadicNumber.exact_zero", "padics.PadicNumber.zero_mod",
                       "mahler.MahlerSeries.deserialize"}
    tree = dict(_parsed())["padics"]
    padic = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "PadicNumber")
    assert [node.lineno for node in ast.walk(padic) if isinstance(node, ast.Call) and (
        getattr(node.func, "attr", None) == "__class__" or isinstance(node.func, ast.Call))] == []


def _root(node):
    """The name under a chain of items and attributes, X in X[k].y, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _written(function, names, objects) -> set:
    """The module-level names among names that the body of function writes: an
    item or attribute stored or deleted, a mutating method called or a global
    rebound, also through a local alias (rows = _TRIANGLE); for the names of
    library objects (objects), any method called."""
    nodes = list(_own_nodes(function))
    aliases = {name: name for name in names}
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            aliases.update({target.id: aliases[node.value.id] for target in node.targets if isinstance(target, ast.Name)})
    written = set()
    for node in nodes:
        if isinstance(node, ast.Global):
            written.update(set(node.names) & names)
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            written.add(aliases.get(_root(node)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = aliases.get(_root(node.func.value))
            if node.func.attr in MUTATING_METHODS or name in objects:
                written.add(name)
    return written - {None}


def _writers(trees: dict) -> dict:
    """"module.NAME" -> the functions that write it, for each module-level name that some function writes."""
    classes = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    writers = {}
    for module, tree in trees.items():
        names, objects = set(), set()
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                # a, b = x, y binds a to x and b to y
                pairs = zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple) and isinstance(
                    node.value, ast.Tuple) else [(target, node.value)]
                for name, value in pairs:
                    if isinstance(name, ast.Name):
                        names.add(name.id)
                        if isinstance(value, ast.Call) and getattr(value.func, "id", None) in classes:
                            objects.add(name.id)
        for name, node in _definitions(tree, module):
            if not isinstance(node, ast.ClassDef):
                for table in _written(node, names, objects):
                    writers.setdefault(f"{module}.{table}", set()).add(name)
    return writers


def test_every_module_table_has_one_keeper():
    writers = _writers(dict(_parsed()))
    keepers = TABLE_KEEPERS | REGISTRY_KEEPERS
    assert writers.keys() == keepers.keys(), sorted(writers.keys() ^ keepers.keys())
    assert {table: writers[table] for table in keepers} == {table: {keeper} for table, keeper in keepers.items()}
    assert {table: _readers(table.split(".")[1]) for table in TABLE_KEEPERS} == {
        table: {keeper} for table, keeper in TABLE_KEEPERS.items()}


def test_the_table_rule_finds_every_kind_of_write():
    source = """
class Box: ...
ITEMS, ROWS, BOX, SEEN, FLAG, READ = {}, [], Box(), set(), 0, {}
def store(k): ITEMS[k] = 1
def drop(k): del ITEMS[k]
def grow():
    rows = ROWS
    rows.append([])
def ask(): return BOX.get(3)
def see(): SEEN.add(1)
def flip():
    global FLAG
    FLAG = 1
def read(k): return READ.get(k), ROWS[0]
"""
    assert _writers({"m": ast.parse(source)}) == {
        "m.ITEMS": {"m.store", "m.drop"}, "m.ROWS": {"m.grow"}, "m.BOX": {"m.ask"}, "m.SEEN": {"m.see"},
        "m.FLAG": {"m.flip"}}


def test_no_module_imports_a_private_name_of_another():
    found = []
    for module, tree in _parsed():
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pqzeta")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.append(f"{module} <- {node.module or '.'}.{alias.name}")
                    elif node.module in (None, "pqzeta"):  # a sibling module itself
                        siblings.add(alias.asname or alias.name)
        found += [
            f"{module} <- {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in siblings
        ]
    assert found == []


def test_only_the_script_entry_point_exits_hard():
    assert _callers("_exit") == {"cli.main"}


def test_every_work_cap_belongs_to_a_subcommand():
    from pqzeta import cli

    assert cli.WORK_CAPS and cli.WORK_CAPS.keys() <= cli.COMMANDS.keys()


def test_only_run_refuses_work_past_a_cap():
    tree = dict(_parsed())["cli"]

    def refusals(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Constant) and "past the cap" in str(c.value)]

    run = next(node for name, node in _definitions(tree, "cli") if name == "cli.run")
    assert refusals(run) and refusals(tree) == refusals(run)


def test_chain_kernels_form_powers_only_through_pow():
    tree = dict(_parsed())["chains"]
    bodies = {name: node for name, node in _definitions(tree, "chains")
              if name.startswith("chains.kernel_") or name in ("chains.propagate", "chains.limit_check")}
    assert len(bodies) >= 8  # the walk does find the six constructors, propagate and limit_check
    powers = [
        f"{name}:{node.lineno}"
        for name, body in bodies.items()
        for node in ast.walk(body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
    ]
    assert powers == []


def test_no_private_prime_validator():
    found = [
        name
        for module, tree in _parsed()
        for name, node in _definitions(tree, module)
        if not isinstance(node, ast.ClassDef) and node.name.startswith("_require_prime")
    ]
    assert found == []


def test_every_public_function_that_takes_p_or_q_checks_its_primes():
    trees = dict(_parsed())
    takers, unchecked = set(), set()
    for module in ("measures", "zetabranch"):
        for name, node, _ in _public_definitions(module, trees[module]):
            if not isinstance(node, ast.FunctionDef):
                continue
            if {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)} & {"p", "q"}:
                takers.add(name)
                if not any(_calls(node, checker) for checker in PRIME_CHECKERS):
                    unchecked.add(name)
    assert {"measures.double_moment", "zetabranch.kummer_check"} <= takers  # the walk does find them
    assert unchecked == UNCHECKED_PRIME_TAKERS, sorted(unchecked ^ UNCHECKED_PRIME_TAKERS)


def test_only_the_records_that_validate_or_build_containers_define_init():
    records = {
        node.name: any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
        for _, tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) == "Record" for base in node.bases)
    }
    assert len(records) == 13  # the walk does find every record
    assert {name for name, has_init in records.items() if has_init} == {"KLBranch", "DoubleBranch", "TrivialityReport"}


def _references(node) -> tuple[Counter, Counter]:
    """How often each name is read as an attribute, and as a plain name, under node."""
    attrs, loads = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            attrs[child.attr] += 1
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            loads[child.id] += 1
    return attrs, loads


def _public_definitions(module, tree):
    """Yield (qualified name, node, is_method) for the public top-level
    functions and classes and the public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{module}.{node.name}.{method.name}", method, True


def test_every_public_name_has_a_consumer():
    trees = dict(_parsed())
    attrs, loads = Counter(), Counter()
    for tree in trees.values():
        a, n = _references(tree)
        attrs.update(a)
        loads.update(n)
    exported = next(
        ast.literal_eval(node.value)
        for node in trees["__init__"].body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    )
    unused = set()
    for module, tree in trees.items():
        for name, node, is_method in _public_definitions(module, tree):
            inside_attrs, inside_loads = _references(node)
            uses = attrs[node.name] - inside_attrs[node.name]
            if not is_method:
                uses += loads[node.name] - inside_loads[node.name] + (node.name in exported)
            if not uses:
                unused.add(name)
    assert unused == set(OUTSIDE_CONSUMERS), sorted(unused ^ set(OUTSIDE_CONSUMERS))
