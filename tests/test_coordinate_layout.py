"""The Z[pi] coordinate layout has one owner: groupring.  The layout of
module coordinates and the subquotient cut from them have one owner:
FPModule.

The loops below are frozen copies of the hand-rolled expansions that
extensions and homology used before they called RingMatrix.expand,
kron_identity, column_coordinates, ring_matrix_from_coordinates and
intmat.block_diagonal.  Each new route must give bit-identical integer
matrices, so every downstream lattice computation is unchanged.  The
copies of hom_lambda's lattice lines and of ExtContext.ext_invariants are
frozen from before FPModule.subquotient owned them; hom_lambda, ext1 and
module_homology must agree with them (and with ref_module_homology) bit
for bit.  An ast guard keeps the module layout in extensions and every
import in src/fourfold used, another keeps each import pointing to a
lower layer of the package, a third keeps every error the package
raises a FourfoldError, and a fourth keeps every public method read
somewhere in the package unless it is listed as an operation of its own.
"""

import ast
import pathlib
import random

import pytest

from fourfold.complexes import presentation_complex
from fourfold import errors, extensions
from fourfold.extensions import (
    ext1,
    fpmodule_cokernel,
    fpmodule_free,
    fpmodule_homology,
    fpmodule_kernel,
    hom_lambda,
)
from fourfold.groupring import (
    RingElement,
    RingMatrix,
    char_from_signs,
    cyclic_group,
    deexpand_vector,
    product_group,
    regular_representation,
    ring_matrix_from_columns,
    ring_matrix_from_coordinates,
)
from fourfold.homology import module_homology, resolution_for
from fourfold.intmat import IntMatrix, block_diagonal, hstack, preimage_kernel, quotient_invariants
from fourfold.manifolds import LensSpace, cp2_complex, lens_complex, rp4_complex, s4_complex


# ---- frozen reference: the loops as they were -----------------------------


def ref_action_matrix(module, elem):
    n = module.group.order()
    s = module.num_gens
    block = regular_representation(elem)
    data = [[0] * (s * n) for _ in range(s * n)]
    for b in range(s):
        for i in range(n):
            row = data[b * n + i]
            brow = block.data[i]
            for j in range(n):
                if brow[j]:
                    row[b * n + j] = brow[j]
    return IntMatrix(s * n, s * n, data)


def ref_precompose_matrix(a, module):
    n = module.group.order()
    s = module.num_gens
    block_dim = s * n
    k = a.rows
    kp = a.cols
    data = [[0] * (k * block_dim) for _ in range(kp * block_dim)]
    for jp in range(kp):
        for j in range(k):
            e = a.entries[j][jp]
            if e.is_zero():
                continue
            act = ref_action_matrix(module, e)
            for bi in range(block_dim):
                row = data[jp * block_dim + bi]
                arow = act.data[bi]
                for bj in range(block_dim):
                    if arow[bj]:
                        row[j * block_dim + bj] += arow[bj]
    return IntMatrix(kp * block_dim, k * block_dim, data)


def ref_ambiguity_lattice(k, module):
    rel = module.rel_lattice
    block_dim = module.num_gens * module.group.order()
    data = [[0] * (k * rel.cols) for _ in range(k * block_dim)]
    for c in range(k):
        for i in range(block_dim):
            row = data[c * block_dim + i]
            rrow = rel.data[i]
            for j in range(rel.cols):
                if rrow[j]:
                    row[c * rel.cols + j] = rrow[j]
    return IntMatrix(k * block_dim, k * rel.cols, data)


def ref_chain_relations(module, k):
    rel = module.rel_lattice
    block = module.num_gens * module.group.order()
    data = [[0] * (k * rel.cols) for _ in range(k * block)]
    for c in range(k):
        for i in range(block):
            row = data[c * block + i]
            rrow = rel.data[i]
            for j in range(rel.cols):
                if rrow[j]:
                    row[c * rel.cols + j] = rrow[j]
    return IntMatrix(k * block, k * rel.cols, data)


def ref_boundary_matrix(delta, module):
    block = module.num_gens * module.group.order()
    data = [[0] * (delta.cols * block) for _ in range(delta.rows * block)]
    for r in range(delta.rows):
        for c in range(delta.cols):
            entry = delta.entries[r][c]
            if entry.is_zero():
                continue
            act = ref_action_matrix(module, entry)
            for bi in range(block):
                row = data[r * block + bi]
                arow = act.data[bi]
                for bj in range(block):
                    if arow[bj]:
                        row[c * block + bj] += arow[bj]
    return IntMatrix(delta.rows * block, delta.cols * block, data)


def ref_module_homology(res, w, module, degree):
    rel = module.rel_lattice
    block = module.num_gens * module.group.order()
    dim = res.ranks[degree] * block
    rel_here = ref_chain_relations(module, res.ranks[degree])
    if degree >= 1:
        d_out = ref_boundary_matrix(res.d(degree).twist(w), module)
        rel_below = ref_chain_relations(module, res.ranks[degree - 1])
        cycles = preimage_kernel(d_out, rel_below)
    else:
        cycles = IntMatrix.identity(dim)
    d_in = ref_boundary_matrix(res.d(degree + 1).twist(w), module)
    bound_gens = hstack(d_in, rel_here)
    return quotient_invariants(cycles, bound_gens)


def ref_hom_lambda(m, n):
    """hom_lambda's lattice lines, on the frozen precomposition and
    ambiguity copies: (invariants, lift lattice)."""
    a = m.relations
    pre = ref_precompose_matrix(a, n)
    lifts = preimage_kernel(pre, ref_ambiguity_lattice(a.cols, n))
    zero = ref_ambiguity_lattice(m.num_gens, n)
    inv = quotient_invariants(lifts, zero)
    return inv, lifts


def ref_ext_invariants(source, p1, p2):
    """ExtContext.ext_invariants, with its cobound and _p2_lattices inlined."""
    cobound = hstack(ref_precompose_matrix(p1, source), ref_ambiguity_lattice(p1.cols, source))
    p2_lattices = (ref_precompose_matrix(p2, source), ref_ambiguity_lattice(p2.cols, source))
    return quotient_invariants(preimage_kernel(*p2_lattices), cobound)


def ref_generator_image_columns(rm):
    n = rm.group.order()
    full = rm.expand()
    cols = [full.column(j * n) for j in range(rm.cols)]
    return IntMatrix.from_columns(cols, full.rows)


def ref_split_hom_columns(module, vec, k):
    n = module.group.order()
    s = module.num_gens
    block_dim = s * n
    cols = []
    for j in range(k):
        block = vec[j * block_dim : (j + 1) * block_dim]
        cols.append(deexpand_vector(module.group, block, s))
    return cols


def ref_expand(rm):
    g = rm.group
    n = g.order()
    data = [[0] * (rm.cols * n) for _ in range(rm.rows * n)]
    for i in range(rm.rows):
        for j in range(rm.cols):
            e = rm.entries[i][j]
            if e.is_zero():
                continue
            block = regular_representation(e)
            for bi in range(n):
                row = data[i * n + bi]
                brow = block.data[bi]
                for bj in range(n):
                    if brow[bj]:
                        row[j * n + bj] = brow[bj]
    return IntMatrix(rm.rows * n, rm.cols * n, data)


# ---- cases ----------------------------------------------------------------


def _homology_module(c, i):
    """H_i(C; Z[pi]) as a module, with zero maps past the two ends."""
    d_out = c.d(i) if i >= 1 else RingMatrix.zeros(c.group, 0, c.ranks[i])
    d_in = c.d(i + 1) if i < c.top_degree else RingMatrix.zeros(c.group, c.ranks[i], 0)
    return fpmodule_homology(d_out, d_in)


def _model_cases():
    """(ring matrices, modules, character) drawn from the model complexes."""
    complexes = [
        rp4_complex(),
        s4_complex(),
        cp2_complex(),
        lens_complex(LensSpace(5, 2)),
        lens_complex(LensSpace(7, 3)),
        presentation_complex(product_group((2, 3))),
    ]
    cases = []
    for c in complexes:
        mats = []
        for i in range(1, c.top_degree + 1):
            mats += [c.d(i), c.d(i).transpose_involute(c.w)]
        modules = [fpmodule_free(c.group, 1), fpmodule_free(c.group, 2)]
        modules += [_homology_module(c, i) for i in range(c.top_degree + 1)]
        modules.append(fpmodule_kernel(c.d(2)))
        modules.append(fpmodule_cokernel(c.d(2).transpose_involute(c.w)))
        cases.append((c.group, c.w, mats, modules))
    return cases


def _random_element(rng, g):
    els = g.elements()
    return RingElement(g, {rng.choice(els): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))})


def _random_matrix(rng, g, rows, cols):
    return RingMatrix(g, rows, cols, [[_random_element(rng, g) for _ in range(cols)] for _ in range(rows)])


RANDOM_GROUPS = [(1,), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (3, 2)]


def _random_cases():
    rng = random.Random(20)
    cases = []
    for orders in RANDOM_GROUPS:
        g = product_group(orders)
        signs = [rng.choice((1, -1)) if o % 2 == 0 else 1 for o in orders]
        w = char_from_signs(g, signs)
        for _ in range(4):
            shapes = [(0, 0), (0, 2), (2, 0)] + [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
            mats = [_random_matrix(rng, g, r, c) for r, c in shapes]
            modules = [
                fpmodule_cokernel(_random_matrix(rng, g, rng.randint(0, 2), rng.randint(0, 2)))
                for _ in range(2)
            ]
            cases.append((g, w, mats, modules))
    return cases


CASES = _model_cases() + _random_cases()
IDS = ["model-%d" % i for i in range(6)] + ["random-%d" % i for i in range(len(CASES) - 6)]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_forward_block_expansions_are_bit_identical(case):
    g, w, mats, modules = case
    rng = random.Random(7)
    for a in mats:
        assert a.expand() == ref_expand(a)
        for module in modules:
            s = module.num_gens
            assert module.coordinate_map(a.transpose()) == ref_precompose_matrix(a, module)
            delta = a.twist(w)
            assert delta.kron_identity(s).expand() == ref_boundary_matrix(delta, module)
    for module in modules:
        s = module.num_gens
        for k in range(4):
            assert module.relation_lattice(k) == ref_ambiguity_lattice(k, module)
            assert block_diagonal(module.rel_lattice, k) == ref_chain_relations(module, k)
        for _ in range(3):
            e = _random_element(rng, g)
            assert RingMatrix(g, 1, 1, [[e]]).kron_identity(s).expand() == ref_action_matrix(module, e)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_column_coordinates_and_their_inverse(case):
    g, _w, mats, _modules = case
    for a in mats:
        cols = a.column_coordinates()
        assert cols == ref_generator_image_columns(a).columns()
        assert ring_matrix_from_coordinates(g, cols, a.rows) == a


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_hom_generators_match_the_split_reference(case):
    _g, _w, _mats, modules = case
    for m in modules[:2]:
        for n in modules[:2]:
            hom = hom_lambda(m, n)
            assert len(hom.generators) == hom.lift_lattice.cols
            for vec, f in zip(hom.lift_lattice.columns(), hom.generators):
                cols = ref_split_hom_columns(n, vec, m.num_gens)
                assert f == ring_matrix_from_columns(n.group, cols, n.num_gens)
                assert hom.contains(f, n)


def test_module_homology_boundaries_over_resolutions():
    for g in (cyclic_group(4), product_group((2, 2))):
        res = resolution_for(g)
        w = char_from_signs(g, [-1] + [1] * (g.ngens - 1))
        c = presentation_complex(g)
        module = fpmodule_homology(c.d(1), c.d(2))
        for delta in (res.d(i).twist(w) for i in range(1, res.top_degree + 1)):
            assert delta.kron_identity(module.num_gens).expand() == ref_boundary_matrix(delta, module)
        for k in set(res.ranks):
            assert block_diagonal(module.rel_lattice, k) == ref_chain_relations(module, k)
        for degree in range(4):
            assert module_homology(res, w, module, degree) == ref_module_homology(res, w, module, degree)
    g = cyclic_group(3)
    assert RingMatrix.zeros(g, 0, 2).kron_identity(3).expand() == IntMatrix.zeros(0, 18)
    assert RingMatrix.zeros(g, 2, 0).column_coordinates() == []


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_module_subquotients_match_the_frozen_copies(case):
    g, w, _mats, modules = case
    res = resolution_for(g)
    for m in modules:
        for n in modules:
            hom = hom_lambda(m, n)
            assert (hom.invariants, hom.lift_lattice) == ref_hom_lambda(m, n)
        # into the first three modules: Ext into a larger model module takes seconds
        for n in modules[:3]:
            assert ext1(m, n) == ref_ext_invariants(n, m.relations, m.relations.kernel())
        for degree in range(3):
            assert module_homology(res, w, m, degree) == ref_module_homology(res, w, m, degree)


SRC = pathlib.Path(extensions.__file__).parent
# perfbench/tests/test_perfbench.py checks that the tracer rebinds this
# alias, so classify keeps it until that test reads another module's alias
KEPT_FOR_THE_TRACER_TEST = {("classify.py", "smith_normal_form")}


def test_src_imports_are_used_and_only_extensions_lays_out_module_coordinates():
    unused, layout = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                exported |= {e.value for e in node.value.elts}
            elif isinstance(node, ast.Call) and path.name != "extensions.py":
                f = node.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in (
                    "kron_identity",
                    "block_diagonal",
                ):
                    layout.append("%s:%d" % (path.name, node.lineno))
        unused += [(path.name, n) for n in sorted(imported - used - exported)]
    assert set(unused) == KEPT_FOR_THE_TRACER_TEST
    assert layout == []


# The import layers of the package, lowest first.  A module imports only
# from layers below its own, so the import graph has no cycle and no
# module reaches up to a caller.
LAYERS = [
    {"errors", "_snf_py"},
    {"values"},
    {"intmat"},
    {"groupring"},
    {"complexes", "extensions"},
    {"homology", "manifolds", "serialize"},
    {"classify"},
    {"cli"},
    {"__init__"},
]


def _imported_modules(node):
    """The package modules an import node reads from, by file stem."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level:
        names = ["fourfold." + node.module] if node.module else ["fourfold." + a.name for a in node.names]
    elif node.module == "fourfold":
        names = ["fourfold." + a.name for a in node.names]
    else:
        names = [node.module]
    out = []
    for name in names:
        parts = name.split(".")
        if parts[0] == "fourfold":
            out.append(parts[1] if len(parts) > 1 else "__init__")
    return out


def test_src_imports_only_from_lower_layers():
    layer = {name: k for k, names in enumerate(LAYERS) for name in names}
    assert set(layer) == {path.stem for path in SRC.glob("*.py")}
    upward = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for dep in _imported_modules(node):
                    # a name imported from the package itself counts as __init__
                    if layer.get(dep, layer["__init__"]) >= layer[path.stem]:
                        upward.append("%s:%d imports %s" % (path.name, node.lineno, dep))
    assert upward == []


# The one raise of a type outside errors.py: the lens-family criteria
# are proved to agree, so a split is a bug in the package, not an input
# error for the caller to handle.
RAISES_OUTSIDE_ERRORS = {("classify.py", "classify_lens_family", "AssertionError")}


def _raises(node, scope):
    """(scope, raised name) for every raise under node, scope being the
    innermost enclosing function; a bare re-raise names None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        yield scope, None if exc is None else getattr(exc, "id", ast.dump(exc))
    for child in ast.iter_child_nodes(node):
        yield from _raises(child, scope)


def test_src_raises_only_fourfold_errors():
    typed = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.FourfoldError)
    }
    others = set()
    for path in sorted(SRC.glob("*.py")):
        for scope, name in _raises(ast.parse(path.read_text(encoding="utf-8")), None):
            if name is not None and name not in typed:
                others.add((path.name, scope, name))
    assert others == RAISES_OUTSIDE_ERRORS


# Public methods that no module of the package reads, each kept because it
# is an operation in its own right rather than a second spelling of one.
UNREAD_PUBLIC_METHODS = {
    ("ExtClass", "same_class"): "equality in Ext^1, the group the class lives in",
    ("ExtClass", "scale"): "the Z-module action on Ext^1",
    ("ExtClass", "shift_by_coboundary"): "moves a representative within its class",
    ("FPModule", "abelian_invariants"): "the underlying abelian group of a module",
    ("GroupDescriptor", "generator"): "the i-th generator as a group element",
    ("IntMatrix", "from_rows"): "the row-wise pair of from_columns",
    ("IntMatrix", "column"): "one column as a tuple, where columns() gives them all",
    ("LinkingForm", "evaluate_num"): "the value of the form on (x, y) as a numerator mod the order",
    ("SubquotientMap", "injective"): "the pair of surjective, which hopf_check reads",
}


def test_src_public_methods_are_read_or_kept():
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined |= {
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
                }
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert {(cls, name) for cls, name in defined if name not in read} == set(UNREAD_PUBLIC_METHODS)
