"""Homology of a LambdaComplex is read off the kept Smith diagonals, with
no product d_out . d_in to re-check that it is a complex.

d.d = 0 holds over Z[pi] for every LambdaComplex (the constructor or the
builder sees to it), and the twisted augmentation and the regular
representation are ring homomorphisms, so it holds for d (x) Z^w and for
the expansion too.  The check-free route must therefore agree with
intmat.homology_invariants, which checks the product, on every complex
the tests build; and group homology must agree with the bar
construction, which shares no code with the resolutions.
"""

import itertools
import os

import pytest

from fourfold.complexes import _twisted_homology, homology_Lambda, homology_Zw
from fourfold.errors import budget
from fourfold.groupring import char_from_signs, laurent_extension, product_group, trivial_group
from fourfold.homology import bar_homology_oracle, group_homology, resolution_for
from fourfold.intmat import homology_invariants
from fourfold.serialize import parse_complex

from test_homology import MODEL_COMPLEXES, RESOLVED_ORDERS

DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "data", "docs")

# pi x Z^r, each written as (cyclic orders, free rank)
FREE_GROUPS = [((), 1), ((), 3), ((2,), 1), ((3,), 2), ((4,), 1), ((2, 2), 1)]


def _group(orders, r):
    g = product_group(orders) if orders else trivial_group()
    return laurent_extension(g, r) if r else g


def admissible_chars(g):
    """Every character of g: -1 only on even cyclic factors and free generators."""
    choices = [(1, -1) if o % 2 == 0 else (1,) for o in g.orders] + [(1, -1)] * g.laurent_rank
    return [char_from_signs(g, signs) for signs in itertools.product(*choices)]


def checked(c, i, image, scale=1):
    """H_i of the integer images of c's boundaries, each of scale times
    its ring rank, through the checked route."""
    d_out = image(c.d(i)) if i >= 1 else None
    d_in = image(c.d(i + 1)) if i < c.top_degree else None
    return homology_invariants(d_out, d_in, c.ranks[i] * scale)


RESOLUTIONS = [(orders, 0) for orders in RESOLVED_ORDERS] + FREE_GROUPS


@pytest.mark.parametrize("orders, r", RESOLUTIONS, ids=lambda x: str(x))
def test_twisted_homology_of_every_resolution_matches_the_checked_route(orders, r):
    g = _group(orders, r)
    res = resolution_for(g)
    for w in admissible_chars(g):
        for i in range(res.top_degree + 1):
            got = _twisted_homology(res, w, i)
            assert got == checked(res, i, lambda d: d.augment(w)), (g, w.signs, i)


def _read_document(path):
    with open(path, encoding="utf-8") as fh:
        return parse_complex(fh.read())


# the model complexes and the benchmark's lens and model documents
DOCUMENTS = dict(MODEL_COMPLEXES)
for _name in os.listdir(DOCS):
    DOCUMENTS[_name] = lambda path=os.path.join(DOCS, _name): _read_document(path)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_homology_of_the_models_and_documents_matches_the_checked_route(name):
    c = DOCUMENTS[name]()
    for i in range(c.top_degree + 1):
        assert homology_Zw(c, i) == checked(c, i, lambda d: d.augment(c.w)), (name, i)
        if c.group.is_finite:
            assert homology_Lambda(c, i) == checked(c, i, lambda d: d.expand(), c.group.order()), (name, i)


# every group of order at most 8, as products of cyclic factors
SMALL_GROUPS = [(n,) for n in range(2, 9)] + [(2, 2), (2, 3), (2, 4), (2, 2, 2)]


@pytest.mark.parametrize("orders", SMALL_GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_group_homology_matches_the_bar_oracle_through_degree_3(orders):
    g = product_group(orders)
    chars = admissible_chars(g)
    for k, w in enumerate(chars):
        # degree 3 of a group of order 7 or 8 reduces a 343 x 2401 bar
        # boundary in about 1.8 s, so there it is read for one character
        top = 3 if g.order() <= 6 or k == len(chars) - 1 else 2
        for n in range(top + 1):
            with budget(10**7):
                assert group_homology(g, w, n) == bar_homology_oracle(g, w, n), (orders, w.signs, n)
