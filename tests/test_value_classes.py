"""The value classes behave as the dataclasses they replaced.

Each of the twelve value classes of the package is a plain __slots__
class.  Its oracle here is a dataclass twin with the same name, fields,
defaults, frozenness and validation as the class had when it was a
dataclass: the twins' __post_init__ bodies are frozen copies of the old
ones.  On sample values the class and its twin must agree on ==, !=,
hash, repr, defaults and the errors of construction and assignment.
Importing the package must not load dataclasses or what it pulls in.
"""

import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys

import pytest

import fourfold
from fourfold.classify import HopfReport, LensFamilyReport, ManifoldRecord
from fourfold.errors import (
    DimensionMismatch,
    FourfoldError,
    HypothesisViolated,
    InvalidLens,
    UnsupportedCharacter,
)
from fourfold.extensions import EmFamily, HomGroup
from fourfold.groupring import GroupDescriptor, OrientationChar, cyclic_group, product_group, trivial_group
from fourfold.intmat import AbelianInvariants, IntMatrix, SmithForm, SubquotientMap
from fourfold.manifolds import LensSpace, LinkingForm

# ---- frozen copies of the dataclass validation -------------------------------


def _abelian_post_init(self):
    if self.free_rank < 0:
        raise HypothesisViolated("free rank %r is negative" % (self.free_rank,))
    if any(t < 2 for t in self.torsion):
        raise HypothesisViolated("torsion %r has an entry below 2" % (self.torsion,))
    for a, b in zip(self.torsion, self.torsion[1:]):
        if b % a:
            raise HypothesisViolated("torsion %r is not a divisibility chain" % (self.torsion,))


def _char_post_init(self):
    if len(self.signs) != self.group.ngens:
        raise UnsupportedCharacter("need %d signs, got %d" % (self.group.ngens, len(self.signs)))
    if any(s not in (1, -1) for s in self.signs):
        raise UnsupportedCharacter("signs must be +1 or -1")
    for o, s in zip(self.group.orders, self.signs):
        if s == -1 and o % 2 == 1:
            raise UnsupportedCharacter("generator of odd order %d cannot have sign -1" % o)


def _lens_post_init(self):
    if self.p < 2:
        raise InvalidLens("need p >= 2")
    if math.gcd(self.p, self.q) != 1:
        raise InvalidLens("q must be a unit mod p")


def _linking_post_init(self):
    if self.order < 2:
        raise InvalidLens("need order >= 2")
    if math.gcd(self.order, self.value) != 1:
        raise InvalidLens("linking form value must be a unit")


def _record_post_init(self):
    vec = tuple(int(x) for x in self.class_h4)
    if len(vec) != self.h4.free_rank + len(self.h4.torsion):
        raise DimensionMismatch(
            "class has %d coordinates, homology needs %d" % (len(vec), self.h4.free_rank + len(self.h4.torsion))
        )
    k = self.h4.free_rank
    object.__setattr__(self, "class_h4", vec[:k] + tuple(x % t for x, t in zip(vec[k:], self.h4.torsion)))


def twin(cls, fields, frozen, post_init=None):
    namespace = {"__post_init__": post_init} if post_init else {}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen, namespace=namespace)


TWINS = {
    AbelianInvariants: twin(AbelianInvariants, ["free_rank", "torsion"], True, _abelian_post_init),
    SmithForm: twin(SmithForm, ["U", "V", "diag"], True),
    SubquotientMap: twin(SubquotientMap, ["kernel", "cokernel"], True),
    GroupDescriptor: twin(GroupDescriptor, ["orders", "laurent_rank"], True),
    OrientationChar: twin(OrientationChar, ["group", "signs"], True, _char_post_init),
    LensSpace: twin(LensSpace, ["p", "q"], True, _lens_post_init),
    LinkingForm: twin(LinkingForm, ["order", "value"], True, _linking_post_init),
    EmFamily: twin(EmFamily, ["a_free", "deltas", "b"], True),
    HomGroup: twin(
        HomGroup,
        ["invariants", "generators", ("lift_lattice", object, dataclasses.field(repr=False, default=None))],
        False,
    ),
    ManifoldRecord: twin(
        ManifoldRecord,
        ["group", "w_signs", "class_h4", "h4", ("aut_multipliers", tuple, dataclasses.field(default=()))],
        True,
        _record_post_init,
    ),
    LensFamilyReport: twin(LensFamilyReport, ["p", "q1", "q2", "equivalent", "verdicts", "certificates"], False),
    HopfReport: twin(
        HopfReport,
        ["groups", "checks", "maps", ("notes", list, dataclasses.field(default_factory=list))],
        False,
    ),
}
MUTABLE = {HomGroup, LensFamilyReport, HopfReport}

Z, Z2, Z4 = AbelianInvariants(1, ()), AbelianInvariants(0, (2,)), AbelianInvariants(0, (4,))
I2 = IntMatrix.identity(2)
SWAP = IntMatrix(2, 2, [[0, 1], [1, 0]])

# Sample arguments per class; a repeated tuple gives a pair of equal values.
SAMPLES = {
    AbelianInvariants: [(0, ()), (1, ()), (0, (2,)), (2, (2, 4)), (2, (2, 4)), (0, (2, 4))],
    SmithForm: [(I2, I2, (1, 2)), (I2, SWAP, (1, 2)), (I2, I2, (1, 2)), (I2, I2, (1,))],
    SubquotientMap: [(Z, Z2), (Z2, Z), (Z, Z2), (Z, Z4)],
    GroupDescriptor: [((), 0), ((2,), 0), ((2,), 1), ((2, 3), 0), ((2,), 0)],
    OrientationChar: [
        (cyclic_group(2), (-1,)),
        (cyclic_group(2), (1,)),
        (cyclic_group(2), (-1,)),
        (product_group((2, 4)), (1, -1)),
    ],
    LensSpace: [(5, 2), (7, 3), (5, 2), (5, 3), (5, 7)],
    LinkingForm: [(5, 2), (7, 3), (5, 2), (5, 3)],
    EmFamily: [(1, (1, 2), 0), (1, (1, 2), 0), (0, (1, 2), 0), (1, (2,), 1)],
    HomGroup: [(Z2, [1, 2], I2), (Z2, [1, 2], I2), (Z2, [1, 2], SWAP), (Z, [], None), (Z, [])],
    ManifoldRecord: [
        (trivial_group(), (), (3,), Z2, (1,)),
        (trivial_group(), (), (1,), Z2, (1,)),
        (trivial_group(), (), (5, 3), AbelianInvariants(1, (4,)), (1, 3)),
        (trivial_group(), (), (5, -1), AbelianInvariants(1, (4,)), (1, 3)),
        (trivial_group(), (), (2,), Z2),
        (trivial_group(), (), (0,), Z2, ()),
    ],
    LensFamilyReport: [
        (5, 1, 2, False, {"a": False}, {"a": None}),
        (5, 1, 2, False, {"a": False}, {"a": None}),
        (7, 1, 2, True, {"a": True}, {"a": {"r": 3}}),
    ],
    HopfReport: [
        ({"H": Z}, {"c": True}, {2: None}),
        ({"H": Z}, {"c": True}, {2: None}, []),
        ({"H": Z}, {"c": True}, {2: None}, ["skipped"]),
        ({"H": Z2}, {"c": False}, {}),
    ],
}

# Constructions that the old validation refused, per class.
REFUSED = {
    AbelianInvariants: [(-1, ()), (0, (1,)), (0, (2, 3)), (1, (4, 2))],
    OrientationChar: [(cyclic_group(2), ()), (cyclic_group(2), (0,)), (cyclic_group(3), (-1,))],
    LensSpace: [(1, 1), (6, 4), (0, 1)],
    LinkingForm: [(1, 1), (6, 4)],
    ManifoldRecord: [(trivial_group(), (), (1, 2), Z2), (trivial_group(), (), (), Z)],
}

CLASSES = sorted(TWINS, key=lambda c: c.__name__)


def pairs(cls):
    samples = SAMPLES[cls]
    return [(a, b) for a in samples for b in samples]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_match_the_dataclass(cls):
    twin_cls = TWINS[cls]
    for a, b in pairs(cls):
        x, y, tx, ty = cls(*a), cls(*b), twin_cls(*a), twin_cls(*b)
        assert (x == y) == (tx == ty)
        assert (x != y) == (tx != ty)
        if cls not in MUTABLE and x == y:
            assert hash(x) == hash(y)
    for a in SAMPLES[cls]:
        x = cls(*a)
        assert x == cls(*a) and not x != cls(*a)
        assert x != twin_cls(*a) and x != a and x != None  # noqa: E711
        if cls in MUTABLE:
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(twin_cls(*a))
        else:
            assert hash(x) == hash(twin_cls(*a))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_matches_the_dataclass(cls):
    for a in SAMPLES[cls]:
        assert repr(cls(*a)) == repr(TWINS[cls](*a))
    assert "lift_lattice" not in repr(HomGroup(Z, [], I2))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keyword_arguments_and_defaults_match_the_dataclass(cls):
    twin_cls = TWINS[cls]
    names = [f.name for f in dataclasses.fields(twin_cls)]
    for a in SAMPLES[cls]:
        x, t = cls(**dict(zip(names, a))), twin_cls(*a)
        assert [getattr(x, n) for n in names] == [getattr(t, n) for n in names]


def test_defaults():
    assert HomGroup(Z, []).lift_lattice is None
    assert ManifoldRecord(trivial_group(), (), (1,), Z2).aut_multipliers == ()
    r1, r2 = HopfReport({}, {}, {}), HopfReport({}, {}, {})
    assert r1.notes == [] and r1.notes is not r2.notes
    r1.notes.append("x")
    assert r2.notes == []


@pytest.mark.parametrize("cls", sorted(REFUSED, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_construction_errors_match_the_dataclass(cls):
    for a in REFUSED[cls]:
        with pytest.raises(FourfoldError) as got:
            cls(*a)
        with pytest.raises(FourfoldError) as want:
            TWINS[cls](*a)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment(cls):
    x = cls(*SAMPLES[cls][0])
    t = TWINS[cls](*SAMPLES[cls][0])
    name = cls.__slots__[0]
    if cls in MUTABLE:
        setattr(x, name, 99)
        assert getattr(x, name) == 99 and x != cls(*SAMPLES[cls][0])
        return
    for act in (lambda o: setattr(o, name, 99), lambda o: delattr(o, name)):
        with pytest.raises(FourfoldError) as got:
            act(x)
        assert isinstance(got.value, AttributeError)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            act(t)
        assert str(got.value) == str(want.value)
    assert x == cls(*SAMPLES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal(cls):
    for a in SAMPLES[cls]:
        x = cls(*a)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and repr(y) == repr(x)


def test_importing_the_package_loads_no_dataclass_machinery():
    # -S keeps site and its .pth files out, so whatever is loaded comes
    # from the interpreter core or from the package
    src = os.path.dirname(os.path.dirname(fourfold.__file__))
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "import fourfold, fourfold.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))\n" % src
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
