"""JSON interchange: specs, complex documents, records, and report
envelopes.  Emission must be byte-stable."""

import json

import pytest

from fourfold.complexes import homology_Zw
from fourfold.groupring import cyclic_group, laurent_extension, product_group, trivial_group
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import LensSpace, lens_times_circle, rp4_complex, torus4_complex
from fourfold.serialize import (
    SCHEMA_VERSION,
    emit_complex,
    emit_group_spec,
    invariants_to_json,
    parse_char_spec,
    parse_complex,
    parse_group_spec,
    parse_int_matrix,
    parse_record_document,
    report_envelope,
    validate_report,
)
from fourfold.errors import NotAComplex, ParseError


def test_group_spec_round_trip():
    specs = [
        "trivial",
        "cyclic:5",
        "product:2,2",
        "product:2,4,3",
        "cyclic:7*Z",
        "trivial*Z^2",
        "product:2,2*Z^3",
    ]
    for spec in specs:
        g = parse_group_spec(spec)
        assert emit_group_spec(g) == spec
        assert parse_group_spec(emit_group_spec(g)) == g


def test_group_spec_errors():
    for bad in ("", "cyclic:", "cyclic:x", "cyclic:0", "product:", "ring:3", "cyclic:3*W", "cyclic:3*Z^0"):
        with pytest.raises(ParseError):
            parse_group_spec(bad)


def test_char_spec():
    g = product_group((2, 4))
    assert parse_char_spec("trivial", g).is_trivial
    assert parse_char_spec(None, g).is_trivial
    w = parse_char_spec("-1,1", g)
    assert w.signs == (-1, 1)
    assert parse_char_spec("-,+", g).signs == (-1, 1)
    with pytest.raises(ParseError):
        parse_char_spec("-1", g)
    with pytest.raises(ParseError):
        parse_char_spec("-1,2", g)


def test_complex_round_trip_preserves_everything():
    for c in (rp4_complex(), torus4_complex(), lens_times_circle(LensSpace(5, 2))):
        text = emit_complex(c)
        back = parse_complex(text)
        assert back.group == c.group
        assert back.w == c.w
        assert back.ranks == c.ranks
        for i in range(1, c.top_degree + 1):
            assert back.d(i) == c.d(i)
        for i in range(c.top_degree + 1):
            assert homology_Zw(back, i) == homology_Zw(c, i)


def test_emission_is_byte_stable():
    c = rp4_complex()
    a = emit_complex(c)
    b = emit_complex(parse_complex(a))
    assert a == b
    assert a.endswith("\n")
    # canonical form survives a JSON reshuffle of the same data
    doc = json.loads(a)
    shuffled = json.dumps(doc, indent=3)
    assert emit_complex(parse_complex(shuffled)) == a


def test_parse_complex_field_errors_carry_paths():
    base = json.loads(emit_complex(rp4_complex()))

    def expect(msg_part, mutate):
        doc = json.loads(emit_complex(rp4_complex()))
        mutate(doc)
        with pytest.raises(ParseError) as e:
            parse_complex(json.dumps(doc))
        assert msg_part in str(e.value), str(e.value)

    expect("group", lambda d: d.pop("group"))
    expect("w", lambda d: d.update(w=[1, 1]))
    expect("ranks", lambda d: d.update(ranks="x"))
    expect("boundaries", lambda d: d.update(boundaries=d["boundaries"][:2]))
    expect("boundaries[0]", lambda d: d["boundaries"].__setitem__(0, [[]] * 9))
    expect("boundaries[1][0][0]", lambda d: d["boundaries"][1][0].__setitem__(0, [[1, [0, 0]]]))
    expect(
        "boundaries[2][0][0][0]",
        lambda d: d["boundaries"][2][0].__setitem__(0, [["x", [1]]]),
    )
    # JSON booleans are not integers anywhere an integer is expected
    expect("group.order", lambda d: d["group"].update(order=True))
    expect("w", lambda d: d.update(w=[True]))
    expect("ranks", lambda d: d.update(ranks=[1, 1, 1, True, 1]))
    expect("boundaries[0][0][0][0]", lambda d: d["boundaries"][0][0][0][0].__setitem__(0, True))
    expect("boundaries[0][0][0][0]", lambda d: d["boundaries"][0][0][0][0].__setitem__(1, [False]))
    expect("group.orders", lambda d: d.update(group={"type": "product", "orders": [2, True]}))
    expect("group.rank", lambda d: d.update(group={"type": "laurent", "rank": True, "base": d["group"]}))
    with pytest.raises(ParseError):
        parse_complex("{nope")
    with pytest.raises(ParseError):
        parse_complex("[1,2]")


def test_parse_complex_rejects_non_complexes():
    doc = json.loads(emit_complex(rp4_complex()))
    # replace d_2 by the identity: d_1 . d_2 is then t - 1 != 0
    doc["boundaries"][1] = [[[[1, [0]]]]]
    with pytest.raises(NotAComplex) as e:
        parse_complex(json.dumps(doc))
    assert e.value.degree == 2
    # over a Laurent group, which reduces no exponent, one flipped sign in
    # d_2 still breaks d_1 . d_2 = 0
    doc = json.loads(emit_complex(torus4_complex()))
    entry = next(e for e in doc["boundaries"][1][0] if e)
    entry[0][0] = -entry[0][0]
    with pytest.raises(NotAComplex) as e:
        parse_complex(json.dumps(doc))
    assert e.value.degree == 2


def test_parse_complex_accumulates_duplicate_terms():
    g_obj = {"type": "cyclic", "order": 2}
    doc = {
        "group": g_obj,
        "ranks": [1, 1],
        "boundaries": [[[[[1, [1]], [1, [3]], [-1, [0]], [-1, [2]]]]]],
    }
    c = parse_complex(json.dumps(doc))
    from fourfold.groupring import ring_generator, ring_one

    g = cyclic_group(2)
    assert c.d(1).entries[0][0] == 2 * ring_generator(g, 0) - 2 * ring_one(g)
    # terms that cancel leave the zero element, with no stored zero
    doc["boundaries"] = [[[[[1, [0]], [-1, [0]]]]]]
    c = parse_complex(json.dumps(doc))
    assert c.d(1).entries[0][0].terms == {}


def test_parsing_t4_reduces_each_term_and_term_product_once(monkeypatch):
    """One reduce per parsed term and one per term product of the d.d = 0
    check; a count, so it cannot flake like a timing."""
    from fourfold.groupring import GroupDescriptor

    text = emit_complex(torus4_complex())
    reduce = GroupDescriptor.reduce
    calls = []

    def counting(self, el):
        calls.append(el)
        return reduce(self, el)

    monkeypatch.setattr(GroupDescriptor, "reduce", counting)
    parse_complex(text)
    assert len(calls) <= 256, len(calls)


def test_parse_int_matrix():
    m = parse_int_matrix("[[1,2],[3,4]]")
    assert m.rows == 2 and m.data[1][1] == 4
    for bad in ("{}", "[]", "[[1],[2,3]]", "[[1,\"x\"]]", "nope", "[[true,2],[3,false]]"):
        with pytest.raises(ParseError):
            parse_int_matrix(bad)


def test_parse_record_document():
    text = json.dumps(
        {
            "group": "cyclic:5*Z",
            "w": "trivial",
            "class_h4": [2],
            "aut_multipliers": [1, 4],
        }
    )
    group, signs, cls, mults = parse_record_document(text)
    assert group == laurent_extension(cyclic_group(5), 1)
    assert signs == (1, 1)
    assert cls == (2,)
    assert mults == (1, 4)
    # group as an object, signs as a list, multipliers omitted
    text = json.dumps(
        {"group": {"type": "cyclic", "order": 2}, "w": [-1], "class_h4": [1]}
    )
    group, signs, cls, mults = parse_record_document(text)
    assert group == cyclic_group(2)
    assert signs == (-1,)
    assert mults is None
    for bad in (
        "[]",
        json.dumps({"group": "cyclic:5"}),
        json.dumps({"group": "cyclic:5", "class_h4": "x"}),
        json.dumps({"group": "cyclic:5", "class_h4": [1], "w": [1, 1]}),
        json.dumps({"group": "cyclic:5", "class_h4": [1], "aut_multipliers": 3}),
        json.dumps({"group": "cyclic:5", "class_h4": [True]}),
        json.dumps({"group": "cyclic:5", "class_h4": [1], "aut_multipliers": [1, True]}),
        json.dumps({"group": "cyclic:2", "class_h4": [1], "w": [True]}),
        json.dumps({"group": {"type": "cyclic", "order": True}, "class_h4": [1]}),
    ):
        with pytest.raises(ParseError):
            parse_record_document(bad)


def test_invariants_to_json():
    assert invariants_to_json(AbelianInvariants(2, (4,))) == {"free": 2, "torsion": [4]}


def test_report_envelope_and_validation():
    doc = report_envelope("snf", "ok", {"diag": [1, 2]})
    assert validate_report(doc)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert not validate_report([])
    assert not validate_report({})
    bad = dict(doc)
    bad["status"] = "maybe"
    assert not validate_report(bad)
    bad = dict(doc)
    bad["result"] = "text"
    assert not validate_report(bad)
    extra = dict(doc)
    extra["noise"] = 1
    assert not validate_report(extra)
