"""Command line behavior: exit codes, text output, JSON envelopes."""

import argparse
import ast
import itertools
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import time

import pytest

import fourfold
from fourfold import cli, intmat
from fourfold.classify import default_aut_multipliers, lens_times_circle_record
from fourfold.cli import main
from fourfold.complexes import LambdaComplex, presentation_complex
from fourfold.groupring import RingMatrix, product_group
from fourfold.errors import BudgetExceeded, NotAComplex, ParseError, budget, charge, generator_budget
from fourfold.manifolds import (
    LensSpace,
    cp2_complex,
    lens_complex,
    lens_times_circle,
    rp4_complex,
    s4_complex,
    torus4_complex,
)
from fourfold.serialize import emit_complex, parse_complex, parse_group_spec, validate_report


@pytest.fixture
def rp4_file(tmp_path):
    p = tmp_path / "rp4.json"
    p.write_text(emit_complex(rp4_complex()))
    return str(p)


@pytest.fixture
def t4_file(tmp_path):
    p = tmp_path / "t4.json"
    p.write_text(emit_complex(torus4_complex()))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_snf_text_and_json(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text("[[2,4],[6,8]]")
    code, out, _ = run(capsys, ["snf", str(f)])
    assert code == 0
    assert "invariant factors: 2 4" in out
    code, out, _ = run(capsys, ["--json", "snf", str(f)])
    assert code == 0
    doc = json.loads(out)
    assert validate_report(doc)
    assert doc["command"] == "snf"
    assert doc["result"]["diag"] == [2, 4]
    # byte-for-byte deterministic
    code, out2, _ = run(capsys, ["--json", "snf", str(f)])
    assert out2 == out


def test_homology_command(rp4_file, capsys):
    code, out, _ = run(capsys, ["homology", rp4_file])
    assert code == 0
    assert "H_0 = Z/2" in out
    assert "H_4 = Z" in out
    code, out, _ = run(capsys, ["homology", rp4_file, "--coeff", "lambda"])
    assert code == 0
    assert "H_0 = Z" in out


def test_group_homology_command(capsys):
    code, out, _ = run(capsys, ["group-homology", "--group", "cyclic:5", "--degree", "3"])
    assert code == 0
    assert "Z/5" in out
    code, out, _ = run(
        capsys,
        ["group-homology", "--group", "cyclic:4", "--w", "-1", "--degree", "2", "--oracle", "bar"],
    )
    assert code == 0
    assert "agrees" in out
    code, out, _ = run(capsys, ["group-homology", "--group", "cyclic:5*Z", "--degree", "1"])
    assert code == 0
    assert "Z + Z/5" in out


def test_lens_classify_exit_codes(capsys):
    code, out, _ = run(capsys, ["lens-classify", "5", "1", "2"])
    assert code == 1
    assert "NOT_EQUIVALENT" in out
    code, out, _ = run(capsys, ["lens-classify", "7", "1", "2"])
    assert code == 0
    assert "EQUIVALENT" in out
    # the alternate spelling drives the same handler
    code2, out2, _ = run(capsys, ["classify-lens", "7", "1", "2"])
    assert code2 == 0
    code, out, _ = run(capsys, ["--json", "lens-classify", "5", "1", "2"])
    assert code == 1
    doc = json.loads(out)
    assert validate_report(doc)
    assert doc["status"] == "negative"
    assert doc["result"]["verdict"] == "NOT_EQUIVALENT"


def test_classify_lens_alias_reports_the_canonical_name(capsys):
    for argv, status in ((["classify-lens", "7", "1", "2"], "ok"), (["classify-lens", "1", "1", "1"], "error")):
        code, out, _ = run(capsys, ["--json"] + argv)
        doc = json.loads(out)
        assert validate_report(doc)
        assert (doc["command"], doc["status"]) == ("lens-classify", status)
        assert code == (0 if status == "ok" else 2)


def test_lens_linking_command(capsys):
    code, out, _ = run(capsys, ["lens-linking", "7", "1", "2"])
    assert code == 0
    assert "unit=3" in out
    code, out, _ = run(capsys, ["lens-linking", "5", "1", "2"])
    assert code == 1


def test_em_torsion_command(t4_file, capsys):
    code, out, _ = run(capsys, ["--json", "em-torsion", t4_file, "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["invariants"] == {"free": 6, "torsion": [3, 3, 3, 3]}


def test_recover_m_command(t4_file, capsys):
    code, out, _ = run(capsys, ["recover-m", t4_file, "6:3,3,3,3"])
    assert code == 0
    assert "candidates: [3]" in out
    code, out, _ = run(capsys, ["recover-m", t4_file, "0:7"])
    assert code == 1


def test_ext_class_command(rp4_file, capsys):
    code, out, _ = run(capsys, ["--json", "ext-class", rp4_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ext_invariants"] == {"free": 0, "torsion": [2]}
    assert doc["result"]["class_trivial"] is False
    assert doc["result"]["sequence_exact"] is True


def test_classify_kreck_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    d = tmp_path / "d.json"
    a.write_text(json.dumps({"group": "cyclic:5*Z", "class_h4": [1]}))
    b.write_text(json.dumps({"group": "cyclic:5*Z", "class_h4": [2]}))
    d.write_text(json.dumps({"group": "cyclic:5*Z", "class_h4": [4]}))
    code, out, _ = run(capsys, ["classify-kreck", str(a), str(b)])
    assert code == 1
    assert "NOT_EQUIVALENT" in out
    code, out, _ = run(capsys, ["classify-kreck", str(a), str(d)])
    assert code == 0
    assert "EQUIVALENT" in out
    # --json bytes captured before the orbit search was memoised; each query
    # is asked twice, so the second answer comes from the memo
    cases = [
        # H_4(Z/4 x Z) = Z/4: multiplier 2 would carry [1] to [2] but not back,
        # so it is refused as no automorphism
        ("cyclic:4*Z", 1, 2, 2, KRECK_REFUSED),
        ("cyclic:4*Z", 2, 1, 2, KRECK_REFUSED),
        # H_4(Z^4) = Z: the orbit of [1] under -1 and sign is {1, -1}
        ("trivial*Z^4", 1, 3, 1, KRECK_NOT_EQUIVALENT),
        ("trivial*Z^4", 1, -1, 0, KRECK_FREE_EQUIVALENT),
    ]
    for group, c1, c2, code, expect in cases:
        mults = [2] if group == "cyclic:4*Z" else [-1]
        a.write_text(json.dumps({"group": group, "class_h4": [c1], "aut_multipliers": mults}))
        b.write_text(json.dumps({"group": group, "class_h4": [c2], "aut_multipliers": mults}))
        for _ in range(2):
            assert run(capsys, ["--json", "classify-kreck", str(a), str(b)])[:2] == (code, expect)
    a.write_text(json.dumps({"group": "cyclic:4*Z", "class_h4": [1], "aut_multipliers": [2]}))
    assert run(capsys, ["classify-kreck", str(a), str(a)]) == (
        2, "", "error: multiplier 2 is not an automorphism of Z/4\n"
    )
    # the orbit of a large free class has two members, so its search is not
    # charged by the size of the class
    a.write_text(json.dumps({"group": "trivial*Z^4", "class_h4": [100000]}))
    assert run(capsys, ["--json", "classify-kreck", str(a), str(a)])[:2] == (0, KRECK_SAME)


KRECK_REFUSED = (
    '{"command": "classify-kreck", "result": {"message": "multiplier 2 is not an automorphism of Z/4"}, '
    '"schema_version": "1", "status": "error"}\n'
)
KRECK_SAME = (
    '{"command": "classify-kreck", "result": {"certificate": {"multiplier": 1, "sign": 1}, '
    '"verdict": "EQUIVALENT"}, "schema_version": "1", "status": "ok"}\n'
)
KRECK_NOT_EQUIVALENT = (
    '{"command": "classify-kreck", "result": {"certificate": null, "verdict": "NOT_EQUIVALENT"}, '
    '"schema_version": "1", "status": "negative"}\n'
)
KRECK_FREE_EQUIVALENT = (
    '{"command": "classify-kreck", "result": {"certificate": {"multiplier": -1, "sign": 1}, '
    '"verdict": "EQUIVALENT"}, "schema_version": "1", "status": "ok"}\n'
)


def test_a_deep_kreck_certificate_is_reduced_to_a_printable_multiplier(tmp_path, capsys):
    # H_4(Z/49999 x Z) = Z/49999; the class 3^20000 lies deep in the orbit
    # of 1 under 3, where the product of the multipliers along the walk
    # once ran to about 10^9542 and the answer was refused as too long to
    # print.  It is reduced modulo 49999 with its sign kept, and still
    # carries the first class to the second.
    target = pow(3, 20000, 49999)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"group": "cyclic:49999*Z", "class_h4": [1], "aut_multipliers": [3]}))
    b.write_text(json.dumps({"group": "cyclic:49999*Z", "class_h4": [target], "aut_multipliers": [3]}))
    code, out, err = run(capsys, ["--json", "classify-kreck", str(a), str(b)])
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "classify-kreck", "result": {"certificate": {"multiplier": 19074, "sign": 1}, '
        '"verdict": "EQUIVALENT"}, "schema_version": "1", "status": "ok"}\n'
    )
    assert 19074 * 1 % 49999 == target


# Captured from classify-kreck before the default rule moved into
# classify: the multipliers a record without aut_multipliers gets, and the
# orbits of its classes.  A pair in one orbit is equivalent with the
# certificate (1, 1) when the classes are equal and (4, 1) otherwise.
DEFAULT_MULTIPLIER_CASES = [
    ("cyclic:5", (1, 4), [[()]]),
    ("cyclic:5*Z", (1, 4), [[(0,)], [(1,), (4,)], [(2,), (3,)]]),
    ("product:2,2", (1,), [[c] for c in itertools.product(range(2), repeat=2)]),
]


@pytest.mark.parametrize("group, mults, orbits", DEFAULT_MULTIPLIER_CASES)
def test_records_without_multipliers_keep_their_defaults(tmp_path, capsys, group, mults, orbits):
    assert default_aut_multipliers(parse_group_spec(group)) == mults
    files = {}
    for orbit in orbits:
        for cls in orbit:
            f = tmp_path / ("%s.json" % "_".join(map(str, cls)))
            f.write_text(json.dumps({"group": group, "class_h4": list(cls)}))
            files[cls] = str(f)
            assert cli._record_from_file(files[cls]).aut_multipliers == mults
    for orbit_a, orbit_b in itertools.product(orbits, repeat=2):
        for a, b in itertools.product(orbit_a, orbit_b):
            code, out, _ = run(capsys, ["--json", "classify-kreck", files[a], files[b]])
            result = json.loads(out)["result"]
            if orbit_a is orbit_b:
                cert = {"multiplier": 1 if a == b else 4, "sign": 1}
                assert (code, result) == (0, {"verdict": "EQUIVALENT", "certificate": cert}), (a, b)
            else:
                assert (code, result) == (1, {"verdict": "NOT_EQUIVALENT", "certificate": None}), (a, b)
    # the lens-family records take the same rule
    assert lens_times_circle_record(5, 2).aut_multipliers == (1, 4)


def test_classify_aspherical_command(t4_file, capsys):
    code, out, _ = run(capsys, ["classify-aspherical", t4_file, "6:3,3,3,3"])
    assert code == 0
    assert "candidates: [3]" in out
    code, out, _ = run(
        capsys, ["classify-aspherical", t4_file, "6:3,3,3,3", "--inv2", "6:2,2,2,2"]
    )
    assert code == 1
    code, out, _ = run(
        capsys,
        [
            "classify-aspherical",
            t4_file,
            "10:",
            "--inv2",
            "10:",
            "--proj",
            "1",
            "--proj2",
            "1",
        ],
    )
    assert code == 0


@pytest.mark.parametrize("flags", [["--proj", "5"], ["--proj2", "-1"], ["--proj", "1", "--proj2", "2"]])
def test_projectivity_flags_are_0_or_1(t4_file, capsys, flags):
    # any other integer was taken as bool(flag): --proj 5 --proj2 -1 gave
    # EQUIVALENT with projectivity [true, true]
    argv = ["--json", "classify-aspherical", t4_file, "6:", "--inv2", "6:"] + flags
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "error: argument --proj" in err and "invalid choice" in err
    code, out, _ = run(capsys, argv[:6] + ["--proj", "0", "--proj2", "1"])
    assert code in (0, 1) and validate_report(json.loads(out))


def test_bordism_command(capsys):
    code, out, _ = run(capsys, ["bordism", "--group", "cyclic:2", "--w", "-1"])
    assert code == 0
    assert "Z/2 x Z/2" in out
    code, out, _ = run(capsys, ["--json", "bordism", "--group", "cyclic:5*Z"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["stable"] == {"free": 1, "torsion": []}
    assert doc["result"]["h4"] == {"free": 0, "torsion": [5]}


def test_laurent_character_may_reverse_free_directions(tmp_path, capsys):
    # H_0 of trivial x Z with the free generator reversing orientation is
    # coker(-2) = Z/2, and over Z/2 x Z with w = (1, -1) the degree-4 piece
    # is H_4(Z/2)/2 + H_3(Z/2)[2] = Z/2
    code, out, err = run(capsys, ["group-homology", "--group", "trivial*Z", "--w=-1", "--degree", "0"])
    assert (code, out, err) == (0, "H_0(trivial x Z) = Z/2\n", "")
    code, out, err = run(capsys, ["bordism", "--group", "cyclic:2*Z", "--w=1,-1"])
    assert (code, out, err) == (0, "Z/2 x Z/2\n", "")
    record = tmp_path / "rec.json"
    record.write_text(json.dumps({"group": "cyclic:2*Z", "w": [1, -1], "class_h4": [1]}))
    code, out, err = run(capsys, ["classify-kreck", str(record), str(record)])
    assert (code, out, err) == (0, "EQUIVALENT  {'multiplier': 1, 'sign': 1}\n", "")
    # a sign -1 on the finite factor is allowed
    code, out, _ = run(capsys, ["group-homology", "--group", "cyclic:2*Z", "--w=-1,1", "--degree", "1"])
    assert code == 0
    assert out == "H_1(Z/2 x Z) = Z/2\n"


def test_hopf_check_command(rp4_file, capsys):
    code, out, _ = run(capsys, ["hopf-check", rp4_file])
    assert code == 0
    assert "passed: True" in out


def test_hopf_check_on_a_2_complex_exits_2(tmp_path, capsys):
    p = tmp_path / "klein.json"
    p.write_text(emit_complex(presentation_complex(product_group((2, 2)))))
    code, _, err = run(capsys, ["hopf-check", str(p)])
    assert code == 2
    assert "Traceback" not in err


def test_ext_class_on_a_laurent_group_exits_2(t4_file, capsys):
    code, out, err = run(capsys, ["ext-class", t4_file])
    assert code == 2
    assert out == "" and err == "error: the pi_2 extension class needs a finite group\n"


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["snf", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, ["snf", str(bad)])
    assert code == 2
    code, _, err = run(capsys, ["group-homology", "--group", "ring:3", "--degree", "1"])
    assert code == 2
    # a 2-complex has no degree-3 boundary to feed the twisting family
    from fourfold.complexes import presentation_complex
    from fourfold.groupring import cyclic_group

    pres = tmp_path / "pres.json"
    pres.write_text(emit_complex(presentation_complex(cyclic_group(3))))
    code, _, err = run(capsys, ["em-torsion", str(pres), "2"])
    assert code == 2
    # invariants specs: free rank >= 0, torsion orders >= 1
    t4 = tmp_path / "t4.json"
    t4.write_text(emit_complex(torus4_complex()))
    code, out, _ = run(capsys, ["--json", "classify-aspherical", str(t4), "--", "-5:2"])
    assert code == 2
    assert json.loads(out)["status"] == "error"
    code, out, err = run(capsys, ["recover-m", str(t4), "6:-3,-3,-3,-3"])
    assert code == 2
    assert out == "" and err.startswith("error: torsion orders")
    # a negative degree is refused for Laurent extensions as for finite groups
    for group in ("cyclic:2", "cyclic:2*Z"):
        code, out, err = run(capsys, ["group-homology", "--group", group, "--degree=-1"])
        assert code == 2
        assert out == "" and err.startswith("error: negative degree")


def test_boolean_inputs_exit_2(tmp_path, capsys, monkeypatch):
    f = tmp_path / "bools.json"
    f.write_text("[[true, 2], [3, false]]")
    code, out, err = run(capsys, ["snf", str(f)])
    assert code == 2
    assert out == "" and err.startswith("error: row 0") and "Traceback" not in err
    monkeypatch.setenv("FOURFOLD_BUDGET", "lots")
    code, out, err = run(capsys, ["group-homology", "--group", "cyclic:2", "--degree", "1", "--oracle", "bar"])
    assert code == 2
    assert err.startswith("error: FOURFOLD_BUDGET") and "Traceback" not in err
    # a negative budget would let the witness walk run past its charge:
    # 10007 has 794 units before the first witness of 5
    monkeypatch.setenv("FOURFOLD_BUDGET", "-1")
    code, out, err = run(capsys, ["lens-linking", "10007", "1", "5"])
    assert code == 2
    assert out == "" and err == "error: FOURFOLD_BUDGET must not be negative, got '-1'\n"


def test_sign_list_characters_are_written_with_equals(capsys):
    from fourfold.groupring import char_from_signs, product_group
    from fourfold.homology import group_homology

    g = product_group((2, 2))
    expect = group_homology(g, char_from_signs(g, (-1, 1)), 2)
    code, out, _ = run(
        capsys, ["--json", "group-homology", "--group", "product:2,2", "--w=-1,1", "--degree", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["invariants"] == {"free": expect.free_rank, "torsion": list(expect.torsion)}
    # with a space, argparse reads "-1,1" as an option: a usage error, exit 2
    for bad in (
        ["group-homology", "--group", "product:2,2", "--w", "-1,1", "--degree", "2"],
        ["bordism", "--group", "product:2,2", "--w", "-1,1"],
    ):
        code, out, err = run(capsys, bad)
        assert code == 2
        assert "--w" in err and "Traceback" not in err
        # the help of both verbs shows the form that works
        code, out, _ = run(capsys, [bad[0], "--help"])
        assert code == 0 and "--w=-1,1" in out


def test_json_error_envelope(tmp_path, capsys):
    code, out, _ = run(capsys, ["--json", "snf", str(tmp_path / "missing.json")])
    assert code == 2
    doc = json.loads(out)
    assert validate_report(doc)
    assert doc["status"] == "error"
    assert "message" in doc["result"]


def _nested_matrix(depth):
    return "[" * depth + "]" * depth


def _laurent_chain(depth):
    """A complex document whose group is depth Laurent extensions, each
    the base of the next."""
    group = '{"type": "cyclic", "order": 2}'
    for _ in range(depth):
        group = '{"type": "laurent", "rank": 1, "base": %s}' % group
    return '{"group": %s, "ranks": [1], "boundaries": []}' % group


@pytest.mark.parametrize("offset", (-10, 10))
@pytest.mark.parametrize("verb, make", [("snf", _nested_matrix), ("homology", _laurent_chain)])
def test_deeply_nested_documents_exit_0_or_2(tmp_path, capsys, verb, make, offset):
    f = tmp_path / "deep.json"
    f.write_text(make(sys.getrecursionlimit() + offset))
    for argv in ([verb, str(f)], ["--json", verb, str(f)]):
        code, out, err = run(capsys, argv)
        assert code in (0, 2)
        assert "Traceback" not in out + err
        if argv[0] == "--json":
            assert validate_report(json.loads(out))
        elif code == 2:
            assert out == "" and err.startswith("error: ")


def test_bad_usage_exit_2(capsys):
    assert main([]) == 2
    assert main(["lens-classify", "5", "1"]) == 2
    assert main(["no-such-command"]) == 2


def test_lens_times_circle_document_survives_cli_homology(tmp_path, capsys):
    f = tmp_path / "l72s1.json"
    f.write_text(emit_complex(lens_times_circle(LensSpace(7, 2))))
    code, out, _ = run(capsys, ["homology", str(f)])
    assert code == 0
    assert "H_1 = Z + Z/7" in out
    assert "H_4 = Z" in out


# ---- the document memos: one parse and one d.d check per complex document
# text, one parse and one Smith form per matrix document text -------------

MEMO_DOCUMENTS = {
    "rp4": rp4_complex,
    "cp2": cp2_complex,
    "s4": s4_complex,
    "t4": torus4_complex,
    "l52": lambda: lens_complex(LensSpace(5, 2)),
    "l72s1": lambda: lens_times_circle(LensSpace(7, 2)),
}
# every verb that reads a complex document, each ending in the file name
MEMO_VERBS = [
    ["homology"],
    ["homology", "--coeff", "lambda"],
    ["ext-class"],
    ["hopf-check"],
    ["em-torsion", "3"],
    ["recover-m", "6:3,3,3,3"],
    ["classify-aspherical", "6:"],
    ["classify-aspherical", "10:", "--inv2", "6:3,3,3,3"],
]


def _random_matrix(seed):
    """At most 6 x 6, wider than tall, so the family has a free summand."""
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(rows + 1, 6)
    return json.dumps([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])


MATRIX_DOCUMENTS = {
    "m-2468": "[[2, 4], [6, 8]]",
    "m-zero": "[[0, 0], [0, 0]]",
    "m-20-digit": "[[12345678901234567890, 6, 0], [4, 10, 0]]",
}
MATRIX_DOCUMENTS.update(("m-random-%d" % seed, _random_matrix(seed)) for seed in range(3))
# every verb that reads a bare matrix document
MATRIX_VERBS = (
    [["snf"]]
    + [["em-torsion", str(m)] for m in range(-3, 4)]
    + [
        ["recover-m", "1:2,2"],
        ["classify-aspherical", "2:"],
        ["classify-aspherical", "2:", "--inv2", "2:", "--proj", "1", "--proj2", "0"],
    ]
)
MEMO_CASES = [
    pytest.param(cli._complex_document, lambda make=make: emit_complex(make()), MEMO_VERBS, id=name)
    for name, make in sorted(MEMO_DOCUMENTS.items())
] + [
    pytest.param(cli._matrix_document, lambda text=text: text, MATRIX_VERBS, id=name)
    for name, text in sorted(MATRIX_DOCUMENTS.items())
]


def _memo_argvs(path, verbs):
    argvs = []
    for verb in verbs:
        argv = [verb[0], path] + verb[1:]
        argvs += [argv, ["--json"] + argv]
    return argvs


@pytest.mark.parametrize("memo, document, verbs", MEMO_CASES)
def test_a_warm_document_answers_as_a_cold_one(tmp_path, capsys, memo, document, verbs):
    f = tmp_path / "doc.json"
    f.write_text(document())
    argvs = _memo_argvs(str(f), verbs)
    cold = []
    for argv in argvs:
        memo.cache_clear()
        cold.append(run(capsys, argv))
    # every verb in turn on the one kept document, then once more
    memo.cache_clear()
    for _ in range(2):
        before = memo.cache_info()
        assert [run(capsys, argv) for argv in argvs] == cold
        after = memo.cache_info()
        assert after.currsize == 1 and after.misses - before.misses == (1 if before.currsize == 0 else 0)
    assert any(code == 0 for code, _, _ in cold)


def _not_a_complex():
    doc = json.loads(emit_complex(rp4_complex()))
    doc["boundaries"][1] = [[[[1, [0]]]]]  # d_2 = 1, so d_1 d_2 = t - 1
    return json.dumps(doc)


COMPLEX_CASE = (cli._complex_document, "homology", "ext-class", emit_complex(rp4_complex()))
MATRIX_CASE = (cli._matrix_document, "snf", "snf", "[[2, 4], [6, 8]]")


@pytest.mark.parametrize(
    "case, text, error",
    [
        (COMPLEX_CASE, "{broken", ParseError),
        (COMPLEX_CASE, '{"group": "cyclic:2", "ranks": [1, 1], "boundaries": []}', ParseError),
        (COMPLEX_CASE, '{"group": ' + "[" * 100000 + "]" * 100000 + "}", ParseError),
        (COMPLEX_CASE, _not_a_complex(), NotAComplex),
        (MATRIX_CASE, "[[1, 2], [3]]", ParseError),
        (MATRIX_CASE, "[[1, true]]", ParseError),
        (MATRIX_CASE, "[]", ParseError),
        (MATRIX_CASE, '{"rows": [[1]]}', ParseError),
        (MATRIX_CASE, "[" * 100000 + "]" * 100000, ParseError),
    ],
    ids=["json", "shape", "depth", "d.d", "ragged", "bool", "empty", "object", "matrix-depth"],
)
def test_a_failing_document_is_not_kept(tmp_path, capsys, case, text, error):
    memo, good_verb, bad_verb, good = case
    memo.cache_clear()
    f = tmp_path / "bad.json"
    f.write_text(good)
    assert run(capsys, [good_verb, str(f)])[0] == 0
    f.write_text(text)
    messages = []
    for _ in range(2):
        with pytest.raises(error) as raised:
            memo(text) if memo is cli._complex_document else memo(text, generator_budget())
        assert memo.cache_info().currsize == 1
        code, out, err = run(capsys, [bad_verb, str(f)])
        assert (code, out, err) == (2, "", "error: %s\n" % raised.value)
        assert memo.cache_info().currsize == 1
        messages.append(err)
    assert messages[0] == messages[1]


def test_a_refused_matrix_document_is_not_kept(tmp_path, capsys, monkeypatch):
    cli._matrix_document.cache_clear()
    f = tmp_path / "m.json"
    f.write_text("[[1, 2, 3]]")
    monkeypatch.setenv("FOURFOLD_BUDGET", "9")
    for argv in (["snf", str(f)], ["em-torsion", str(f), "2"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: Smith form of a 1 x 3 matrix keeps 10 transform cells, budget 9\n"
        assert cli._matrix_document.cache_info().currsize == 0
    # the charge is rows^2 + cols^2, so a budget of exactly that answers
    monkeypatch.setenv("FOURFOLD_BUDGET", "10")
    assert run(capsys, ["snf", str(f)]) == (0, "matrix 1 x 3\nrank 1\ninvariant factors: 1\n", "")


def test_a_rewritten_file_gives_the_new_answer(tmp_path, capsys):
    f = tmp_path / "doc.json"
    f.write_text(emit_complex(rp4_complex()))
    assert run(capsys, ["homology", str(f)])[1].startswith("H_0 = Z/2\n")
    f.write_text(emit_complex(cp2_complex()))
    assert run(capsys, ["homology", str(f)])[1] == "H_0 = Z\nH_1 = 0\nH_2 = Z\nH_3 = 0\nH_4 = Z\n"
    f.write_text(emit_complex(rp4_complex()))
    assert run(capsys, ["ext-class", str(f)])[1].startswith("extension group: Z/2\n")
    # a bare matrix document, rewritten between verbs
    f.write_text("[[2, 4], [6, 8]]")
    assert run(capsys, ["snf", str(f)])[1].endswith("invariant factors: 2 4\n")
    f.write_text("[[1, 0, 0], [0, 3, 0]]")
    assert run(capsys, ["snf", str(f)])[1].endswith("invariant factors: 1 3\n")
    assert run(capsys, ["em-torsion", str(f), "6"])[1] == "E_6 = Z^2 + Z/3 + Z/6\n"
    f.write_text("[[2, 4], [6, 8]]")
    assert run(capsys, ["em-torsion", str(f), "6"])[1] == "E_6 = Z^2 + Z/2 + Z/2\n"


def test_parse_complex_returns_a_fresh_complex():
    text = emit_complex(rp4_complex())
    a, b = parse_complex(text), parse_complex(text)
    assert a is not b and a.boundaries[0] is not b.boundaries[0]
    assert emit_complex(a) == emit_complex(b) == text
    # the memo of cli is the one place a text maps to one kept complex
    assert cli._complex_document(text) is cli._complex_document(text)


def test_every_twist_of_a_kept_document_reads_one_reduction(t4_file, capsys, monkeypatch):
    cli._complex_document.cache_clear()
    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    for m in range(16):
        assert run(capsys, ["em-torsion", t4_file, str(m)])[0] == 0
    assert run(capsys, ["recover-m", t4_file, "6:2,2,2,2"])[1] == "candidates: [2]\n"
    # T^4's augmented d_3, once, and no other matrix
    c = cli._complex_document(pathlib.Path(t4_file).read_text())
    assert len(reduced) == 1 and reduced[0] is c.d(3).augment(c.w)


def test_every_verb_on_a_kept_matrix_document_reads_one_reduction(tmp_path, capsys, monkeypatch):
    cli._matrix_document.cache_clear()
    f = tmp_path / "d.json"
    f.write_text("[[2, 0, 0], [0, 6, 0]]")
    reduced = []
    snf = intmat.smith_normal_form

    def counting(a):
        reduced.append(a)
        return snf(a)

    monkeypatch.setattr(intmat, "smith_normal_form", counting)
    assert run(capsys, ["snf", str(f)])[1].endswith("invariant factors: 2 6\n")
    for m in range(16):
        assert run(capsys, ["em-torsion", str(f), str(m)])[0] == 0
    assert run(capsys, ["recover-m", str(f), "2:2,2,2"])[1] == "candidates: [2]\n"
    assert run(capsys, ["classify-aspherical", str(f), "2:2,2,2"])[1] == "candidates: [2]\n"
    # the kept matrix, once, where each of the 19 verbs reduced it afresh
    assert len(reduced) == 1 and reduced[0] is cli._matrix_document(f.read_text(), generator_budget())


def test_an_evicted_matrix_document_answers_as_a_cold_one(tmp_path, capsys):
    size = cli._matrix_document.cache_parameters()["maxsize"]
    paths = []
    for k in range(size + 1):
        f = tmp_path / ("m%d.json" % k)
        f.write_text("[[%d, 2], [0, %d]]" % (k + 1, 2 * k + 4))
        paths.append(str(f))
    cli._matrix_document.cache_clear()
    cold = run(capsys, ["--json", "em-torsion", paths[0], "4"])
    for path in paths[1:]:
        assert run(capsys, ["snf", path])[0] == 0
    info = cli._matrix_document.cache_info()
    assert info.currsize == size
    assert run(capsys, ["--json", "em-torsion", paths[0], "4"]) == cold
    assert cli._matrix_document.cache_info().misses == info.misses + 1


def run_capped(argv, limit_mib, timeout=30):
    """Run the CLI in a child process whose address space is capped."""
    limit = limit_mib << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fourfold.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "fourfold.cli"] + argv,
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap,
        timeout=timeout,
    )


def test_hopf_check_on_an_order_36_group_fits_in_one_gib(tmp_path):
    # the Z/6 x Z/6 presentation complex with zero-rank cells in degrees 3-4
    g = product_group((6, 6))
    c = presentation_complex(g)
    r = c.ranks
    pad = (RingMatrix.zeros(g, r[2], 0), RingMatrix.zeros(g, 0, 0))
    padded = LambdaComplex(g, c.w, r + (0, 0), c.boundaries + pad)
    assert padded.ranks == (1, 2, 3, 0, 0)
    f = tmp_path / "z6z6.json"
    f.write_text(emit_complex(padded))
    proc = run_capped(["--json", "hopf-check", str(f)], 1024)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["result"]["passed"] is True


def test_lens_classify_of_a_large_prime_is_refused_by_the_budget(monkeypatch):
    # the record of Z/100003 x Z reads H_4 off a resolution whose norm element
    # has 100003 terms, above the budget, so it is refused before the record
    # (and its 50001 squares) is built; once built, the orbit search would
    # need 100003 classes x 50002 moves
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    proc = run_capped(["lens-classify", "100003", "1", "4"], 1024, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the norm element of Z/100003 needs 100003 terms, budget 100000\n"


# Bar oracle requests that ran out of memory under a 1 GiB cap after 2-8 s
# while the charge counted generators: the Smith form of the top boundary
# keeps a square transform over them.
BAR_PROBES = [("cyclic:16", 3), ("cyclic:12", 3), ("cyclic:8", 4), ("product:2,2,4", 3), ("cyclic:50000", 0)]
# Homology of Z/2 x Z^r that took 0.8-1.2 s (r = 30, degree 4) and
# 4.2-6.7 s (bordism, r = 40) under the 1 GiB cap while nothing charged
# it; the cells of the resolution's top boundary refuse both at once
LAURENT_PROBES = [["group-homology", "--group", "cyclic:2*Z^30", "--degree", "4"], ["bordism", "--group", "cyclic:2*Z^40"]]
# a 60 kB bare matrix of one row and 20000 columns, whose Smith form would
# keep a 20000 x 20000 V: snf ran out of memory under the 1 GiB cap after
# 2.7 s while nothing charged a matrix document
WIDE_PROBES = [["snf", "{wide}"], ["em-torsion", "{wide}", "3"]]
CHARGED_PROBES = (
    [
        pytest.param(["group-homology", "--group", g, "--degree", str(d), "--oracle", "bar"], id="%s-%d" % (g, d))
        for g, d in BAR_PROBES
    ]
    + [pytest.param(argv, id="laurent-" + argv[0]) for argv in LAURENT_PROBES]
    + [pytest.param(argv, id="wide-" + argv[0]) for argv in WIDE_PROBES]
)


@pytest.mark.parametrize("argv", CHARGED_PROBES)
def test_a_bar_oracle_request_is_charged_by_its_smith_form(monkeypatch, tmp_path, argv):
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps([[1] * 20000]))
    start = time.monotonic()
    proc = run_capped([a.format(wide=wide) for a in argv], 1024, timeout=20)
    assert time.monotonic() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    if argv in WIDE_PROBES:
        what = "Smith form of a 1 x 20000 matrix keeps 400000001 transform cells"
    elif argv in LAURENT_PROBES:
        what = "resolution through degree 6 needs "
    else:
        what = "bar resolution needs "
    assert proc.stderr.startswith("error: " + what) and proc.stderr.endswith(", budget 100000\n")
    if argv[2:3] == ["cyclic:16"]:
        assert proc.stderr == (
            "error: bar resolution needs 50625 generators in degree 4 and 2562890625 cells for their Smith form,"
            " budget 100000\n"
        )
    if argv[0] == "bordism":
        assert proc.stderr == (
            "error: resolution through degree 6 needs 3495299289421 cells in its top boundary, budget 100000\n"
        )


def test_a_norm_element_is_charged_before_it_is_built(monkeypatch):
    # the resolution of Z/1000000007 would build a norm element of 10^9
    # terms and run out of memory under the cap after about 8 s
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    start = time.monotonic()
    proc = run_capped(["lens-classify", "1000000007", "1", "4"], 1024, timeout=20)
    assert time.monotonic() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the norm element of Z/1000000007 needs 1000000007 terms, budget 100000\n"
    # the same charge refuses group homology of Z/100003, and a larger
    # budget lets it answer
    proc = run_capped(["group-homology", "--group", "cyclic:100003", "--degree", "3"], 1024, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the norm element of Z/100003 needs 100003 terms, budget 100000\n"
    monkeypatch.setenv("FOURFOLD_BUDGET", "100003")
    proc = run_capped(["group-homology", "--group", "cyclic:100003", "--degree", "3"], 1024, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "H_3(Z/100003) = Z/100003\n", "")


def test_group_homology_of_a_high_degree_is_refused_by_the_budget(monkeypatch):
    # H_60 of Z/2 x Z/2 x Z/2 reads a 1891 x 1953 top boundary; the charge
    # refuses it before any boundary is built
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    start = time.monotonic()
    proc = run_capped(["group-homology", "--group", "product:2,2,2", "--degree", "60"], 1024, timeout=20)
    assert time.monotonic() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: resolution through degree 61 needs 3693123 cells in its top boundary, budget 100000\n"


def test_a_long_resolution_is_charged_by_its_length(monkeypatch):
    # a periodic resolution has one 1 x 1 boundary per degree, so only its
    # length bounds it: through degree 30000001 it answered after 20.8 s at
    # 708 MB while nothing charged the length
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    start = time.monotonic()
    proc = run_capped(["group-homology", "--group", "cyclic:2", "--degree", "30000000"], 1024, timeout=20)
    assert time.monotonic() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: resolution through degree 30000001 needs 30000001 boundaries, budget 100000\n"


@pytest.mark.parametrize("r, degree", [(10, 99998), (3, 200000)])
def test_free_abelian_homology_above_the_rank_answers_at_once(monkeypatch, r, degree):
    # the resolution of Z^r ends at degree r, so it builds r boundaries
    # whatever the degree: padded to the degree, Z^10 answered after 4.5 s
    # and Z^3 was refused for its 200001 boundaries
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    argv = ["group-homology", "--group", "trivial*Z^%d" % r, "--degree", str(degree)]
    start = time.monotonic()
    proc = run_capped(argv, 1024, timeout=20)
    assert time.monotonic() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "H_%d(trivial x Z^%d) = 0\n" % (degree, r), "")


@pytest.mark.parametrize("r", [100, 400])
def test_many_free_generators_are_refused_at_once(monkeypatch, r):
    # the cell charge reads the two ranks around d_(r/2+1), C(r, n) over
    # Z^r, where it summed every rank up to the bound before: at degree
    # 99998, Z^400 exited 2 after 1.91 s and Z^100 after 0.65 s
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    argv = ["group-homology", "--group", "trivial*Z^%d" % r, "--degree", "99998"]
    start = time.monotonic()
    proc = run_capped(argv, 1024, timeout=20)
    assert time.monotonic() - start < 0.5
    top = r // 2 + 1
    need = math.comb(r, top - 1) * math.comb(r, top)
    message = "error: resolution through degree 99999 needs %d cells in its boundary d_%d, budget 100000\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message % (need, top))


# Needs with more than 4300 digits, which str() refuses to write: the
# refusal printed a ValueError traceback and exited 1 while the charge
# wrote every need in full
HUGE_NEEDS = [
    (
        ["group-homology", "--group", "cyclic:3", "--degree", "20000", "--oracle", "bar"],
        "bar resolution needs at least 10^6020 generators in degree 20001 and at least 10^12041 cells for their"
        " Smith form, budget 100000",
    ),
    (
        ["group-homology", "--group", "trivial*Z^20000", "--degree", "99998"],
        "resolution through degree 99999 needs at least 10^12036 cells in its boundary d_10001, budget 100000",
    ),
]


@pytest.mark.parametrize("argv, message", HUGE_NEEDS, ids=["bar", "laurent"])
def test_a_need_too_long_to_print_is_refused_by_its_magnitude(monkeypatch, argv, message):
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    proc = run_capped(["--json"] + argv, 1024, timeout=20)
    assert (proc.returncode, proc.stderr) == (2, "")
    doc = json.loads(proc.stdout)
    assert validate_report(doc)
    assert (doc["status"], doc["result"]) == ("error", {"message": message})
    proc = run_capped(argv, 1024, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: %s\n" % message)
    # 2^20001 and 2^40002 lie between the written power of ten and the next
    assert 10**6020 <= 2**20001 < 10**6021 and 10**12041 <= 2**40002 < 10**12042


def test_a_need_that_fits_is_written_in_full():
    need = 10**4300 - 1  # the most digits str() writes by default
    with budget(100000), pytest.raises(BudgetExceeded) as info:
        charge(need, "work needs %s cells", need)
    assert str(info.value) == "work needs %s cells, budget 100000" % ("9" * 4300)
    with budget(100000), pytest.raises(BudgetExceeded, match=r"^work needs at least 10\^4299 cells, budget 100000$"):
        charge(need + 1, "work needs %s cells", need + 1)


def test_many_free_generators_over_a_cyclic_factor_are_refused_at_once(monkeypatch):
    # one term of each rank bounds the cells from below; over Z/2 x Z^100000
    # at degree 99998 the bound is too long to print, so it is charged
    # before the exact sums, which stepped big binomials for 4.0 s
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    argv = ["group-homology", "--group", "cyclic:2*Z^100000", "--degree", "99998"]
    start = time.monotonic()
    proc = run_capped(argv, 1024, timeout=20)
    assert time.monotonic() - start < 0.5
    message = "error: resolution through degree 99999 needs at least 10^30101 cells in its top boundary, budget 100000\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_an_answer_too_long_to_print_is_an_error(tmp_path, capsys):
    # the Smith form of diag(10^4000 + 1, 10^4000 + 3) holds their 8001-digit
    # product, which str() and json.dumps refuse
    f = tmp_path / "big.json"
    f.write_text("[[%d, 0], [0, %d]]" % (10**4000 + 1, 10**4000 + 3))
    message = "the answer holds an integer too long to print: at least 10^7999"
    assert run(capsys, ["snf", str(f)]) == (2, "", "error: %s\n" % message)
    code, out, err = run(capsys, ["--json", "snf", str(f)])
    doc = json.loads(out)
    assert (code, err) == (2, "") and validate_report(doc)
    assert (doc["status"], doc["result"]) == ("error", {"message": message})
    # an answer of 4300 digits prints in full
    f.write_text("[[%d]]" % (10**4299 + 7))
    assert run(capsys, ["snf", str(f)])[:2] == (0, "matrix 1 x 1\nrank 1\ninvariant factors: %d\n" % (10**4299 + 7))


def test_an_integer_literal_too_long_to_read_is_a_parse_error(tmp_path, capsys):
    # a matrix, a complex and a record document, each read by its verb
    long = "1" + "0" * 5000
    documents = {
        "snf": "[[%s]]" % long,
        "homology": '{"group": "cyclic:2", "ranks": [1, 1], "boundaries": [[[[%s, [0]]]]]}' % long,
        "classify-kreck": '{"group": "cyclic:5*Z", "class_h4": [%s]}' % long,
    }
    f = tmp_path / "doc.json"
    for verb, text in documents.items():
        f.write_text(text)
        argv = [verb] + [str(f)] * (2 if verb == "classify-kreck" else 1)
        assert run(capsys, argv) == (2, "", "error: document holds an integer of more than 4300 digits\n"), verb


# The limits the README states for the default budget, each on both sides:
# the command that answers, the next one up, which exits 2, and its need.
README_LIMITS = {
    "cyclic:2*Z^8": (
        "group-homology --group cyclic:2*Z^8 --degree 4",
        "group-homology --group cyclic:2*Z^9 --degree 4",
        (6, 178012, "cells in its top boundary"),
    ),
    "trivial*Z^10": (
        "group-homology --group trivial*Z^10 --degree 4",
        "group-homology --group trivial*Z^11 --degree 4",
        (6, 213444, "cells in its top boundary"),
    ),
    "product:2,2,2": (
        "group-homology --group product:2,2,2 --degree 23",
        "group-homology --group product:2,2,2 --degree 24",
        (25, 114075, "cells in its top boundary"),
    ),
    "length": (
        "group-homology --group cyclic:2 --degree 99999",
        "group-homology --group cyclic:2 --degree 100000",
        (100001, 100001, "boundaries"),
    ),
}
README = " ".join((pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())


@pytest.mark.parametrize("case", list(README_LIMITS))
def test_the_readme_limits_are_the_enforced_ones(monkeypatch, case):
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    inside, outside, (bound, need, unit) = README_LIMITS[case]
    proc = run_capped(inside.split(), 1024, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    proc = run_capped(outside.split(), 1024, timeout=20)
    message = "error: resolution through degree %d needs %d %s, budget 100000\n" % (bound, need, unit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
    # the README names the command that answers and the need of the next
    assert "`%s`" % inside in README
    assert "{:,}".format(need) in README


def test_lens_linking_without_a_witness_is_refused_by_the_budget(monkeypatch):
    # 11 is a non-residue mod the prime 1000000009 = 1 mod 4, so neither 11
    # nor -11 is a square and the search would walk all 10^9 units
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    start = time.monotonic()
    proc = run_capped(["lens-linking", "1000000009", "1", "11"], 1024, timeout=10)
    assert time.monotonic() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: witness search mod 1000000009 has no witness in its first 100000 units, budget 100000\n"
    )
    # a witness within the budget is still found at once
    proc = run_capped(["lens-linking", "1000000007", "1", "4"], 1024, timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == "ISOMETRIC  unit=2 sign=1\n"


def test_out_of_memory_is_an_error_not_a_verdict(tmp_path):
    # the expansions of the Z/40 x Z/40 presentation complex (order 1600)
    # do not fit in 128 MiB
    f = tmp_path / "z40z40.json"
    f.write_text(emit_complex(presentation_complex(product_group((40, 40)))))
    proc = run_capped(["--json", "homology", str(f), "--coeff", "lambda"], 128)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert validate_report(doc)
    assert doc["status"] == "error" and doc["result"]["message"] == "out of memory"
    proc = run_capped(["homology", str(f), "--coeff", "lambda"], 128)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr == "error: out of memory\n"


def _writes_output(node):
    """A call of print or of json.dumps."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "print") or (
        isinstance(f, ast.Attribute) and f.attr == "dumps" and getattr(f.value, "id", None) == "json"
    )


def test_only_main_prints_names_the_verb_or_picks_the_exit_code():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    verbs = set(subparsers.choices)
    assert {"snf", "lens-classify", "classify-lens", "hopf-check"} <= verbs
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    handlers = [f for f in functions if f.name.startswith("_cmd_")]
    assert len(handlers) == 12
    offenders = []
    for fn in functions:
        for node in ast.walk(fn):
            if fn.name != "main" and _writes_output(node):
                offenders.append("%s:%d prints" % (fn.name, node.lineno))
            if fn in handlers and isinstance(node, ast.Constant) and node.value in verbs:
                offenders.append("%s:%d names %s" % (fn.name, node.lineno, node.value))
            if fn in handlers and isinstance(node, ast.Return):
                if not (isinstance(node.value, ast.Tuple) and len(node.value.elts) == 3):
                    offenders.append("%s:%d returns no (status, result, lines)" % (fn.name, node.lineno))
    assert offenders == []
    # the guard sees the calls it forbids
    assert _writes_output(ast.parse("print(x)").body[0].value)
    assert _writes_output(ast.parse("json.dumps(x)").body[0].value)
