"""Command line behavior: exit codes, text output, JSON envelopes."""

import argparse
import ast
import itertools
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import fourfold
from fourfold import cli
from fourfold.classify import default_aut_multipliers, lens_times_circle_record
from fourfold.cli import main
from fourfold.complexes import LambdaComplex, presentation_complex
from fourfold.groupring import RingMatrix, product_group
from fourfold.manifolds import LensSpace, lens_times_circle, rp4_complex, torus4_complex
from fourfold.serialize import emit_complex, parse_group_spec, validate_report


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
        # H_4(Z/4 x Z) = Z/4: multiplier 2 carries [1] to [2] but not back
        ("cyclic:4*Z", 1, 2, 0, KRECK_EQUIVALENT),
        ("cyclic:4*Z", 2, 1, 1, KRECK_NOT_EQUIVALENT),
        # H_4(Z^4) = Z: the orbit of [1] under 2 and sign meets -4 but never 3
        ("trivial*Z^4", 1, 3, 1, KRECK_NOT_EQUIVALENT),
        ("trivial*Z^4", 1, -4, 0, KRECK_FREE_EQUIVALENT),
    ]
    for group, c1, c2, code, expect in cases:
        a.write_text(json.dumps({"group": group, "class_h4": [c1], "aut_multipliers": [2]}))
        b.write_text(json.dumps({"group": group, "class_h4": [c2], "aut_multipliers": [2]}))
        for _ in range(2):
            assert run(capsys, ["--json", "classify-kreck", str(a), str(b)])[:2] == (code, expect)


KRECK_EQUIVALENT = (
    '{"command": "classify-kreck", "result": {"certificate": {"multiplier": 2, "sign": 1}, '
    '"verdict": "EQUIVALENT"}, "schema_version": "1", "status": "ok"}\n'
)
KRECK_NOT_EQUIVALENT = (
    '{"command": "classify-kreck", "result": {"certificate": null, "verdict": "NOT_EQUIVALENT"}, '
    '"schema_version": "1", "status": "negative"}\n'
)
KRECK_FREE_EQUIVALENT = (
    '{"command": "classify-kreck", "result": {"certificate": {"multiplier": 4, "sign": -1}, '
    '"verdict": "EQUIVALENT"}, "schema_version": "1", "status": "ok"}\n'
)


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


def test_bordism_command(capsys):
    code, out, _ = run(capsys, ["bordism", "--group", "cyclic:2", "--w", "-1"])
    assert code == 0
    assert "Z/2 x Z/2" in out
    code, out, _ = run(capsys, ["--json", "bordism", "--group", "cyclic:5*Z"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["stable"] == {"free": 1, "torsion": []}
    assert doc["result"]["h4"] == {"free": 0, "torsion": [5]}


def test_laurent_character_must_be_trivial_on_free_directions(tmp_path, capsys):
    # H_0 of trivial x Z with the free generator reversing orientation is
    # Z/2, which the Kunneth split over the finite part cannot give; both
    # verbs refuse it the same way
    for group, w in (("trivial*Z", "-1"), ("cyclic:2*Z", "1,-1")):
        for verb, extra in (("group-homology", ["--degree", "0"]), ("bordism", [])):
            code, out, err = run(capsys, [verb, "--group", group, "--w=" + w] + extra)
            assert code == 2, (verb, group)
            assert out == "" and err == "error: character must be trivial on free directions\n"
    record = tmp_path / "rec.json"
    record.write_text(json.dumps({"group": "cyclic:2*Z", "w": [1, -1], "class_h4": [0]}))
    code, _, err = run(capsys, ["classify-kreck", str(record), str(record)])
    assert code == 2 and "free directions" in err
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
    # the record of Z/100003 x Z carries 50001 squares as multipliers, so the
    # orbit search would take about 5e9 steps; it is refused before it starts
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    proc = run_capped(["lens-classify", "100003", "1", "4"], 1024, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: orbit search needs 100003 classes x 50002 moves, budget 100000\n"


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
