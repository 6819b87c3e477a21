"""Fuzz the command line: every argv ends in exit 0, 1 or 2, never in an
escaped exception or a traceback, and the status agrees with the exit
code: under --json the envelope says ok, negative or error exactly when
the code is 0, 1 or 2, and in text mode an exit of 2 writes "error: " to
stderr and nothing to stdout.

Arguments range over all verbs with valid, truncated and non-numeric
values, missing files and malformed documents (truncated, one number
swapped for another token, not UTF-8, nested 2000 deep).  Group orders stay small: matrix
expansions allocate |pi|^2 cells per entry and no budget caps them yet.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfold.cli import main
from fourfold.complexes import presentation_complex
from fourfold.groupring import product_group
from fourfold.manifolds import LensSpace, cp2_complex, lens_complex, rp4_complex, s4_complex, torus4_complex
from fourfold.serialize import emit_complex, validate_report

FUZZ = settings(max_examples=500, deadline=None, derandomize=True, database=None)

COMPLEXES = {
    "rp4": emit_complex(rp4_complex()),
    "s4": emit_complex(s4_complex()),
    "cp2": emit_complex(cp2_complex()),
    "l52": emit_complex(lens_complex(LensSpace(5, 2))),
    "t4": emit_complex(torus4_complex()),
    "pres22": emit_complex(presentation_complex(product_group((2, 2)))),
}
MATRICES = ["[[2, 4], [6, 8]]", "[[0, 0, 0]]", "[]", "[[3]]", "[[1, -2], [0, 5], [7, 7]]"]
RECORDS = [
    json.dumps({"group": "cyclic:5*Z", "class_h4": [1]}),
    json.dumps({"group": "cyclic:5*Z", "class_h4": [4]}),
    json.dumps({"group": "cyclic:3", "class_h4": [2], "w": "trivial"}),
    json.dumps({"group": {"type": "cyclic", "order": 4}, "class_h4": [3], "w": [-1]}),
    json.dumps({"group": "trivial*Z^4", "class_h4": [1], "aut_multipliers": [2, 3]}),
    json.dumps({"group": "trivial*Z^4", "class_h4": [-6], "aut_multipliers": [2]}),
    json.dumps({"group": "cyclic:5*Z", "class_h4": [3], "aut_multipliers": [2, 3]}),
    json.dumps({"group": "trivial*Z^4", "class_h4": [-6], "aut_multipliers": [-1]}),
]
ANY_DOC = list(COMPLEXES.values()) + MATRICES + RECORDS
MALFORMED = ["", "{broken", "null", "[[1, 2], [3]]", "[[true]]", '"text"', "[[1.5]]", '{"schema_version": "1"}', "{}",
             "[" * 2000 + "]" * 2000, "[[1" + "0" * 5000 + "]]", '{"class_h4": [1' + "0" * 5000 + "]}"]

GROUPS = ["trivial", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "product:2,2", "product:2,3",
          "cyclic:3*Z", "cyclic:2*Z^2", "trivial*Z^4", "product:2,2*Z", "product:2,2,2,2", "cyclic:2*Z^60"]
BAD_GROUPS = ["", "ring:3", "cyclic:", "cyclic:0", "cyclic:-2", "cyclic:x", "product:", "product:2,,2",
              "cyclic:2*Z^x", "cyclic:2*Q"]
CHARS = ["trivial", "1", "-1", "-1,1", "1,-1", "-1,-1", "1,1,1,1,1", "2", "x", ""]
JUNK = ["x", "", "1.5", "-", "1e3", "0x10", "true", "--", "-h"]

SWAPS = ["-1", "0", "1", "2", "3", "7", "true", "null", '"x"', "1.5", "[]", "{}"]


@st.composite
def ints(draw, lo, hi):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(JUNK))
    return str(draw(st.integers(lo, hi)))


@st.composite
def document(draw, docs):
    """The bytes of an input file, or None for a file that does not exist.

    Half the draws are one of the valid documents the verb reads."""
    kind = draw(st.sampled_from(["valid"] * 6 + ["other", "truncated", "swapped", "malformed", "binary", "missing"]))
    if kind == "missing":
        return None
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED)).encode()
    if kind == "binary":
        return b"\xff\xfe[[1]]"
    text = draw(st.sampled_from(docs if kind == "valid" else ANY_DOC))
    if kind == "truncated":
        text = text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    elif kind == "swapped":
        numbers = list(re.finditer(r"-?\d+", text))
        if numbers:
            m = draw(st.sampled_from(numbers))
            text = text[: m.start()] + draw(st.sampled_from(SWAPS)) + text[m.end():]
    return text.encode()


@st.composite
def invariants_spec(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["6", ":", "a:b", "6:3,,3", "6:x", "1:2:3", "-0:", "6:0", "10:"]))
    free = draw(st.integers(-3, 12))
    torsion = draw(st.lists(st.integers(-3, 16), max_size=4))
    return "%d:%s" % (free, ",".join(map(str, torsion)))


def group_opts(draw, groups):
    bad = draw(st.integers(0, 4)) == 0
    argv = ["--group", draw(st.sampled_from(BAD_GROUPS if bad else groups))]
    if draw(st.booleans()):
        w = draw(st.sampled_from(CHARS))
        argv += draw(st.sampled_from([["--w", w], ["--w=" + w]]))
    return argv


@st.composite
def argv(draw):
    verb = draw(st.sampled_from([
        "snf", "homology", "group-homology", "lens-classify", "classify-lens", "lens-linking",
        "em-torsion", "recover-m", "ext-class", "classify-kreck", "classify-aspherical",
        "bordism", "hopf-check",
    ]))
    out = [verb]
    if verb in ("homology", "ext-class", "hopf-check"):
        out.append(draw(document(list(COMPLEXES.values()))))
    elif verb in ("snf", "em-torsion", "recover-m", "classify-aspherical"):
        out.append(draw(document(MATRICES + [COMPLEXES["t4"], COMPLEXES["l52"]])))
    if verb == "homology" and draw(st.booleans()):
        out += ["--coeff", draw(st.sampled_from(["zw", "lambda", "bogus"]))]
    elif verb == "group-homology":
        if draw(st.booleans()):
            # the bar oracle grows like (|pi| - 1)^(degree + 1)
            out += group_opts(draw, ["trivial", "cyclic:2", "cyclic:3", "product:2,2"])
            out += ["--degree", draw(ints(-1, 3)), "--oracle", "bar"]
        else:
            out += group_opts(draw, GROUPS) + ["--degree", draw(ints(-2, 6))]
    elif verb in ("lens-classify", "classify-lens", "lens-linking"):
        out += [draw(ints(-3, 31)), draw(ints(-5, 31)), draw(ints(-5, 31))]
    elif verb == "em-torsion":
        out.append(draw(ints(-20, 20)))
    elif verb == "recover-m":
        out.append(draw(invariants_spec()))
    elif verb == "classify-kreck":
        out += [draw(document(RECORDS)), draw(document(RECORDS))]
    elif verb == "classify-aspherical":
        out.append(draw(invariants_spec()))
        for flag, value in (("--inv2", invariants_spec()), ("--proj", ints(-1, 2)), ("--proj2", ints(-1, 2))):
            if draw(st.booleans()):
                out += [flag, draw(value)]
    elif verb == "bordism":
        out += group_opts(draw, GROUPS)
    if draw(st.booleans()):
        out.insert(0, "--json")
    if draw(st.integers(0, 7)) == 0:
        out = out[: draw(st.integers(0, len(out)))]
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def resolve(workdir, args):
    """The argv of a draw: each document is written to a file in workdir
    and replaced by its path; a missing one names a file that is not
    there."""
    resolved = []
    for i, a in enumerate(args):
        if isinstance(a, str):
            resolved.append(a)
            continue
        path = workdir / ("arg%d.json" % i)
        if a is None:
            path.unlink(missing_ok=True)
        else:
            path.write_bytes(a)
        resolved.append(str(path))
    return resolved


@FUZZ
@given(args=argv())
def test_cli_exits_0_1_or_2_without_traceback(workdir, args):
    resolved = resolve(workdir, args)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    assert code in (0, 1, 2), (resolved, code)
    # ext-class is a computation: a parsed complex always has d_2 . d_3 = 0
    assert not (code == 1 and "ext-class" in resolved), resolved
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err + out, resolved
    if out.startswith("usage:") or err.startswith("usage:"):
        # argparse answered: help on stdout, or a usage error on stderr
        if out:
            assert code == 0 and err == "", resolved
        else:
            assert code == 2 and ": error: " in err, resolved
    elif resolved[0] == "--json":
        doc = json.loads(out)
        assert validate_report(doc), resolved
        assert doc["status"] == ("ok", "negative", "error")[code], (resolved, code, doc)
        assert err == "", resolved
    elif code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (resolved, err)
    else:
        assert out and err == "", resolved
