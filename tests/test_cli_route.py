"""The verb route of cli.main: a call [--json] VERB ARGS is parsed by VERB's
parser alone, and answers as the full parse of the argument tree does.

Every comparison runs main twice, once as it is and once with the full
parse of a separately built tree (build_parser().parse_args) in place of
its route, and asks for the same exit code, stdout and stderr.  The argvs
are the fuzz strategy's, every pinned query of perfbench, and the shapes
that must fall back to the full parse.  The pinned files are only read.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import given

from fourfold import cli
from test_cli_fuzz import COMPLEXES, FUZZ, RECORDS, argv, resolve

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.append(PERFBENCH)

import workloads  # noqa: E402

FULL = cli.build_parser()


def run(argv, full=False):
    out, err = io.StringIO(), io.StringIO()
    parse = FULL.parse_args if full else cli._parse
    with mock.patch.object(cli, "_parse", parse), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_same(argv):
    routed = run(argv)
    assert routed == run(argv, full=True), argv
    return routed


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("route")
    paths = {}
    for name, text in [("m", "[[2, 4], [6, 8]]"), ("rec", RECORDS[0])] + sorted(COMPLEXES.items()):
        paths[name] = str(d / (name + ".json"))
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(args=argv())
def test_the_route_answers_as_the_full_parse_on_fuzzed_argvs(workdir, args):
    assert_same(resolve(workdir, args))


QUERIES = workloads.pinned_queries()


@pytest.mark.parametrize("query", QUERIES, ids=[q["key"] for q in QUERIES])
def test_the_route_answers_as_the_full_parse_on_pinned_queries(query, tmp_path):
    (q,) = workloads.write_inputs([query], os.path.join(PERFBENCH, "data"), str(tmp_path))
    assert assert_same(q["argv"])[0] == 0


# one well-formed call of every verb; the alias reports its canonical name
WELL_FORMED = {
    "snf": ["snf", "{m}"],
    "homology": ["homology", "{rp4}", "--coeff", "lambda"],
    "group-homology": ["group-homology", "--group", "cyclic:2", "--w=-1", "--degree", "2"],
    "lens-classify": ["lens-classify", "5", "1", "4"],
    "classify-lens": ["classify-lens", "5", "1", "2"],
    "lens-linking": ["lens-linking", "5", "1", "4"],
    "em-torsion": ["em-torsion", "{t4}", "3"],
    "recover-m": ["recover-m", "{t4}", "6:3,3,3,3"],
    "ext-class": ["ext-class", "{l52}"],
    "classify-kreck": ["classify-kreck", "{rec}", "{rec}"],
    "classify-aspherical": ["classify-aspherical", "{t4}", "6:", "--inv2", "6:", "--proj", "1", "--proj2", "0"],
    "bordism": ["bordism", "--group", "cyclic:5*Z"],
    "hopf-check": ["hopf-check", "{s4}"],
}
# argvs that are not [--json] VERB ARGS with nothing left over, or that the
# top-level scan alone refuses: each goes to the full parse
FALLBACK = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "snf", "{m}"],
    ["--js", "snf", "{m}"],
    ["--json=1", "snf", "{m}"],
    ["--json"],
    ["--json", "--json", "snf", "{m}"],
    ["--json", "-h"],
    ["bogus", "{m}"],
    ["--json", "Snf", "{m}"],
    ["--", "snf", "{m}"],
    ["--json", "--", "snf", "{m}"],
    ["snf", "{m}", "--json"],
    ["snf", "{m}", "{m}"],
    ["--json", "lens-linking", "5", "1", "4", "7"],
    ["group-homology", "--group", "cyclic:2", "--degree", "1", "--bogus"],
    # ambiguous to the top level, where the verb parser would read --help
    ["snf", "--=x"],
    ["--json", "group-homology", "--group", "cyclic:2", "--degree", "1", "--=x"],
]
# usage errors and help inside one verb, which its parser writes either way
VERB_USAGE = [
    ["snf"],
    ["--json", "snf"],
    ["snf", "-h"],
    ["--json", "hopf-check", "--help"],
    ["snf", "--", "{m}"],
    ["group-homology", "--group", "cyclic:2"],
    ["group-homology", "--group", "cyclic:2", "--degree", "x"],
    ["homology", "{rp4}", "--coeff", "bogus"],
    ["lens-classify", "5", "1"],
    ["classify-aspherical", "{t4}", "6:", "--proj", "5"],
]


def _name(argv):
    return " ".join(argv) or "(empty)"


def _fill(argv, files):
    return [a.format(**files) for a in argv]


@pytest.mark.parametrize("argv", FALLBACK + VERB_USAGE, ids=_name)
def test_the_route_answers_as_the_full_parse_on_other_shapes(files, argv):
    code, out, err = assert_same(_fill(argv, files))
    assert code in (0, 2) and "Traceback" not in err


class FullParse(Exception):
    pass


@pytest.fixture
def no_full_parse(monkeypatch):
    def refuse(*args, **kwargs):
        raise FullParse(args)

    monkeypatch.setattr(cli._parser()[0], "parse_args", refuse)


def test_every_verb_answers_without_the_full_parse(files, no_full_parse):
    assert set(WELL_FORMED) == set(cli._parser()[1])
    for verb, argv in WELL_FORMED.items():
        argv = _fill(argv, files)
        code, out, err = run(argv)
        assert code in (0, 1) and out and err == "", argv
        code, out, err = run(["--json"] + argv)
        assert code in (0, 1) and err == "", argv
        assert out.startswith('{"command": "%s"' % ("lens-classify" if verb == "classify-lens" else verb))


@pytest.mark.parametrize("argv", FALLBACK, ids=_name)
def test_other_shapes_reach_the_full_parse(files, no_full_parse, argv):
    with pytest.raises(FullParse):
        cli.main(_fill(argv, files))
