"""The budget is one value per call, and a memo of charged work answers only
under the budget that admitted it.

errors.generator_budget() is the n of the innermost fourfold.budget(n)
scope, or FOURFOLD_BUDGET read once per process; cli.main reads the
variable once per call and runs its verb in that scope.  Each of the three
memos of charged work (homology._resolution, classify._lens_modulus and
cli._matrix_document) takes the budget as a key argument, so a call
warmed under one budget is refused under a lower one with the message of
a cold call, byte for byte, and a raised budget after a refusal still
gets its answer.  Group homology is kept on its resolution, so it is
served only under a budget that admits the resolution.
"""

import json

import pytest

import fourfold
from fourfold import classify, cli, errors, homology
from fourfold.cli import main
from fourfold.classify import classify_lens_family
from fourfold.errors import BudgetExceeded, ParseError, budget, budget_from_environment, generator_budget
from fourfold.groupring import product_group, trivial_char
from fourfold.homology import group_homology
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import cp2_complex
from fourfold.serialize import emit_complex

MEMOS = (classify._lens_modulus, homology._resolution, cli._matrix_document)


def cold(ask):
    """The refusal of ask with every memo of charged work emptied."""
    for memo in MEMOS:
        memo.cache_clear()
    with pytest.raises(BudgetExceeded) as info:
        ask()
    return str(info.value)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_kept_lens_decision_is_not_served_under_a_lower_budget():
    # (29, 3, 6) has the ratio of (29, 1, 2): one decision of one kept
    # modulus, kept at the default budget, which answered (29, 3, 6) at
    # budget 27
    for memo in MEMOS:
        memo.cache_clear()
    assert not classify_lens_family(29, 1, 2).equivalent
    with budget(27), pytest.raises(BudgetExceeded) as warm:
        classify_lens_family(29, 3, 6)
    with budget(27):
        message = cold(lambda: classify_lens_family(29, 3, 6))
    assert str(warm.value) == message == "the norm element of Z/29 needs 29 terms, budget 27"
    # the refusal is not kept: the default budget answers again
    assert not classify_lens_family(29, 3, 6).equivalent


def test_a_kept_resolution_is_not_served_under_a_lower_budget():
    # H_3 and H_2 read one resolution through degree 6, whose top boundary
    # is 21 x 28; the resolution kept for H_3 answered H_2 at budget 500
    g = product_group((2, 2, 2))
    w = trivial_char(g)
    for memo in MEMOS:
        memo.cache_clear()
    group_homology(g, w, 3)
    with budget(500), pytest.raises(BudgetExceeded) as warm:
        group_homology(g, w, 2)
    with budget(500):
        message = cold(lambda: group_homology(g, w, 2))
    assert str(warm.value) == message == "resolution through degree 6 needs 588 cells in its top boundary, budget 500"
    assert group_homology(g, w, 2) == AbelianInvariants(0, (2, 2, 2))


def test_a_kept_homology_is_not_served_under_a_lower_budget():
    # the answer itself is kept, on the resolution: a memo of H_2 keyed
    # apart from the resolution answered H_2 at budget 500
    g = product_group((2, 2, 2))
    w = trivial_char(g)
    for memo in MEMOS:
        memo.cache_clear()
    answer = group_homology(g, w, 2)
    assert homology.resolution_for(g)._homology == {(w, 2): answer}
    with budget(500), pytest.raises(BudgetExceeded) as warm:
        group_homology(g, w, 2)
    with budget(500):
        message = cold(lambda: group_homology(g, w, 2))
    assert str(warm.value) == message
    with budget(588):
        assert group_homology(g, w, 2) == answer


def test_a_kept_matrix_document_is_not_served_under_a_lower_budget(tmp_path, capsys, monkeypatch):
    # a 1 x 20 document is charged 1 + 400 cells
    f = tmp_path / "m.json"
    f.write_text(json.dumps([list(range(1, 21))]))
    monkeypatch.delenv("FOURFOLD_BUDGET", raising=False)
    cli._matrix_document.cache_clear()
    answer = run(capsys, ["snf", str(f)])
    assert answer == (0, "matrix 1 x 20\nrank 1\ninvariant factors: 1\n", "")
    monkeypatch.setenv("FOURFOLD_BUDGET", "100")
    warm = run(capsys, ["snf", str(f)])
    cli._matrix_document.cache_clear()
    assert warm == run(capsys, ["snf", str(f)])
    assert warm == (2, "", "error: Smith form of a 1 x 20 matrix keeps 401 transform cells, budget 100\n")
    monkeypatch.setenv("FOURFOLD_BUDGET", "401")
    assert run(capsys, ["snf", str(f)]) == answer


def test_a_budget_scope_nests_and_ends():
    outer = generator_budget()
    with budget(7) as n:
        assert n == generator_budget() == 7
        with budget(0):
            assert generator_budget() == 0
        assert generator_budget() == 7
        with pytest.raises(BudgetExceeded, match="^work needs 8 cells, budget 7$"):
            with budget(7):
                errors.charge(8, "work needs %s cells", 8)
        assert generator_budget() == 7
    assert generator_budget() == outer
    assert fourfold.budget is budget
    for bad in (-1, "100", 1.5, None, True):
        with pytest.raises(ParseError, match="a budget must be a non-negative integer"):
            with budget(bad):
                pass
    assert generator_budget() == outer


def test_the_environment_is_read_once_by_the_library(monkeypatch):
    # the library reads FOURFOLD_BUDGET on first use; a later write changes
    # nothing, where budget(n) does
    session = generator_budget()
    monkeypatch.setenv("FOURFOLD_BUDGET", "1")
    assert generator_budget() == session
    errors.charge(session, "work needs %s cells", session)
    # budget_from_environment reads the variable as it is now
    assert budget_from_environment() == 1
    monkeypatch.delenv("FOURFOLD_BUDGET")
    assert budget_from_environment() == 100000
    for raw, message in (("lots", "FOURFOLD_BUDGET must be an integer, got 'lots'"),
                         ("-1", "FOURFOLD_BUDGET must not be negative, got '-1'")):
        monkeypatch.setenv("FOURFOLD_BUDGET", raw)
        with pytest.raises(ParseError, match="^%s$" % message):
            budget_from_environment()


def test_every_verb_refuses_an_invalid_budget(tmp_path, capsys, monkeypatch):
    # homology charges nothing, and answered under any value before the
    # command line read the variable once per call
    f = tmp_path / "cp2.json"
    f.write_text(emit_complex(cp2_complex()))
    monkeypatch.setenv("FOURFOLD_BUDGET", "lots")
    assert run(capsys, ["homology", str(f)]) == (2, "", "error: FOURFOLD_BUDGET must be an integer, got 'lots'\n")
    code, out, err = run(capsys, ["--json", "lens-linking", "5", "1", "4"])
    assert (code, err) == (2, "")
    assert json.loads(out)["result"] == {"message": "FOURFOLD_BUDGET must be an integer, got 'lots'"}
    monkeypatch.delenv("FOURFOLD_BUDGET")
    assert run(capsys, ["homology", str(f)]) == (0, "H_0 = Z\nH_1 = 0\nH_2 = Z\nH_3 = 0\nH_4 = Z\n", "")
