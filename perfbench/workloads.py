"""The three workloads: seeded query lists, how to run a query, how to check it.

Queries are plain data (integers, group orders, argv lists naming JSON
documents), so no fourfold object exists before the timed loop starts.
`run_query` executes one query against an imported fourfold package;
`query_errors` checks its output against an oracle that does not share
fourfold's code path (see oracles.py) or against an envelope pinned from
the commit that added this benchmark (data/pinned.json).
"""

import contextlib
import io
import json
import os
import random

import oracles

WORKLOADS = ("homology", "lens-sweep", "extensions")

HOMOLOGY_CYCLIC = (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 24, 32)
HOMOLOGY_PRODUCTS = ((2, 2), (2, 4), (3, 3), (2, 6), (4, 4))
HOMOLOGY_DEGREES = range(6)
LENS_ORDERS = range(2, 31)
EXT_LENS_ORDERS = (5, 7, 9)
EXT_CIRCLE_ORDERS = range(2, 10)
EXT_MODEL_DOCS = ("rp4", "s4", "cp2")
EXT_TORUS_TWISTS = range(16)
EXT_BORDISM_ORDERS = range(2, 10)
EXT_RANDOM_MATRICES = 60
EXT_MATRIX_SIDE = 6
EXT_ENTRY = 9
# The shapes are the same for every seed, and only the entries are seeded,
# so that the seed changes the latency percentiles as little as it can.
_shape_rng = random.Random("extensions/shapes")
EXT_MATRIX_SHAPES = [
    (_shape_rng.randint(1, EXT_MATRIX_SIDE), _shape_rng.randint(1, EXT_MATRIX_SIDE)) for _ in range(EXT_RANDOM_MATRICES)
]


def _sign_patterns(orders):
    """Admissible nontrivial characters: -1 only on even factors."""
    choices = [(1, -1) if n % 2 == 0 else (1,) for n in orders]
    out = [()]
    for c in choices:
        out = [p + (s,) for p in out for s in c]
    return [p for p in out if -1 in p]


def _homology_queries(rng):
    queries = []
    for orders in [(n,) for n in HOMOLOGY_CYCLIC] + list(HOMOLOGY_PRODUCTS):
        chars = [(1,) * len(orders)]
        twisted = _sign_patterns(orders)
        if twisted:
            chars.append(rng.choice(twisted))
        for signs in chars:
            for d in HOMOLOGY_DEGREES:
                queries.append({"kind": "group_homology", "orders": list(orders), "signs": list(signs), "degree": d})
    return queries


def _lens_queries(rng):
    return [
        {"kind": "lens_family", "p": p, "q1": q1, "q2": q2}
        for p in LENS_ORDERS
        for q1 in oracles.units(p)
        for q2 in oracles.units(p)
    ]


def torus_invariants(m):
    """FREE:TORSION of the twisted quotient of T^4 for twisting number m.

    The augmented third boundary of T^4 is the zero 6 x 4 matrix, so the
    quotient is Z^6 + (Z/|m|)^4, or Z^10 when m = 0.
    """
    if m == 0:
        return "10:"
    return "6:" + ("" if m == 1 else ",".join([str(m)] * 4))


def _random_matrix(rng, rows, cols):
    return [[0 if rng.random() < 0.4 else rng.randint(-EXT_ENTRY, EXT_ENTRY) for _ in range(cols)] for _ in range(rows)]


def _cli(key, argv, docs=(), **extra):
    return dict({"kind": "cli", "key": key, "argv": argv, "docs": list(docs)}, **extra)


def _lens_doc_queries(doc):
    return [
        _cli("ext-class " + doc, ["ext-class", "{0}"], [doc]),
        _cli("homology-lambda " + doc, ["homology", "{0}", "--coeff", "lambda"], [doc]),
    ]


def _model_doc_queries(doc):
    return [
        _cli("hopf-check " + doc, ["hopf-check", "{0}"], [doc]),
        _cli("ext-class " + doc, ["ext-class", "{0}"], [doc]),
    ]


def _torus_queries(m):
    inv = torus_invariants(m)
    return [
        _cli("em-torsion t4 %d" % m, ["em-torsion", "{0}", str(m)], ["t4"]),
        _cli("recover-m t4 " + inv, ["recover-m", "{0}", inv], ["t4"]),
    ]


def _bordism_query(n):
    return _cli("bordism cyclic:%d*Z" % n, ["bordism", "--group", "cyclic:%d*Z" % n])


def pinned_queries():
    """Every extensions query whose answer is pinned, whatever the seed."""
    queries = []
    for p in EXT_LENS_ORDERS:
        for q in oracles.units(p):
            queries += _lens_doc_queries("L%d_%d" % (p, q))
    for doc in EXT_MODEL_DOCS:
        queries += _model_doc_queries(doc)
    for m in EXT_TORUS_TWISTS:
        queries += _torus_queries(m)
    return queries + [_bordism_query(n) for n in EXT_BORDISM_ORDERS]


def _extension_queries(rng):
    queries = []
    for p in EXT_LENS_ORDERS:
        queries += _lens_doc_queries("L%d_%d" % (p, rng.choice(oracles.units(p))))
    for p in EXT_CIRCLE_ORDERS:
        doc = "LxS1_%d_%d" % (p, rng.choice(oracles.units(p)))
        queries.append(_cli("homology " + doc, ["homology", "{0}"], [doc], p=p))
    for doc in EXT_MODEL_DOCS:
        queries += _model_doc_queries(doc)
    for m in EXT_TORUS_TWISTS:
        queries += _torus_queries(m)
    queries += [_bordism_query(n) for n in EXT_BORDISM_ORDERS]
    for i, (r, c) in enumerate(EXT_MATRIX_SHAPES):
        rows = _random_matrix(rng, r, c)
        name = "matrix%02d" % i
        m = rng.randint(0, EXT_ENTRY)
        queries.append(_cli("snf " + name, ["snf", "{0}"], [name], matrix=rows))
        queries.append(_cli("em-torsion %s %d" % (name, m), ["em-torsion", "{0}", str(m)], [name], matrix=rows, m=m))
    return queries


def make_queries(workload, seed):
    """The workload's query list for a seed, in the seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    make = {"homology": _homology_queries, "lens-sweep": _lens_queries, "extensions": _extension_queries}
    queries = make[workload](rng)
    rng.shuffle(queries)
    return queries


def write_inputs(queries, data_dir, work_dir):
    """Write the generated matrix documents and resolve every argv."""
    os.makedirs(work_dir, exist_ok=True)
    resolved = []
    for q in queries:
        if q["kind"] != "cli":
            resolved.append(q)
            continue
        paths = []
        for doc in q["docs"]:
            if "matrix" in q:
                path = os.path.join(work_dir, doc + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(q["matrix"], fh)
            else:
                path = os.path.join(data_dir, "docs", doc + ".json")
            paths.append(path)
        resolved.append(dict(q, argv=["--json"] + [a.format(*paths) for a in q["argv"]]))
    return resolved


def run_query(ff, q):
    """Run one query against the fourfold package `ff`; return plain data."""
    kind = q["kind"]
    if kind == "group_homology":
        orders = q["orders"]
        group = ff.cyclic_group(orders[0]) if len(orders) == 1 else ff.product_group(orders)
        inv = ff.group_homology(group, ff.char_from_signs(group, q["signs"]), q["degree"])
        return [inv.free_rank, list(inv.torsion)]
    if kind == "lens_family":
        rep = ff.classify_lens_family(q["p"], q["q1"], q["q2"])
        return {"equivalent": rep.equivalent, "verdicts": rep.verdicts, "certificates": rep.certificates}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ff.cli.main(q["argv"])
    return {"code": code, "stdout": buf.getvalue()}


def _invariants(doc):
    return oracles.canonical(doc["free"], doc["torsion"])


def _cli_errors(q, out, pinned):
    if out["code"] != 0:
        return ["exit code %r" % out["code"]]
    if q["key"] in pinned:
        errors = [] if out["stdout"] == pinned[q["key"]] else ["output differs from the pinned envelope"]
        result = json.loads(out["stdout"])["result"]
        if "sequence_exact" in result and result["sequence_exact"] is not True:
            errors.append("sequence not exact")
        if "passed" in result and result["passed"] is not True:
            errors.append("hopf check did not pass")
        return errors
    result = json.loads(out["stdout"])["result"]
    verb = q["key"].split()[0]
    if verb == "snf":
        expect = oracles.invariant_factors(q["matrix"])
        return [] if result["diag"] == expect else ["diag %r, sympy %r" % (result["diag"], expect)]
    if verb == "em-torsion":
        expect = oracles.em_torsion(q["matrix"], q["m"])
        got = _invariants(result["invariants"])
        return [] if got == expect else ["invariants %r, sympy %r" % (got, expect)]
    if verb == "homology":
        expect = oracles.lens_times_circle_homology(q["p"])
        got = [_invariants(d) for d in result["degrees"]]
        return [] if got == expect else ["homology %r, Kunneth %r" % (got, expect)]
    return ["no oracle for %s" % q["key"]]


def query_errors(q, out, pinned):
    """Reasons the output of query `q` is wrong; empty when it is right."""
    kind = q["kind"]
    if kind == "group_homology":
        expect = oracles.group_homology(q["orders"], q["signs"], q["degree"])
        got = oracles.canonical(out[0], out[1])
        return [] if got == expect else ["H_%d = %r, closed form %r" % (q["degree"], got, expect)]
    if kind == "lens_family":
        return oracles.lens_report_errors(q["p"], q["q1"], q["q2"], out)
    return _cli_errors(q, out, pinned)
