"""JSON interchange for chain complexes and classification records.

Documents are canonical on emission: object keys sorted, ring elements
written as term lists sorted by exponent tuple with zero coefficients
dropped, so equal inputs emit byte-identical text.
"""

import json

from fourfold.complexes import LambdaComplex, validate
from fourfold.errors import ParseError
from fourfold.groupring import (
    RingElement,
    RingMatrix,
    char_from_signs,
    cyclic_group,
    laurent_extension,
    product_group,
    trivial_char,
    trivial_group,
)
from fourfold.intmat import IntMatrix

__all__ = [
    "SCHEMA_VERSION",
    "parse_group_spec",
    "emit_group_spec",
    "parse_char_spec",
    "parse_complex",
    "emit_complex",
    "parse_int_matrix",
    "parse_record_document",
    "invariants_to_json",
    "report_envelope",
    "validate_report",
]

SCHEMA_VERSION = "1"


def _is_int(x):
    """A JSON integer; json.loads gives booleans, which are ints in Python."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_group_spec(spec):
    """Grammar: "trivial" | "cyclic:P" | "product:A,B,..." with an
    optional "*Z^k" (or "*Z") suffix for free directions."""
    if not isinstance(spec, str) or not spec:
        raise ParseError("empty group spec")
    text = spec.strip()
    rank = 0
    if "*" in text:
        base, star = text.split("*", 1)
        star = star.strip()
        if star == "Z":
            rank = 1
        elif star.startswith("Z^"):
            try:
                rank = int(star[2:])
            except ValueError:
                raise ParseError("bad free rank in group spec %r" % spec)
        else:
            raise ParseError("bad suffix %r in group spec" % star)
        if rank < 1:
            raise ParseError("free rank must be positive in %r" % spec)
        text = base.strip()
    if text == "trivial":
        g = trivial_group()
    elif text.startswith("cyclic:"):
        try:
            p = int(text[len("cyclic:") :])
        except ValueError:
            raise ParseError("bad cyclic order in %r" % spec)
        if p < 1:
            raise ParseError("cyclic order must be >= 1")
        g = cyclic_group(p)
    elif text.startswith("product:"):
        try:
            orders = tuple(int(x) for x in text[len("product:") :].split(","))
        except ValueError:
            raise ParseError("bad product orders in %r" % spec)
        if not orders or any(o < 1 for o in orders):
            raise ParseError("product orders must be >= 1")
        g = product_group(orders)
    else:
        raise ParseError("unknown group spec %r" % spec)
    if rank:
        g = laurent_extension(g, rank)
    return g


def emit_group_spec(group):
    if not group.orders:
        base = "trivial"
    elif len(group.orders) == 1:
        base = "cyclic:%d" % group.orders[0]
    else:
        base = "product:" + ",".join(str(o) for o in group.orders)
    if group.laurent_rank == 1:
        base += "*Z"
    elif group.laurent_rank > 1:
        base += "*Z^%d" % group.laurent_rank
    return base


def parse_char_spec(spec, group):
    """"trivial" or a comma list of 1/-1 (or +/-), one per generator."""
    if spec is None or spec == "trivial":
        return trivial_char(group)
    parts = [p.strip() for p in str(spec).split(",")]
    signs = []
    for p in parts:
        if p in ("1", "+", "+1"):
            signs.append(1)
        elif p in ("-1", "-"):
            signs.append(-1)
        else:
            raise ParseError("bad character entry %r" % p)
    if len(signs) != group.ngens:
        raise ParseError(
            "character has %d entries, group has %d generators" % (len(signs), group.ngens)
        )
    return char_from_signs(group, tuple(signs))


def _group_to_obj(group):
    if group.laurent_rank:
        return {
            "type": "laurent",
            "base": _group_to_obj(group.finite_part()),
            "rank": group.laurent_rank,
        }
    if not group.orders:
        return {"type": "trivial"}
    if len(group.orders) == 1:
        return {"type": "cyclic", "order": group.orders[0]}
    return {"type": "product", "orders": list(group.orders)}


def _group_from_obj(obj, path):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("%s: expected a group object with a type" % path)
    t = obj["type"]
    if t == "trivial":
        return trivial_group()
    if t == "cyclic":
        order = obj.get("order")
        if not _is_int(order) or order < 1:
            raise ParseError("%s.order: need a positive integer" % path)
        return cyclic_group(order)
    if t == "product":
        orders = obj.get("orders")
        if (
            not isinstance(orders, list)
            or not orders
            or any(not _is_int(o) or o < 1 for o in orders)
        ):
            raise ParseError("%s.orders: need a list of positive integers" % path)
        return product_group(tuple(orders))
    if t == "laurent":
        rank = obj.get("rank")
        if not _is_int(rank) or rank < 1:
            raise ParseError("%s.rank: need a positive integer" % path)
        base = _group_from_obj(obj.get("base"), path + ".base")
        return laurent_extension(base, rank)
    raise ParseError("%s.type: unknown group type %r" % (path, t))


def _element_to_terms(e):
    out = []
    for el, coeff in e.sorted_terms():
        if coeff:
            out.append([coeff, list(el)])
    return out


def _element_from_terms(group, terms, path, r, c):
    """The ring element of entry [r][c] of the boundary at path; the path
    of an entry or term is formatted only for an error."""
    if not isinstance(terms, list):
        raise ParseError("%s[%d][%d]: entry must be a list of [coeff, exponents] terms" % (path, r, c))
    ngens = group.ngens
    acc = {}
    for i, term in enumerate(terms):
        if (
            not isinstance(term, list)
            or len(term) != 2
            or not _is_int(term[0])
            or not isinstance(term[1], list)
        ):
            raise ParseError("%s[%d][%d][%d]: term must be [coefficient, exponent list]" % (path, r, c, i))
        coeff, exps = term
        if len(exps) != ngens:
            raise ParseError(
                "%s[%d][%d][%d]: %d exponents for a group with %d generators"
                % (path, r, c, i, len(exps), ngens)
            )
        if any(not _is_int(x) for x in exps):
            raise ParseError("%s[%d][%d][%d]: exponents must be integers" % (path, r, c, i))
        el = group.reduce(tuple(exps))
        acc[el] = acc.get(el, 0) + coeff
    return RingElement._from_reduced(group, acc)


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc)


def parse_complex(text):
    """Parse and validate a chain complex document."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    group = _group_from_obj(doc.get("group"), "group")
    w_field = doc.get("w")
    if w_field is None:
        w = trivial_char(group)
    else:
        if not isinstance(w_field, list) or any(not _is_int(s) or s not in (1, -1) for s in w_field):
            raise ParseError("w: must be a list of 1/-1 entries")
        if len(w_field) != group.ngens:
            raise ParseError(
                "w: %d entries for a group with %d generators" % (len(w_field), group.ngens)
            )
        w = char_from_signs(group, tuple(w_field))
    ranks = doc.get("ranks")
    if not isinstance(ranks, list) or not ranks or any(
        not _is_int(r) or r < 0 for r in ranks
    ):
        raise ParseError("ranks: must be a nonempty list of nonnegative integers")
    bnds = doc.get("boundaries")
    if not isinstance(bnds, list) or len(bnds) != len(ranks) - 1:
        raise ParseError(
            "boundaries: need %d matrices for %d ranks" % (len(ranks) - 1, len(ranks))
        )
    boundaries = []
    for i, mat in enumerate(bnds):
        rows = ranks[i]
        cols = ranks[i + 1]
        path = "boundaries[%d]" % i
        if not isinstance(mat, list) or len(mat) != rows:
            raise ParseError("%s: need %d rows" % (path, rows))
        entries = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError("%s[%d]: need %d entries" % (path, r, cols))
            entries.append(
                [
                    _element_from_terms(group, row[c], path, r, c)
                    for c in range(cols)
                ]
            )
        boundaries.append(RingMatrix(group, rows, cols, entries))
    c = LambdaComplex(group, w, tuple(ranks), tuple(boundaries))
    validate(c)
    return c


def emit_complex(c):
    """Canonical text for a complex document; byte-stable."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "group": _group_to_obj(c.group),
        "w": list(c.w.signs),
        "ranks": list(c.ranks),
        "boundaries": [
            [
                [_element_to_terms(b.entries[r][col]) for col in range(b.cols)]
                for r in range(b.rows)
            ]
            for b in c.boundaries
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_int_matrix(text):
    """A bare integer matrix document: a list of equal-length rows."""
    doc = _load_json(text)
    if isinstance(doc, dict):
        raise ParseError("expected a bare matrix, got an object")
    if not isinstance(doc, list) or not doc:
        raise ParseError("matrix must be a nonempty list of rows")
    width = None
    for i, row in enumerate(doc):
        if not isinstance(row, list) or any(not _is_int(x) for x in row):
            raise ParseError("row %d: must be a list of integers" % i)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError("row %d: ragged width" % i)
    return IntMatrix(len(doc), width, [list(r) for r in doc])


def parse_record_document(text):
    """A classification record: group spec or object, character signs,
    degree-4 class coordinates, optional automorphism multipliers."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("record root must be an object")
    graw = doc.get("group")
    if isinstance(graw, str):
        group = parse_group_spec(graw)
    else:
        group = _group_from_obj(graw, "group")
    w_field = doc.get("w", "trivial")
    if isinstance(w_field, list):
        if any(not _is_int(s) or s not in (1, -1) for s in w_field) or len(w_field) != group.ngens:
            raise ParseError("w: need %d entries of 1/-1" % group.ngens)
        signs = tuple(w_field)
    elif w_field == "trivial":
        signs = (1,) * group.ngens
    else:
        raise ParseError("w: expected \"trivial\" or a sign list")
    cls = doc.get("class_h4")
    if not isinstance(cls, list) or any(not _is_int(x) for x in cls):
        raise ParseError("class_h4: must be a list of integers")
    mults = doc.get("aut_multipliers")
    if mults is not None and (
        not isinstance(mults, list) or any(not _is_int(x) for x in mults)
    ):
        raise ParseError("aut_multipliers: must be a list of integers")
    return group, signs, tuple(cls), (tuple(mults) if mults is not None else None)


def invariants_to_json(inv):
    return {"free": inv.free_rank, "torsion": list(inv.torsion)}


def report_envelope(command, status, result):
    """The machine-readable report wrapper every subcommand emits."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "status": status,
        "result": result,
    }


def validate_report(doc):
    """Check a report against the published envelope schema."""
    if not isinstance(doc, dict):
        return False
    if set(doc) != {"schema_version", "command", "status", "result"}:
        return False
    if doc["schema_version"] != SCHEMA_VERSION:
        return False
    if not isinstance(doc["command"], str):
        return False
    if doc["status"] not in ("ok", "negative", "error"):
        return False
    return isinstance(doc["result"], (dict, list))
