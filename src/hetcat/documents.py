"""JSON documents for categories, functors, transformations, bifunctors, and
adjunction bundles.

One format for everything: {"format": "hetcat/1", "kind": ..., "meta": ...,
"payload": ...}. Sets are arrays with declared element labels, references are
string ids, and serialization is deterministic (sorted keys, fixed indent) so
fixtures diff cleanly and repeated exports are byte-identical.

`dumps_document` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, but in pieces
joined at C level (any `indent` makes `json` fall back to a pure-Python
encoder). It pays per list and per key set, not per record: within one call
each string is quoted once, and each key set is sorted and its keys quoted
once per indent. Quoting is the type test; a value it rejects takes the
general path. No piece is larger than one record (an object whose values
are scalars, string lists or string objects), one leaf container (a list or
object of strings, or a list of records with one key set whose values are
all strings) or one composition row. An export streams from the live
tables: `bundle_view` holds the het's own dicts, and each category in place
of its composition list, which is written one morphism's row at a time from
the category's own table. The `*_to_payload` functions copy the same fields
into fresh plain JSON values.
"""

from __future__ import annotations

import json
from itertools import chain, cycle, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Any, TextIO

from .errors import StructuralError
from .fincat import FinCategory, FinFunctor, Morphism, NatTrans, _picker
from .het import HetBifunctor

FORMAT = "hetcat/1"
KINDS = ("category", "functor", "nattrans", "bifunctor", "adjunction-bundle")


class DocumentError(StructuralError):
    """The document cannot be parsed into a well-formed value."""


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------

def category_to_payload(cat: FinCategory) -> dict:
    return _category(cat, _copy)


def _category(cat: FinCategory, take) -> dict:
    """The category payload, `take` applied to each of cat's own tables; in a
    view, cat itself stands for its composition list (see `_pieces`)."""
    return {
        "name": cat.name,
        "objects": [{"id": o, "label": cat.obj_labels.get(o, o)} for o in cat.objects],
        "morphisms": [{"id": m.id, "dom": m.dom, "cod": m.cod,
                       "label": m.label or m.id} for m in cat.morphisms],
        "identity": take(cat.identity),
        "composition": take(cat),
    }


def category_from_payload(payload: Any) -> FinCategory:
    try:
        objects = tuple(o["id"] for o in payload["objects"])
        labels = {o["id"]: o.get("label", o["id"]) for o in payload["objects"]}
        morphisms = tuple(
            Morphism(m["id"], m["dom"], m["cod"], m.get("label", ""))
            for m in payload["morphisms"])
        identity = _string_map(payload["identity"], "identity")
        if not set(map(type, payload["composition"])) <= {list}:  # "fgh" unpacks too
            raise TypeError("composition entries must be [f, g, h] arrays")
        comp = {(f, g): h for f, g, h in payload["composition"]}
        # only string composition ids can resolve against these
        ids = chain(objects, identity,
                    chain.from_iterable(map(attrgetter("id", "dom", "cod"), morphisms)))
        if not set(map(type, ids)) <= {str}:
            raise TypeError("object, morphism and identity ids must be strings")
        if not set(map(type, chain(labels.values(), map(attrgetter("label"), morphisms)))) <= {str}:
            raise TypeError("object and morphism labels must be strings")
        name = _name(payload, "category")
        # inside the try: an unhashable composite fails the construction's lookups
        return FinCategory(name, objects, morphisms, identity, comp, labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed category payload: {exc}") from exc


def _functor_maps(fun: FinFunctor) -> dict:
    return {"name": fun.name, "object_map": dict(fun.obj_map),
            "morphism_map": dict(fun.mor_map)}


def _functor_of(spec: Any, default: str, source: FinCategory,
                target: FinCategory) -> FinFunctor:
    """The functor source -> target whose name and maps `spec` holds, as
    `_functor_maps` writes them."""
    return FinFunctor(_name(spec, default), source, target,
                      _string_map(spec["object_map"], "object_map"),
                      _string_map(spec["morphism_map"], "morphism_map"))


def functor_to_payload(fun: FinFunctor) -> dict:
    return {**_functor_maps(fun), "source": category_to_payload(fun.source),
            "target": category_to_payload(fun.target)}


def functor_from_payload(payload: Any) -> FinFunctor:
    try:
        return _functor_of(payload, "functor", category_from_payload(payload["source"]),
                           category_from_payload(payload["target"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed functor payload: {exc}") from exc


def nat_trans_to_payload(nt: NatTrans) -> dict:
    return {
        "name": nt.name,
        "source_category": category_to_payload(nt.source.source),
        "target_category": category_to_payload(nt.source.target),
        "source_functor": _functor_maps(nt.source),
        "target_functor": _functor_maps(nt.target),
        "components": dict(nt.components),
    }


def nat_trans_from_payload(payload: Any) -> NatTrans:
    try:
        src_cat = category_from_payload(payload["source_category"])
        tgt_cat = category_from_payload(payload["target_category"])
        fns = [_functor_of(payload[key], key, src_cat, tgt_cat)
               for key in ("source_functor", "target_functor")]
        return NatTrans(_name(payload, "nattrans"), fns[0], fns[1],
                        _string_map(payload["components"], "components"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:   # a non-object has no .get
        raise DocumentError(f"malformed nattrans payload: {exc}") from exc


def bifunctor_to_payload(het: HetBifunctor) -> dict:
    return bundle_to_payload(het)["bifunctor"]


def _name(payload: dict, default: str) -> str:
    # a name reaches `opposite` and `dual`, which append to it, and the reports
    name = payload.get("name", default)
    if not isinstance(name, str):
        raise TypeError(f"name must be a string, got {type(name).__name__}")
    return name


def _string_tuple(value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(f"cell elements must be a JSON array of strings, "
                        f"got {type(value).__name__}")
    return tuple(value)


def _string_map(value: Any, what: str) -> dict[str, str]:
    # a JSON array of pairs would pass dict(...), but the schema has an object
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise TypeError(f"{what} must be a JSON object of strings")
    return dict(value)


def bifunctor_from_payload(payload: Any) -> HetBifunctor:
    try:
        x_cat = category_from_payload(payload["x_category"])
        a_cat = category_from_payload(payload["a_category"])
        cells = {(c["x"], c["a"]): _string_tuple(c["elements"]) for c in payload["cells"]}
        act_left = {e["morphism"]: _string_map(e["mapping"], "an action mapping")
                    for e in payload["act_left"]}
        act_right = {e["morphism"]: _string_map(e["mapping"], "an action mapping")
                     for e in payload["act_right"]}
        name = _name(payload, "bifunctor")
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed bifunctor payload: {exc}") from exc
    return HetBifunctor(name, x_cat, a_cat, cells, act_left, act_right)


def bundle_to_payload(het: HetBifunctor,
                      expected_left: dict[str, str] | None = None,
                      expected_right: dict[str, str] | None = None) -> dict:
    return _bundle(het, expected_left, expected_right, _copy)


def bundle_view(het: HetBifunctor,
                expected_left: dict[str, str] | None = None,
                expected_right: dict[str, str] | None = None) -> dict:
    """`bundle_to_payload` as a read-only view of the het's own tables, to export."""
    return _bundle(het, expected_left, expected_right, lambda table: table)


def _bundle(het: HetBifunctor, expected_left, expected_right, take) -> dict:
    payload = {"bifunctor": {
        "name": het.name,
        "x_category": _category(het.x_cat, take),
        "a_category": _category(het.a_cat, take),
        "cells": [{"x": x, "a": a, "elements": take(het.cells[(x, a)])}
                  for x in het.x_cat.objects for a in het.a_cat.objects],
        "act_left": [{"morphism": h, "mapping": take(table)}
                     for h, table in sorted(het.act_left.items())],
        "act_right": [{"morphism": k, "mapping": take(table)}
                      for k, table in sorted(het.act_right.items())],
    }}
    expected = {key: take(value) for key, value in (("left_object_map", expected_left),
                                                    ("right_object_map", expected_right)) if value}
    if expected:
        payload["expected"] = expected
    return payload


def _copy(table: Any) -> Any:
    """A fresh plain JSON copy of a table: a category's is its sorted composition."""
    if isinstance(table, FinCategory):
        return sorted([f, g, h] for (f, g), h in table.comp.items())
    return dict(table) if isinstance(table, dict) else list(table)


def bundle_from_payload(payload: Any) -> tuple[HetBifunctor, dict]:
    """The het and its `expected` object, whose only keys may be
    left_object_map and right_object_map; `adjoint` compares each one present."""
    try:
        het = bifunctor_from_payload(payload["bifunctor"])
        expected = payload.get("expected", {})
        if not isinstance(expected, dict):
            raise TypeError(f"expected must be a JSON object, got {type(expected).__name__}")
        for key, value in expected.items():
            if key not in ("left_object_map", "right_object_map"):
                raise ValueError(f"unknown key expected.{key}")
            _string_map(value, f"expected.{key}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed adjunction bundle: {exc}") from exc
    return het, expected


# ---------------------------------------------------------------------------
# document envelope
# ---------------------------------------------------------------------------

def make_document(kind: str, payload: dict, name: str = "",
                  description: str = "") -> dict:
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    return {
        "format": FORMAT,
        "kind": kind,
        "meta": {"name": name, "description": description},
        "payload": payload,
    }


def dumps_document(doc: Any, f: TextIO | None = None) -> str | None:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte:
    returned, or written piece by piece to the text file `f` (and None
    returned). `doc` may hold the views that `bundle_view` makes. No piece
    is larger than one record, one leaf container or one morphism's
    composition row, where a list of records with one key set whose values
    are all strings counts as one leaf container (see `_pieces`)."""
    pieces = _pieces(doc, "", _Heads())
    if f is None:
        return "".join(pieces) + "\n"
    f.writelines(chain(pieces, ("\n",)))
    return None


_quote = json.encoder.encode_basestring_ascii   # the escaper of ensure_ascii=True


class _Quotes(dict):
    """The JSON text of each string, quoted on first use."""
    def __missing__(self, text):
        self[text] = quoted = _quote(text)     # TypeError on a key that is not a str
        return quoted


class _Heads(dict):
    """Per (indent, key set): a picker of the values in sorted-key order, the
    text before each value, its quoted key included, and the closing brace
    of an object that starts on a line at that indent; made on first use,
    so each key set is sorted and quoted once. `quote` gives a string's JSON
    text."""
    def __init__(self):
        super().__init__()
        self.quote = _Quotes().__getitem__

    def __missing__(self, key):
        indent, names = key
        keys = sorted(names)                   # TypeError on keys of mixed types
        inner = indent + "  "
        fronts = [sep + quoted + ": " for sep, quoted in zip(
            chain(("{\n" + inner,), repeat(",\n" + inner)), map(self.quote, keys))]
        self[key] = entry = (_picker(keys), fronts, "\n" + indent + "}")
        return entry


def _leaf(value: Any, indent: str, heads: _Heads) -> str:
    """The JSON text of a leaf: a scalar, or a list or object of strings.
    Quoting is the type test of their items: any other value raises
    TypeError."""
    if isinstance(value, str):
        return heads.quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pick, fronts, closing = heads[indent, frozenset(value)]
        return "".join(chain.from_iterable(zip(fronts, map(heads.quote, pick(value))))) + closing
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(map(heads.quote, value)) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _record(value: dict, entry: tuple, indent: str, heads: _Heads) -> str:
    """The JSON text of a record, an object of leaves, given its key set's
    `_Heads` entry; TypeError if a value is no leaf."""
    pick, fronts, closing = entry
    return "".join(chain.from_iterable(zip(fronts, map(
        _leaf, pick(value), repeat(indent + "  "), repeat(heads))))) + closing


def _pieces(value: Any, indent: str, heads: _Heads):
    """Yield the indent-2, sorted-key JSON text of `value` in pieces.

    A leaf (`_leaf`) or a record (`_record`) is one piece; so is a list of
    records with one key set whose values are all strings, and any other
    list of records with one key set is one piece per record. A list of
    string lists is one piece per run of rows with the same first string.
    Every other container yields its brackets, separators and keys, and
    recurses. `indent` is the indentation of the line `value` starts on."""
    if isinstance(value, dict) and value:
        pick, fronts, closing = entry = heads[indent, frozenset(value)]
        try:
            text = _record(value, entry, indent, heads)
        except TypeError:                      # a value that is no leaf
            for front, item in zip(fronts, pick(value)):
                yield front
                yield from _pieces(item, indent + "  ", heads)
            yield closing
        else:
            yield text
    elif isinstance(value, (list, tuple)) and value:
        try:
            text = _leaf(value, indent, heads)
        except TypeError:                      # an item that is no string
            yield from _items(value, indent, heads)
        else:
            yield text
    elif isinstance(value, FinCategory):
        yield from _composition_pieces(value, indent, heads)
    else:
        yield _leaf(value, indent, heads)      # a scalar or an empty container


def _items(value: list | tuple, indent: str, heads: _Heads):
    """The pieces of a non-empty list that holds something other than strings."""
    inner = indent + "  "
    try:                                       # an item that is no dict has no keys
        keys = dict.keys(value[0])
        records = bool(keys) and all(map(keys.__eq__, map(dict.keys, value)))
    except TypeError:
        records = False
    if records:
        pick, fronts, closing = entry = heads[inner, frozenset(keys)]
        try:
            text = "".join(chain.from_iterable(zip(
                chain(("[\n" + inner + fronts[0],),
                      cycle([*fronts[1:], closing + ",\n" + inner + fronts[0]])),
                map(heads.quote, chain.from_iterable(map(pick, value))))))
        except TypeError:                      # a value that is no string
            sep = "[\n" + inner
            for record in value:
                try:
                    text = _record(record, entry, inner, heads)
                except TypeError:              # a value that is no leaf
                    yield sep
                    yield from _pieces(record, inner, heads)
                else:
                    yield sep + text
                sep = ",\n" + inner
            yield "\n" + indent + "]"
        else:
            yield text                         # the closing apart, so as not to copy the text
            yield closing + "\n" + indent + "]"
    elif (set(map(type, value)) <= {list, tuple} and all(value)
            and set(map(type, chain.from_iterable(value))) == {str}):
        quote, inner2 = heads.quote, inner + "  "
        opening, closing = "[\n" + inner2, "\n" + inner + "]"
        between = closing + ",\n" + inner + opening
        runs = (opening + between.join(map((",\n" + inner2).join, map(map, repeat(quote), run)))
                + closing for _, run in groupby(value, itemgetter(0)))
        yield "[\n" + inner + next(runs)
        yield from map((",\n" + inner).__add__, runs)
        yield "\n" + indent + "]"
    else:
        sep = "[\n" + inner
        for item in value:
            yield sep
            yield from _pieces(item, inner, heads)
            sep = ",\n" + inner
        yield "\n" + indent + "]"


def _composition_pieces(cat: FinCategory, indent: str, heads: _Heads):
    """The pieces of `_copy(cat)`, one row of cat.comp at a time: f then each g
    leaving cod f, in id order; or of `_copy(cat)` if cat.comp has a gap or extra."""
    comp, mor, ids, quote = cat.comp, cat._mor, sorted(cat._mor), heads.quote
    outs = {x: sorted(chain.from_iterable(hom.values())) for x, hom in cat._hom.items()}
    try:
        rows = [tuple(map(quote, map(comp.__getitem__, zip(repeat(f), outs.get(mor[f].cod, ())))))
                for f in ids]
    except (KeyError, TypeError):       # a composite missing, or an id json writes unquoted
        rows = None
    # when no composite is missing, an entry more is for a pair that does not compose
    if not comp or rows is None or sum(map(len, rows)) != len(comp):
        yield from _pieces(_copy(cat), indent, heads)
        return
    inner, inner2 = indent + "  ", indent + "    "
    sep, closing = ",\n" + inner2, "\n" + inner + "]"
    then = {x: [quote(g) + sep for g in gs] for x, gs in outs.items()}
    head = "[\n" + inner
    for f, row in filter(itemgetter(1), zip(ids, rows)):
        start = "[\n" + inner2 + quote(f) + sep
        yield "".join(chain.from_iterable(zip(chain((head + start,), repeat(
            closing + ",\n" + inner + start)), then[mor[f].cod], row))) + closing
        head = ",\n" + inner
    yield "\n" + indent + "]"


def loads_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document is not a JSON object")
    if doc.get("format") != FORMAT:
        raise DocumentError(f"unsupported format {doc.get('format')!r}, "
                            f"expected {FORMAT!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    if "payload" not in doc:
        raise DocumentError("document has no payload")
    if not isinstance(doc.get("meta"), dict):
        raise DocumentError("document meta is missing or not a JSON object")
    try:
        _name(doc["meta"], "")
    except TypeError as exc:
        raise DocumentError(f"malformed document meta: {exc}") from exc
    return doc


def parse_document(doc: dict):
    """Return (kind, parsed value); the value type depends on the kind."""
    kind = doc["kind"]
    payload = doc["payload"]
    if kind == "category":
        return kind, category_from_payload(payload)
    if kind == "functor":
        return kind, functor_from_payload(payload)
    if kind == "nattrans":
        return kind, nat_trans_from_payload(payload)
    if kind == "bifunctor":
        return kind, bifunctor_from_payload(payload)
    return kind, bundle_from_payload(payload)
