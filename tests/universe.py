"""Enumerated type universe for exhaustive lattice-law checking.

Small enough that all triples can be checked in seconds, rich enough to
cover every constructor combination: scalars, arrays (with nesting),
objects over three field names with required/optional flags, and unions.
Depth is at most two. Also ``expand``, which resolves a lifted type's
declaration refs, so a published type can be checked like a raw one, and
``resolve`` and ``identity_entries``, which read a sparse name map against
the IR it names.
"""

from __future__ import annotations

from itertools import combinations, product

from apibind.codegen import BindingIr, signature_wires
from apibind.typeinfer import (
    BOTTOM,
    InferredType,
    TArray,
    TObject,
    TRef,
    TUnion,
    T_ANY,
    T_BOOL,
    T_FLOAT,
    T_INT,
    T_NULL,
    T_STRING,
    unify,
)

FIELD_NAMES = ("a", "b", "c")
SCALARS = (T_NULL, T_BOOL, T_INT, T_FLOAT, T_STRING)


def obj(*fields: tuple[str, InferredType, bool]) -> TObject:
    return TObject(fields)


def enumerate_universe() -> list[InferredType]:
    types: list[InferredType] = [BOTTOM, T_ANY, *SCALARS]

    types.extend(TArray(s) for s in SCALARS)
    types.append(TArray(T_ANY))
    types.append(TArray(TArray(T_INT)))
    types.append(TArray(obj(("a", T_INT, True))))
    types.append(TArray(TUnion((T_INT, T_STRING))))

    types.append(obj())
    field_types = (T_INT, T_STRING)
    for name in FIELD_NAMES:
        for ftype, required in product(field_types, (True, False)):
            types.append(obj((name, ftype, required)))
    for (ta, ra), (tb, rb) in product(product(field_types, (True, False)), repeat=2):
        types.append(obj(("a", ta, ra), ("b", tb, rb)))
    types.append(obj(("a", obj(("b", T_INT, True)), True)))
    types.append(obj(("a", TArray(T_INT), True)))
    types.append(obj(("c", TUnion((T_NULL, T_INT)), False)))

    for left, right in combinations(SCALARS, 2):
        if {left, right} == {T_INT, T_FLOAT}:
            continue  # numeric widening forbids this pair inside a union
        types.append(TUnion((left, right)))
    types.append(TUnion((T_INT, TArray(T_INT))))
    types.append(TUnion((T_STRING, obj(("a", T_INT, True)))))
    types.append(TUnion((T_NULL, obj(("a", T_INT, True)))))
    types.append(TUnion((T_NULL, T_INT, T_STRING)))

    assert len(set(types)) == len(types), "universe entries must be distinct"
    return types


def lattice_le(a: InferredType, b: InferredType) -> bool:
    """Lattice order: a <= b iff joining with b changes nothing."""
    return unify(a, b) == b


def expand(t: InferredType, bodies: dict[str, TObject]) -> InferredType:
    """The type with every declaration ref replaced by its (expanded) body."""
    if isinstance(t, TRef):
        return expand(bodies[t.name], bodies)
    if isinstance(t, TArray):
        return TArray(expand(t.elem, bodies))
    if isinstance(t, TObject):
        return TObject(tuple((n, expand(ft, bodies), required) for n, ft, required in t.fields))
    if isinstance(t, TUnion):
        return TUnion(tuple(expand(b, bodies) for b in t.branches))
    return t


def resolve(names: dict, ir: BindingIr) -> dict:
    """The full name map of ``ir``: ``names`` with each absent name mapped to itself."""
    types = {decl.name: names["types"].get(decl.name, decl.name) for decl in ir.decls}
    fields = {}
    for decl in ir.decls:
        renamed = names["fields"].get(types[decl.name], {})
        fields[types[decl.name]] = {wire: renamed.get(wire, wire) for wire, *_ in decl.body.fields}
    functions, params = {}, {}
    for fn in ir.functions:
        functions[fn.raw_name] = names["functions"].get(fn.raw_name, fn.raw_name)
        params[fn.raw_name] = names["params"].get(fn.raw_name, signature_wires(fn))
    return {"functions": functions, "types": types, "fields": fields, "params": params}


def identity_entries(names: dict, ir: BindingIr) -> list[tuple[str, ...]]:
    """Each entry of the name map ``names`` that says a name of ``ir`` maps to itself."""
    found = [
        (namespace, raw)
        for namespace in ("functions", "types")
        for raw, final in names[namespace].items()
        if raw == final
    ]
    for type_name, renamed in names["fields"].items():
        if not renamed:
            found.append(("fields", type_name))
        found += [("fields", type_name, wire) for wire, final in renamed.items() if wire == final]
    wires = {fn.raw_name: signature_wires(fn) for fn in ir.functions}
    found += [("params", raw) for raw, ids in names["params"].items() if ids == wires[raw]]
    return found
