"""Union-type inference over JSON example documents.

Types form a join-semilattice: ``unify`` computes the least upper bound of
two types, and a set of example documents is typed by folding ``unify``
over the per-document types starting from the bottom seed. Heterogeneous
scalars meet in unions, object types merge field-wise (a field missing on
one side becomes optional), and integers widen to floats rather than
forming a union, matching every target language's numeric tower. An object
type's fields are plain ``(wire name, type, required)`` triples, sorted by
name, so equality and hashing are structural.

The bottom seed is internal: any residue it leaves (an array no example
ever populated) is published as the unconstrained type.

``lift_declarations`` publishes a raw fold in one walk: it widens bottom
seeds, records where, and turns objects into references to declarations
hash-consed in a ``DeclRegistry`` shared by every tree of a build, so
identical bodies get one declaration corpus-wide. ``finalize`` is that walk
without a registry.

Both tree walks are per-node kernels. Every node is immutable and carries
no ``__dict__``: an atom is a slotted singleton, and every other kind is a
tuple, built, hashed and compared in C. An object type is the tuple of its
field triples and a union the tuple of its branches, so each is one object
(``.fields`` and ``.branches`` return the node itself); an array and a
reference are ``NamedTuple``s, as is ``TypeDecl``. Nodes of two kinds never
compare equal: their lengths differ, or their items do (a field triple
starts with a string, a branch is a node). The fold (``_infer_raw``) and
the lift (``_Lift.walk``) dispatch on a node's exact type, commonest kind
first; the lift keeps an atom field as it is, without a call. The fold
types only what ``parse_json`` builds, which is never a subclass of a JSON
type, and raises ``TypeError`` on anything else.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, NamedTuple

from .issues import Issue, Stage, make_issue
# Besides the two it uses, typeinfer re-exports the decoder and the text rules.
from .text import (
    IDENTIFIER,
    MAX_JSON_DEPTH,
    SURROGATE,
    UNPRINTABLE,
    fresh_name,
    parse_json,
    wire_text,
)

if TYPE_CHECKING:  # annotations only
    from .params import Parameter


class _Atom:
    """A scalar type. Each is one module singleton, so atoms compare by identity."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an atom")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an atom")

    def __repr__(self) -> str:
        return self.label

    def __reduce__(self):
        # copy, deepcopy and pickle hand back the singleton, never a twin.
        return _atom, (self.label,)


BOTTOM = _Atom("bottom")
T_NULL = _Atom("null")
T_BOOL = _Atom("bool")
T_INT = _Atom("int")
T_FLOAT = _Atom("float")
T_STRING = _Atom("string")
T_ANY = _Atom("any")

_ATOMS = {atom.label: atom for atom in (BOTTOM, T_NULL, T_BOOL, T_INT, T_FLOAT, T_STRING, T_ANY)}


def _atom(label: str) -> _Atom:
    return _ATOMS[label]


class TArray(NamedTuple):
    elem: InferredType


class TObject(tuple):
    """An object type: the tuple of its ``(wire name, type, required)`` field triples.

    Every function that builds one sorts the triples by name, so equality is structural.
    """

    __slots__ = ()

    @property
    def fields(self) -> TObject:
        return self

    def __repr__(self) -> str:
        return f"TObject({tuple.__repr__(self)})"


class TUnion(tuple):
    """A union type: the tuple of its two or more branches.

    Canonical order, as ``_normalize`` builds it: null, bool, the numeric
    type, string, one array, one object. ``lift_declarations`` builds lifted
    unions directly, with a reference in the object's place.
    """

    __slots__ = ()

    def __new__(cls, branches):
        self = tuple.__new__(cls, branches)
        if len(self) < 2:
            raise ValueError("a union needs at least two branches")
        return self

    @property
    def branches(self) -> TUnion:
        return self

    def __repr__(self) -> str:
        return f"TUnion({tuple.__repr__(self)})"


class TRef(NamedTuple):
    """Named reference to a lifted object declaration (post-lift trees only)."""

    name: str


#: A node of the type lattice, or of a lifted tree.
InferredType = _Atom | TArray | TObject | TUnion | TRef


def _key_text(wire: str) -> str:
    """An inline object's key: bare if ``IDENTIFIER`` matches it, else an ASCII JSON string.

    A bare key holding ``:``, ``,``, ``?``, a space or a brace would read as
    more of the type (``{"a: int, b": "x"}`` as ``{a: int, b: string}``).
    """
    return wire if IDENTIFIER.match(wire) else json.dumps(wire)


def format_type(t: InferredType, type_names: dict[str, str] | None = None) -> str:
    """Type expression in the neutral grammar; declaration refs use final names."""
    if isinstance(t, _Atom):
        return t.label
    if isinstance(t, TRef):
        return type_names.get(t.name, t.name) if type_names else t.name
    if isinstance(t, TArray):
        return f"[{format_type(t.elem, type_names)}]"
    if isinstance(t, TUnion):
        return " | ".join(format_type(b, type_names) for b in t)
    if isinstance(t, TObject):
        if not t:
            return "{}"
        inner = ", ".join(
            f"{_key_text(name)}{'' if required else '?'}: {format_type(field_type, type_names)}"
            for name, field_type, required in t
        )
        return "{" + inner + "}"
    raise TypeError(f"cannot format {t!r}")


def unify(a: InferredType, b: InferredType) -> InferredType:
    """Least upper bound of two types (total, commutative, associative)."""
    return _normalize(_branches_of(a) + _branches_of(b))


def _branches_of(t: InferredType) -> tuple[InferredType, ...]:
    if t is BOTTOM:
        return ()
    if isinstance(t, TUnion):
        return t
    return (t,)


def _normalize(branches: tuple[InferredType, ...]) -> InferredType:
    """Collapse a branch list into canonical form, merging within families."""
    has_null = has_bool = has_string = False
    numeric: InferredType | None = None
    array: TArray | None = None
    obj: TObject | None = None

    for br in branches:
        if br is T_ANY:
            return T_ANY
        if br is T_NULL:
            has_null = True
        elif br is T_BOOL:
            has_bool = True
        elif br is T_STRING:
            has_string = True
        elif br is T_INT or br is T_FLOAT:
            if numeric is None:
                numeric = br
            elif numeric is not br:
                numeric = T_FLOAT
        elif isinstance(br, TArray):
            array = br if array is None else TArray(unify(array.elem, br.elem))
        elif isinstance(br, TObject):
            obj = br if obj is None else _merge_objects(obj, br)
        else:  # a reference is a name, not a lattice element
            raise TypeError(f"cannot normalize {br!r}")

    out: list[InferredType] = []
    if has_null:
        out.append(T_NULL)
    if has_bool:
        out.append(T_BOOL)
    if numeric is not None:
        out.append(numeric)
    if has_string:
        out.append(T_STRING)
    if array is not None:
        out.append(array)
    if obj is not None:
        out.append(obj)

    if not out:
        return BOTTOM
    if len(out) == 1:
        return out[0]
    return TUnion(out)


def _merge_objects(a: TObject, b: TObject) -> TObject:
    right = {name: (t, required) for name, t, required in b}
    fields = []
    for name, t, required in a:
        if name in right:
            t_b, required_b = right.pop(name)
            fields.append((name, unify(t, t_b), required and required_b))
        else:
            fields.append((name, t, False))
    fields.extend((name, t, False) for name, (t, _) in right.items())
    return TObject(sorted(fields, key=lambda field: field[0]))


def fold_examples(docs: list[Any]) -> InferredType:
    """Raw lattice fold over documents; bottom seeds may remain inside."""
    result: InferredType = BOTTOM
    for doc in docs:
        result = unify(result, _infer_raw(doc))
    return result


def _infer_raw(value: Any) -> InferredType:
    # Exact types only, the commonest first: parse_json builds no subclass.
    kind = type(value)
    if kind is dict:
        return TObject([(n, _infer_raw(item), True) for n, item in sorted(value.items())])
    if kind is list:
        elem: InferredType = BOTTOM
        for item in value:
            t = _infer_raw(item)
            # Types from _infer_raw are normalized and unify is idempotent, so
            # a first or repeated element type is already the join.
            if elem is BOTTOM or elem is t:
                elem = t
            else:
                elem = unify(elem, t)
        return TArray(elem)
    if kind is str:
        return T_STRING
    if kind is int:
        return T_INT
    if value is None:
        return T_NULL
    if kind is bool:
        return T_BOOL
    if kind is float:
        return T_FLOAT
    raise TypeError(f"not a JSON value: {value!r}")


def finalize(t: InferredType) -> tuple[InferredType, list[str]]:
    """Publishable form of a raw type, and the paths of arrays no example populated.

    ``lift_declarations`` without a registry: bottom seeds widen to any,
    objects stay inline.
    """
    published, unpopulated, _ = lift_declarations(t, (), None)
    return published, unpopulated


def inhabits(value: Any, t: InferredType) -> bool:
    """Membership check, implemented structurally and independently of unify.

    Objects are closed-world: a document with a key the type does not
    declare is not a member. Integers inhabit the float type (numeric
    widening) but booleans never inhabit numeric types.
    """
    if t is T_ANY:
        return True
    if t is BOTTOM:
        return False
    if t is T_NULL:
        return value is None
    if t is T_BOOL:
        return isinstance(value, bool)
    if t is T_INT:
        return isinstance(value, int) and not isinstance(value, bool)
    if t is T_FLOAT:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if t is T_STRING:
        return isinstance(value, str)
    if isinstance(t, TArray):
        return isinstance(value, list) and all(inhabits(item, t.elem) for item in value)
    if isinstance(t, TObject):
        if not isinstance(value, dict):
            return False
        present = 0  # declared names the document holds; any other key is undeclared
        for name, field_type, required in t:
            if name in value:
                present += 1
                if not inhabits(value[name], field_type):
                    return False
            elif required:
                return False
        return present == len(value)
    if isinstance(t, TUnion):
        return any(inhabits(value, b) for b in t)
    raise TypeError(f"cannot check membership of {t!r}")


class TypeDecl(NamedTuple):
    """A named object type lifted out of an inferred tree (name pre-mangling).

    ``pieces`` spell ``name``: the lift's base, a wire name per field hop, None
    (``Item``) per array hop, then any ``_N`` of ``fresh_name``. ``group``, its
    home, is the least group by name among the functions whose examples reach it.
    """

    name: str
    pieces: tuple[str | None, ...]
    body: TObject
    group: str


class DeclRegistry:
    """Corpus-wide hash-cons table of lifted object bodies.

    ``by_body`` maps each distinct body to its declaration; its insertion
    order is the children-first declaration order. ``taken`` holds every
    declaration name handed out so far, in ``fresh_name``'s form. ``wires``
    maps each wire name a lift has met to the one string that every lifted
    body and piece holds for it, since each example text decodes its keys
    anew. It is a dict, not ``sys.intern``: an interned string outlives the
    build (on 3.12 it is immortal), so a long-lived caller would keep them all.
    """

    def __init__(self) -> None:
        self.by_body: dict[TObject, TypeDecl] = {}
        self.taken: dict[str, int] = {}
        self.wires: dict[str, str] = {}


def spell(pieces: tuple[str, ...]) -> str:
    """The raw name ``pieces`` spell: each piece with its first letter upper-cased."""
    return "".join([piece[:1].upper() + piece[1:] for piece in pieces])


def lift_declarations(
    t: InferredType,
    base: tuple[str, ...],
    registry: DeclRegistry | None,
    *,
    group: str = "misc",
    trail: list[tuple[str, TObject]] | None = None,
) -> tuple[InferredType, list[str], list[Issue]]:
    """Publish a raw type; returns it, the paths of its unpopulated arrays, and issues.

    Each bottom seed widens to any, and the JSON path of its array is
    recorded once per type position (``.field``, ``["field"]`` or ``[]`` per
    hop). With a registry, every object node becomes a named reference to a
    registry declaration; without one, objects stay inline. Names grow from
    ``spell(base)`` along the field path (array hops add ``Item``). A body
    already in ``registry`` is shared (see ``share_decl``); a new body takes
    ``fresh_name`` of its path name against the names the registry has
    already handed out, keeps its pieces (see ``TypeDecl``), and is homed in
    ``group``. Children are registered before their parents, so every
    reference a body carries is a final name, and the lookups of one call
    are exactly the declarations its result reaches.

    ``trail``, when given, receives one ``(name suffix, body)`` pair per
    lookup, in walk order: the name is ``spell(base)`` plus the suffix, and
    the body is the registry's key. The registry only grows and never
    renames, so a later lift of the same raw type finds every one of these
    bodies in the same order; ``replay`` of the trail gives that lift's
    registry effects and issues without walking again.
    """
    lift = _Lift(registry, group, base, trail)
    return lift.walk(t, "", ()), lift.unpopulated, lift.issues


def replay(
    registry: DeclRegistry, trail: list[tuple[str, TObject]], base: tuple[str, ...], group: str
) -> list[Issue]:
    """Relift ``trail``'s raw type from ``base`` in ``group``: do its rehomes, return its issues."""
    name = spell(base)
    return [
        share_decl(registry, registry.by_body[body], name + suffix, group) for suffix, body in trail
    ]


def share_decl(registry: DeclRegistry, kept: TypeDecl, name: str, group: str) -> Issue:
    """Share ``kept``, a registered declaration, with a type named ``name`` in ``group``.

    ``kept`` is rehomed in ``group`` when ``group`` is less, by name, than its
    home. Reassigning a key keeps its place, so registry order and names do
    not depend on homes. Returns the W_DECL_SHARED issue of the share.
    """
    if group < kept.group:
        registry.by_body[kept.body] = kept._replace(group=group)
    return make_issue(
        "W_DECL_SHARED",
        Stage.INFER,
        f"type {name!r} is structurally identical to {kept.name!r}; sharing one declaration",
    )


class _Lift:
    """The state of one ``lift_declarations`` walk.

    A class rather than nested functions: a nested function that calls
    itself holds a reference cycle that only the cyclic GC frees.
    """

    __slots__ = (
        "registry", "group", "base", "base_name", "trail", "unpopulated", "issues", "wires"
    )

    def __init__(
        self,
        registry: DeclRegistry | None,
        group: str,
        base: tuple[str, ...],
        trail: list[tuple[str, TObject]] | None,
    ):
        self.registry = registry
        self.group = group
        self.base = base
        self.base_name = spell(base)
        self.trail = trail
        self.unpopulated: list[str] = []
        self.issues: list[Issue] = []
        self.wires = {} if registry is None else registry.wires

    def walk(self, node: InferredType, suffix: str, hops: tuple[str | None, ...]) -> InferredType:
        kind = type(node)
        if kind is TObject:
            # A field typed by an atom other than bottom publishes as it is.
            wire = self.wires.setdefault
            fields = []
            for n, t, required in node:
                n = wire(n, n)
                if type(t) is not _Atom or t is BOTTOM:
                    t = self.walk(t, suffix + n[:1].upper() + n[1:], hops + (n,))
                fields.append((n, t, required))
            body = TObject(fields)
            return body if self.registry is None else TRef(self.add_decl(body, suffix, hops))
        if kind is TArray:
            if node.elem is BOTTOM:
                self.unpopulated.append("$" + "".join([_hop_text(hop) for hop in hops]))
            return TArray(self.walk(node.elem, suffix + "Item", hops + (None,)))
        if kind is TUnion:
            return TUnion([self.walk(b, suffix, hops) for b in node])
        return T_ANY if node is BOTTOM else node

    def add_decl(self, body: TObject, suffix: str, hops: tuple[str | None, ...]) -> str:
        registry = self.registry
        name = self.base_name + suffix
        kept = registry.by_body.get(body)
        if kept is None:
            final = fresh_name(name, registry.taken)
            pieces = self.base + hops if final == name else self.base + hops + (final[len(name) :],)
            registry.by_body[body] = kept = TypeDecl(final, pieces, body, self.group)
        else:
            self.issues.append(share_decl(registry, kept, name, self.group))
        if self.trail is not None:
            self.trail.append((suffix, kept.body))
        return kept.name


def _hop_text(hop: str | None) -> str:
    """A JSON path hop: ``[]``, ``.name``, or ``["name"]`` for a name no ``IDENTIFIER``.

    Quoted as ASCII JSON, a name never breaks a line nor reads as two hops.
    """
    if hop is None:
        return "[]"
    return "." + hop if IDENTIFIER.match(hop) else "[" + json.dumps(hop) + "]"


_DECLARED_TYPES: dict[str, InferredType] = {
    "string": T_STRING,
    "integer": T_INT,
    "int": T_INT,
    "number": T_FLOAT,
    "boolean": T_BOOL,
    "array": TArray(T_ANY),
    "object": TObject(()),
}


def _conforms(inferred: InferredType, declared: InferredType) -> bool:
    """Whether an example's type fits a declared type.

    The declared ``array`` and ``object`` say nothing of their contents, so
    any array, and any object, conforms to them.
    """
    if isinstance(declared, TObject):
        return isinstance(inferred, TObject)
    return unify(inferred, declared) == declared


def type_of_parameter(param: Parameter) -> tuple[InferredType, list[Issue]]:
    """Type a documented parameter: its example wins over its declared type."""
    issues: list[Issue] = []
    declared = None
    if param.declared_type is not None:
        declared = _DECLARED_TYPES.get(param.declared_type.strip().lower())

    if param.has_example:
        inferred, unpopulated = finalize(fold_examples([param.example]))
        for path in unpopulated:
            issues.append(
                make_issue(
                    "W_EMPTY_ARRAY",
                    Stage.INFER,
                    f"parameter {param.name!r} example has an empty array at {path}",
                    field=param.name,
                )
            )
        if declared is not None and not _conforms(inferred, declared):
            issues.append(
                make_issue(
                    "W_PARAM_TYPE_CONFLICT",
                    Stage.INFER,
                    f"parameter {param.name!r}: example types as {format_type(inferred)} "
                    f"but docs declare {param.declared_type!r}; the example wins",
                    field=param.name,
                )
            )
        return inferred, issues

    if declared is not None:
        if declared == TObject(()):
            issues.append(
                make_issue(
                    "W_PARAM_TYPE_OPAQUE",
                    Stage.INFER,
                    f"parameter {param.name!r} is declared an object with unknown fields",
                    field=param.name,
                )
            )
        return declared, issues

    issues.append(
        make_issue(
            "W_PARAM_TYPE_DEFAULTED",
            Stage.INFER,
            f"parameter {param.name!r} has no example and no recognized declared type; "
            "defaulting to string",
            field=param.name,
        )
    )
    return T_STRING, issues
