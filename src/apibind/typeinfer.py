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

Both tree walks are per-node kernels. Every node kind is a slotted frozen
dataclass, so no node carries a ``__dict__``. The fold (``_infer_raw``) and
the lift (``_Lift.walk``) dispatch on a node's exact type, commonest kind
first; the lift keeps an atom field as it is, without a call. The fold
types only what ``parse_json`` builds, which is never a subclass of a JSON
type, and raises ``TypeError`` on anything else.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from .issues import Issue, Stage, make_issue

if TYPE_CHECKING:  # annotations only, so the parsers can import the decoder
    from .params import Parameter


class InferredType:
    """Base of the type lattice; concrete kinds below."""

    __slots__ = ()


@dataclass(frozen=True, eq=False, slots=True)
class _Atom(InferredType):
    """A scalar type. Each is one module singleton, so atoms compare by identity."""

    label: str

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


@dataclass(frozen=True, slots=True)
class TArray(InferredType):
    elem: InferredType


@dataclass(frozen=True, slots=True)
class TObject(InferredType):
    #: (wire name, type, required) triples, sorted by name by every builder so
    #: equality is structural.
    fields: tuple[tuple[str, InferredType, bool], ...]


@dataclass(frozen=True, slots=True)
class TUnion(InferredType):
    #: Canonical order, as ``_normalize`` builds it: null, bool, the numeric
    #: type, string, one array, one object. ``lift_declarations`` builds
    #: lifted unions directly, with a reference in the object's place.
    branches: tuple[InferredType, ...]

    def __post_init__(self):
        if len(self.branches) < 2:
            raise ValueError("a union needs at least two branches")


@dataclass(frozen=True, slots=True)
class TRef(InferredType):
    """Named reference to a lifted object declaration (post-lift trees only)."""

    name: str


#: Control characters and the two Unicode separators: every character that
#: ``str.splitlines`` breaks on is among them.
UNPRINTABLE = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")

#: A name that most target languages, and a JSON path's ``.name`` hop, take as it is.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: A surrogate code point, which is never half of a pair in a ``str``: UTF-8
#: cannot encode one, so no output file could hold it.
SURROGATE = re.compile("[\ud800-\udfff]")


def _wire_text(wire: str) -> str:
    """A wire name as a module writes it.

    A name holding a character that could end the line becomes an ASCII JSON
    string (``ensure_ascii=False`` would leave U+0085, U+2028 and U+2029 raw),
    which still names the wire field exactly. So does the empty name, which
    written bare would show nothing.
    """
    return json.dumps(wire) if not wire or UNPRINTABLE.search(wire) else wire


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
        return " | ".join(format_type(b, type_names) for b in t.branches)
    if isinstance(t, TObject):
        if not t.fields:
            return "{}"
        inner = ", ".join(
            f"{_key_text(name)}{'' if required else '?'}: {format_type(field_type, type_names)}"
            for name, field_type, required in t.fields
        )
        return "{" + inner + "}"
    raise TypeError(f"cannot format {t!r}")


#: Deepest nesting of arrays and objects a document may have. Deeper ones
#: are rejected like malformed ones, so no recursive walk ever sees them.
MAX_JSON_DEPTH = 128
_TOO_DEEP = f"document nested deeper than {MAX_JSON_DEPTH} levels"

#: The escape of a surrogate code point, ``\\uD800`` to ``\\uDFFF``: a
#: strict UTF-8 text can hold a surrogate only through one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


#: Built once: ``json.loads`` with a keyword argument builds a decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json(text: str):
    """Parse standard JSON; integral lexemes become int, others float.

    A lexeme with a decimal point or exponent is non-integral even when its
    value is whole (``1e3`` types as float). NaN/Infinity are rejected, and
    so are documents nested deeper than ``MAX_JSON_DEPTH`` and documents
    with a key or string that holds a lone surrogate (a ``\\u`` escape of
    half a surrogate pair), which no UTF-8 output can carry.

    Every fault raises ``ValueError``; a decode fault raises the decoder's
    ``json.JSONDecodeError``, whose ``.pos`` is the fault's offset in ``text``.
    """
    try:
        doc = _DECODER.decode(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    # Only a text with that many brackets can nest that deep.
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH and _depth(doc) > MAX_JSON_DEPTH:
        raise ValueError(_TOO_DEEP)
    # Re-encoded without escapes, every key and string of the document shows as it is.
    if _SURROGATE_ESCAPE.search(text):
        lone = SURROGATE.search(json.dumps(doc, ensure_ascii=False))
        if lone:
            raise ValueError(f"lone surrogate \\u{ord(lone.group()):04x} in a string")
    return doc


def _depth(doc: Any) -> int:
    """Longest chain of nested arrays and objects in a decoded document."""
    deepest = 0
    stack = [(doc, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dict):
            node = node.values()
        elif not isinstance(node, list):
            continue
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node)
    return deepest


def unify(a: InferredType, b: InferredType) -> InferredType:
    """Least upper bound of two types (total, commutative, associative)."""
    return _normalize(_branches_of(a) + _branches_of(b))


def _branches_of(t: InferredType) -> tuple[InferredType, ...]:
    if t is BOTTOM:
        return ()
    if isinstance(t, TUnion):
        return t.branches
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
    return TUnion(tuple(out))


def _merge_objects(a: TObject, b: TObject) -> TObject:
    right = {name: (t, required) for name, t, required in b.fields}
    fields = []
    for name, t, required in a.fields:
        if name in right:
            t_b, required_b = right.pop(name)
            fields.append((name, unify(t, t_b), required and required_b))
        else:
            fields.append((name, t, False))
    fields.extend((name, t, False) for name, (t, _) in right.items())
    return TObject(tuple(sorted(fields, key=lambda field: field[0])))


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
        return TObject(tuple([(n, _infer_raw(item), True) for n, item in sorted(value.items())]))
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
        for name, field_type, required in t.fields:
            if name in value:
                present += 1
                if not inhabits(value[name], field_type):
                    return False
            elif required:
                return False
        return present == len(value)
    if isinstance(t, TUnion):
        return any(inhabits(value, b) for b in t.branches)
    raise TypeError(f"cannot check membership of {t!r}")


@dataclass(frozen=True, slots=True)
class TypeDecl:
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
    declaration name handed out so far, in ``fresh_name``'s form.
    """

    def __init__(self) -> None:
        self.by_body: dict[TObject, TypeDecl] = {}
        self.taken: dict[str, int] = {}


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
    bodies in the same order; replaying the trail through ``share_decl``
    gives that lift's registry effects and issues without walking again.
    """
    lift = _Lift(registry, group, base, trail)
    return lift.walk(t, "", ()), lift.unpopulated, lift.issues


def share_decl(registry: DeclRegistry, kept: TypeDecl, name: str, group: str) -> Issue:
    """Share ``kept``, a registered declaration, with a type named ``name`` in ``group``.

    ``kept`` is rehomed in ``group`` when ``group`` is less, by name, than its
    home. Reassigning a key keeps its place, so registry order and names do
    not depend on homes. Returns the W_DECL_SHARED issue of the share.
    """
    if group < kept.group:
        registry.by_body[kept.body] = replace(kept, group=group)
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

    __slots__ = ("registry", "group", "base", "base_name", "trail", "unpopulated", "issues")

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

    def walk(self, node: InferredType, suffix: str, hops: tuple[str | None, ...]) -> InferredType:
        kind = type(node)
        if kind is TObject:
            # A field typed by an atom other than bottom publishes as it is.
            fields = [
                (n, t, required)
                if type(t) is _Atom and t is not BOTTOM
                else (n, self.walk(t, suffix + n[:1].upper() + n[1:], hops + (n,)), required)
                for n, t, required in node.fields
            ]
            body = TObject(tuple(fields))
            return body if self.registry is None else TRef(self.add_decl(body, suffix, hops))
        if kind is TArray:
            if node.elem is BOTTOM:
                self.unpopulated.append("$" + "".join([_hop_text(hop) for hop in hops]))
            return TArray(self.walk(node.elem, suffix + "Item", hops + (None,)))
        if kind is TUnion:
            return TUnion(tuple([self.walk(b, suffix, hops) for b in node.branches]))
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


def fresh_name(name: str, taken: dict[str, int]) -> str:
    """First of ``name``, ``name_2``, ``name_3``, ... not in ``taken``; adds it to ``taken``.

    ``taken`` maps each name handed out to the next suffix to try when it
    comes back as a base: every suffix below that one is taken, and ``taken``
    only grows, so resuming there returns what probing from ``_2`` would.
    """
    suffix = taken.get(name)
    if suffix is None:
        taken[name] = 2
        return name
    final = f"{name}_{suffix}"
    while final in taken:
        suffix += 1
        final = f"{name}_{suffix}"
    taken[name] = suffix + 1
    taken[final] = 2
    return final


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
