from __future__ import annotations

import copy
import gc
import json
import pickle
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from apibind import typeinfer
from apibind.params import Convention, Parameter
from apibind.typeinfer import (
    BOTTOM,
    DeclRegistry,
    MAX_JSON_DEPTH,
    TArray,
    TObject,
    TRef,
    TUnion,
    TypeDecl,
    T_ANY,
    T_BOOL,
    T_FLOAT,
    T_INT,
    T_NULL,
    T_STRING,
    finalize,
    fold_examples,
    format_type,
    fresh_name,
    inhabits,
    lift_declarations,
    parse_json,
    replay,
    type_of_parameter,
    unify,
)

from .gen import gen_json_doc, nested_json
from .universe import enumerate_universe, lattice_le, obj


#: Strings of high and low surrogates and their neighbours: pairs, lone halves and reversals.
_near_surrogates = st.text(
    st.sampled_from("a\ud7ff\ud800\ud83d\udbff\udc00\ude00\udfff\ue000"), max_size=4
)


class TestParseJson:
    def test_object_with_int(self):
        assert parse_json('{"a":1}') == {"a": 1}
        assert isinstance(parse_json('{"a":1}')["a"], int)

    def test_exponent_lexeme_is_non_integral(self):
        value = parse_json("1e3")
        assert value == 1000.0
        assert isinstance(value, float)

    def test_decimal_lexeme_is_non_integral(self):
        assert isinstance(parse_json("2.0"), float)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(json.JSONDecodeError) as exc:
            parse_json("{a:1}")
        assert exc.value.pos == 1

    def test_nonstandard_tokens_rejected(self):
        with pytest.raises(ValueError):
            parse_json("NaN")

    def test_nesting_bound(self):
        # The documented bound: 128 levels decode, 129 do not.
        assert parse_json(nested_json(128)) is not None
        with pytest.raises(ValueError, match="nested deeper than 128 levels"):
            parse_json(nested_json(129))
        assert parse_json(nested_json(MAX_JSON_DEPTH)) is not None
        for depth in (MAX_JSON_DEPTH + 1, 3000):
            with pytest.raises(ValueError, match="nested deeper"):
                parse_json(nested_json(depth))

    def test_brackets_inside_strings_do_not_nest(self):
        text = '{"s": "' + "[{" * MAX_JSON_DEPTH + '"}'
        assert parse_json(text) == {"s": "[{" * MAX_JSON_DEPTH}


    @pytest.mark.parametrize(
        "text",
        [
            r'{"\ud800x": 1}',
            r'{"a": "x\uDFFF"}',
            r'[1, ["\udc80"]]',
            r'"\ude00\ud83d"',
            r'{"k": {"\ud83d": null}}',
        ],
    )
    def test_lone_surrogate_rejected(self, text):
        with pytest.raises(ValueError, match="lone surrogate"):
            parse_json(text)

    def test_surrogate_pair_and_escaped_backslash_accepted(self):
        assert parse_json(r'{"\ud83d\ude00": "\uD83D\uDE00"}') == {"\U0001f600": "\U0001f600"}
        assert parse_json(r'"\\ud800"') == "\\ud800"

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            _near_surrogates,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(_near_surrogates, inner, max_size=3),
            max_leaves=6,
        )
    )
    def test_accepted_documents_encode_as_utf8(self, doc):
        text = json.dumps(doc)  # ASCII: every surrogate is a \u escape
        try:
            json.dumps(json.loads(text), ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(ValueError, match="lone surrogate"):
                parse_json(text)
        else:
            assert parse_json(text) == json.loads(text)


class TestInferValueType:
    def test_mixed_numeric_array_widens(self):
        assert finalize(fold_examples([[1, 2.5]]))[0] == TArray(T_FLOAT)

    def test_empty_array_publishes_any(self):
        assert finalize(fold_examples([[]]))[0] == TArray(T_ANY)

    def test_object_fields_required(self):
        assert finalize(fold_examples([{"a": 1, "b": None}]))[0] == obj(("a", T_INT, True), ("b", T_NULL, True))

    def test_scalars(self):
        for value, expected in ((None, T_NULL), (True, T_BOOL), (3, T_INT), (2.5, T_FLOAT), ("x", T_STRING)):
            assert finalize(fold_examples([value]))[0] == expected


class TestUnify:
    def test_idempotent(self):
        assert unify(T_INT, T_INT) == T_INT

    def test_missing_field_becomes_optional(self):
        assert unify(obj(("a", T_INT, True)), obj()) == obj(("a", T_INT, False))

    def test_int_float_widen(self):
        assert unify(T_INT, T_FLOAT) == T_FLOAT

    def test_scalar_union(self):
        assert unify(T_INT, T_STRING) == TUnion((T_INT, T_STRING))

    def test_union_flattening(self):
        left = TUnion((T_INT, T_STRING))
        assert unify(left, T_NULL) == TUnion((T_NULL, T_INT, T_STRING))

    def test_objects_merge_never_union(self):
        merged = unify(obj(("a", T_INT, True)), obj(("b", T_STRING, True)))
        assert merged == obj(("a", T_INT, False), ("b", T_STRING, False))

    def test_arrays_merge(self):
        assert unify(TArray(T_INT), TArray(T_STRING)) == TArray(TUnion((T_INT, T_STRING)))

    def test_bottom_identity_any_absorbing(self):
        sample = obj(("a", T_INT, True))
        assert unify(BOTTOM, sample) == sample
        assert unify(sample, T_ANY) == T_ANY

    def test_reference_is_not_a_lattice_element(self):
        with pytest.raises(TypeError):
            unify(TRef("A"), T_INT)


class TestAtoms:
    ATOMS = (BOTTOM, T_NULL, T_BOOL, T_INT, T_FLOAT, T_STRING, T_ANY)

    def test_copies_and_pickles_return_the_singleton(self):
        for atom in self.ATOMS:
            assert copy.copy(atom) is atom
            assert copy.deepcopy(atom) is atom
            assert pickle.loads(pickle.dumps(atom)) is atom

    def test_atoms_inside_a_copied_tree_stay_singletons(self):
        tree = obj(("a", TArray(T_INT), True), ("b", TUnion((T_NULL, T_STRING)), False))
        for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree
            assert clone.fields[0][1].elem is T_INT
            assert clone.fields[1][1].branches[1] is T_STRING
            assert unify(clone, tree) == tree


class _CountingDict(dict):
    """A ``taken`` map that counts its lookups."""

    lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestFreshName:
    def test_probes_grow_linearly_on_one_base(self):
        taken = _CountingDict()
        names = [fresh_name("x", taken) for _ in range(4000)]
        assert names == ["x"] + [f"x_{i}" for i in range(2, 4001)]
        assert taken.lookups <= 3 * 4000, taken.lookups

    def test_a_taken_literal_suffix_is_skipped(self):
        taken: dict[str, int] = {}
        assert fresh_name("x_3", taken) == "x_3"
        assert [fresh_name("x", taken) for _ in range(3)] == ["x", "x_2", "x_4"]


class TestInferFromExamples:
    def test_union_rule(self):
        docs = [{"a": 1}, {"a": None}]
        assert finalize(fold_examples(docs))[0] == obj(("a", TUnion((T_NULL, T_INT)), True))

    def test_optionality_rule(self):
        docs = [{"a": 1}, {}]
        assert finalize(fold_examples(docs))[0] == obj(("a", T_INT, False))

    def test_empty_docs_give_any(self):
        assert finalize(fold_examples([]))[0] == T_ANY

    def test_empty_array_sample_does_not_erase_element_type(self):
        assert finalize(fold_examples([[], [1]]))[0] == TArray(T_INT)

    def test_union_invariants_hold_everywhere(self):
        rng = random.Random(5)
        for _ in range(300):
            docs = [gen_json_doc(rng, 2, allow_empty_arrays=True) for _ in range(rng.randint(1, 4))]
            _assert_normalized(finalize(fold_examples(docs))[0])


def _assert_normalized(t, inside_composite=False):
    if t == BOTTOM:
        assert not inside_composite, "bottom leaked into published output"
        return
    if isinstance(t, TUnion):
        assert len(t.branches) >= 2
        kinds = [_family(b) for b in t.branches]
        assert len(set(kinds)) == len(kinds), f"absorbable branches in {t!r}"
        for branch in t.branches:
            assert not isinstance(branch, TUnion), "nested union"
            assert branch != BOTTOM and branch != T_ANY
            _assert_normalized(branch, True)
    elif isinstance(t, TArray):
        _assert_normalized(t.elem, True)
    elif isinstance(t, TObject):
        for _, field_type, _ in t.fields:
            _assert_normalized(field_type, True)


def _family(t):
    if t in (T_INT, T_FLOAT):
        return "numeric"
    if isinstance(t, TArray):
        return "array"
    if isinstance(t, TObject):
        return "object"
    return repr(t)


class TestInhabits:
    def test_closed_world_objects(self):
        t = obj(("a", T_INT, True))
        assert inhabits({"a": 1}, t)
        assert not inhabits({"a": 1, "b": 2}, t)
        assert not inhabits({}, t)

    def test_optional_fields(self):
        t = obj(("a", T_INT, False))
        assert inhabits({}, t)
        assert inhabits({"a": 3}, t)
        assert not inhabits({"a": "x"}, t)

    def test_numeric_widening(self):
        assert inhabits(1, T_FLOAT)
        assert not inhabits(1.5, T_INT)
        assert not inhabits(True, T_INT)
        assert not inhabits(True, T_FLOAT)

    def test_bottom_uninhabited(self):
        for value in (None, 0, "", [], {}):
            assert not inhabits(value, BOTTOM)

    def test_union_membership(self):
        t = TUnion((T_NULL, T_INT))
        assert inhabits(None, t) and inhabits(4, t) and not inhabits("x", t)


class TestSoundness:
    def test_every_sample_inhabits_inferred_type(self):
        rng = random.Random(23)
        for _ in range(300):
            docs = [gen_json_doc(rng, 2, allow_empty_arrays=True) for _ in range(rng.randint(1, 4))]
            inferred = finalize(fold_examples(docs))[0]
            for doc in docs:
                assert inhabits(doc, inferred), (docs, inferred)

    def test_raw_fold_minimal_even_with_empty_arrays(self):
        # the published type widens bottom seeds to any; the raw fold is the
        # precise one and nothing strictly below it admits all samples
        universe = enumerate_universe()
        rng = random.Random(29)
        for _ in range(120):
            docs = [gen_json_doc(rng, 1, allow_empty_arrays=True) for _ in range(rng.randint(1, 3))]
            raw = fold_examples(docs)
            for candidate in universe:
                if candidate != raw and lattice_le(candidate, raw):
                    assert not all(inhabits(doc, candidate) for doc in docs), (docs, raw, candidate)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=6))
def test_order_insensitive(seeds):
    docs = [gen_json_doc(random.Random(seed), 2) for seed in seeds]
    rng = random.Random(0)
    shuffled = docs[:]
    rng.shuffle(shuffled)
    assert finalize(fold_examples(docs))[0] == finalize(fold_examples(shuffled))[0]


def lift(t, base, **kwargs):
    """Lift into a fresh registry; returns (lifted, decls in registry order, issues)."""
    registry = DeclRegistry()
    lifted, _, issues = lift_declarations(t, base, registry, **kwargs)
    return lifted, list(registry.by_body.values()), issues


class TestLift:
    def test_nested_naming(self):
        t = finalize(fold_examples([{"user": {"id": 1}}]))[0]
        lifted, decls, issues = lift(t, ("CreateMsgRequest",))
        assert lifted == TRef("CreateMsgRequest")
        assert sorted(d.name for d in decls) == ["CreateMsgRequest", "CreateMsgRequestUser"]
        assert issues == []
        by_name = {d.name: d for d in decls}
        assert by_name["CreateMsgRequest"].body == obj(("user", TRef("CreateMsgRequestUser"), True))

    def test_scalar_passthrough(self):
        lifted, decls, issues = lift(T_INT, ("X",))
        assert lifted == T_INT and decls == [] and issues == []

    def test_array_hop_names_item(self):
        t = finalize(fold_examples([{"items": [{"id": 1}]}]))[0]
        _, decls, _ = lift(t, ("Resp",))
        assert sorted(d.name for d in decls) == ["Resp", "RespItemsItem"]

    def test_decls_come_children_first(self):
        t = finalize(fold_examples([{"a": {"b": {"c": 1}}}]))[0]
        _, decls, _ = lift(t, ("X",))
        assert [d.name for d in decls] == ["XAB", "XA", "X"]

    def test_a_hit_from_a_smaller_group_rehomes_in_place(self):
        shared = finalize(fold_examples([{"id": 1}]))[0]
        registry = DeclRegistry()
        lift_declarations(shared, ("Shared",), registry, group="b")
        lift_declarations(finalize(fold_examples([{"x": True}]))[0], ("Other",), registry, group="b")

        def homes():
            return [(d.name, d.group) for d in registry.by_body.values()]

        lift_declarations(shared, ("Again",), registry, group="a")
        assert homes() == [("Shared", "a"), ("Other", "b")]
        lift_declarations(shared, ("Late",), registry, group="c")
        assert homes() == [("Shared", "a"), ("Other", "b")]

    def test_replaying_a_trail_repeats_a_lift(self):
        raw = fold_examples([{"a": {"b": [{"c": 1}]}, "d": {"c": 1}}])
        walked, replayed = DeclRegistry(), DeclRegistry()
        for registry in (walked, replayed):
            lift_declarations(fold_examples([{"c": 1}]), ("Seed",), registry, group="m")
        trail = []
        first = lift_declarations(raw, ("First",), replayed, group="m", trail=trail)
        assert [suffix for suffix, _ in trail] == ["ABItem", "A", "D", ""]
        assert all(replayed.by_body[body].body is body for _, body in trail)
        lift_declarations(raw, ("First",), walked, group="m")

        again = lift_declarations(raw, ("Again",), walked, group="b")
        issues = replay(replayed, trail, ("Again",), "b")
        assert again == (first[0], first[1], issues)
        assert list(walked.by_body.values()) == list(replayed.by_body.values())
        assert {d.group for d in walked.by_body.values()} == {"b"}

    def test_texts_sharing_a_key_lift_one_string_for_it(self):
        docs = [
            parse_json('{"customer_id": 1, "owner": {"user_name": "a"}}'),
            parse_json('{"customer_id": "x", "user_name": true}'),
        ]
        keys = [list(doc) for doc in docs]
        assert keys[0][0] == keys[1][0] and keys[0][0] is not keys[1][0]
        registry = DeclRegistry()
        for i, doc in enumerate(docs):
            lift_declarations(fold_examples([doc]), (f"T{i}",), registry)
        first, second = [d for d in registry.by_body.values() if d.name in ("T0", "T1")]
        assert first.body.fields[0][0] is second.body.fields[0][0] == "customer_id"
        owner = next(d for d in registry.by_body.values() if d.name == "T0Owner")
        assert owner.body.fields[0][0] is second.body.fields[1][0] == "user_name"
        assert first.body.fields[1][0] is owner.pieces[1] == "owner"

    def test_lifts_leave_no_cyclic_garbage(self):
        raw = fold_examples([{"a": {"b": [1, {"c": []}]}, "d": [{"e": None}], "f": [[]]}])
        gc.collect()
        gc.disable()
        try:
            registry = DeclRegistry()
            for i in range(50):
                lift_declarations(raw, (f"T{i % 7}",), registry, group=f"g{i % 3}", trail=[])
                finalize(raw)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTypeOfParameter:
    def param(self, **kwargs):
        defaults = dict(name="p", convention=Convention.QUERY)
        defaults.update(kwargs)
        return Parameter(**defaults)

    def test_declared_type_table(self):
        cases = {
            "string": T_STRING, "integer": T_INT, "int": T_INT, "number": T_FLOAT,
            "boolean": T_BOOL, "array": TArray(T_ANY),
        }
        for declared, expected in cases.items():
            t, issues = type_of_parameter(self.param(declared_type=declared))
            assert t == expected and issues == [], declared

    def test_example_wins_over_declared(self):
        t, issues = type_of_parameter(self.param(declared_type="string", example=True))
        assert t == T_BOOL
        assert [i.code for i in issues] == ["W_PARAM_TYPE_CONFLICT"]
        assert issues[0].message == (
            "parameter 'p': example types as bool but docs declare 'string'; the example wins"
        )
        # A structured example reads in the neutral type grammar, not as a repr.
        t, issues = type_of_parameter(self.param(declared_type="integer", example={"x": [1]}))
        assert t == TObject((("x", TArray(T_INT), True),))
        assert [i.code for i in issues] == ["W_PARAM_TYPE_CONFLICT"]
        assert issues[0].message == (
            "parameter 'p': example types as {x: [int]} but docs declare 'integer'; "
            "the example wins"
        )

    def test_compatible_example_no_conflict(self):
        t, issues = type_of_parameter(self.param(declared_type="number", example=3))
        assert t == T_INT and issues == []

    def test_neither_present_defaults_to_string(self):
        t, issues = type_of_parameter(self.param())
        assert t == T_STRING
        assert [i.code for i in issues] == ["W_PARAM_TYPE_DEFAULTED"]

    def test_opaque_object(self):
        t, issues = type_of_parameter(self.param(declared_type="object"))
        assert t == TObject(())
        assert [i.code for i in issues] == ["W_PARAM_TYPE_OPAQUE"]

    def test_any_object_example_conforms_to_a_declared_object(self):
        # Like a declared array, a declared object says nothing of its contents.
        for example in ({"a": 1}, {}, {"a": {"b": [1]}, "c": None}):
            t, issues = type_of_parameter(self.param(declared_type="object", example=example))
            assert t == finalize(fold_examples([example]))[0]
            assert issues == [], example

    def test_a_non_object_example_conflicts_with_a_declared_object(self):
        for example, shown in ((3, "int"), (None, "null"), ([{"a": 1}], "[{a: int}]")):
            t, issues = type_of_parameter(self.param(declared_type="object", example=example))
            assert [i.code for i in issues] == ["W_PARAM_TYPE_CONFLICT"], example
            assert issues[0].message == (
                f"parameter 'p': example types as {shown} but docs declare 'object'; "
                "the example wins"
            )

    def test_unknown_declared_type_defaults(self):
        t, issues = type_of_parameter(self.param(declared_type="uuid"))
        assert t == T_STRING
        assert [i.code for i in issues] == ["W_PARAM_TYPE_DEFAULTED"]

    def test_empty_array_example_tagged(self):
        t, issues = type_of_parameter(self.param(example=[]))
        assert t == TArray(T_ANY)
        assert [i.code for i in issues] == ["W_EMPTY_ARRAY"]
        assert issues[0].message.endswith("empty array at $")

    def test_array_populated_by_a_sibling_not_tagged(self):
        t, issues = type_of_parameter(self.param(example=[[], [2]]))
        assert t == TArray(TArray(T_INT))
        assert issues == []


def test_empty_array_paths():
    # b's first item is populated by its second; the [] inside that one is not
    doc = {"a": [], "b": [[], [1, []]], "c": {"d": []}}
    assert finalize(fold_examples([doc]))[1] == ["$.a", "$.b[][]", "$.c.d"]


def test_empty_array_paths_quote_names_that_are_not_identifiers():
    # A dotted name and a nested one once gave the same path, and a line
    # break in a name ended a build note's line on stdout.
    assert finalize(fold_examples([{"a.b": []}]))[1] == ['$["a.b"]']
    assert finalize(fold_examples([{"a": {"b": []}}]))[1] == ["$.a.b"]
    doc = {"a\nnote r9: E_FAKE forged": [], "": [], "é": [{"_x1": []}], "2x": []}
    assert finalize(fold_examples([doc]))[1] == [
        '$[""]',
        '$["2x"]',
        '$["a\\nnote r9: E_FAKE forged"]',
        '$["\\u00e9"][]._x1',
    ]


# The isinstance-based kernels that exact-type dispatch replaced in
# ``_infer_raw`` and ``_Lift.walk``, kept as the reference they must agree with.
def _reference_infer_raw(value):
    if value is None:
        return T_NULL
    if isinstance(value, bool):
        return T_BOOL
    if isinstance(value, int):
        return T_INT
    if isinstance(value, float):
        return T_FLOAT
    if isinstance(value, str):
        return T_STRING
    if isinstance(value, list):
        elem = BOTTOM
        for item in value:
            elem = unify(elem, _reference_infer_raw(item))
        return TArray(elem)
    if isinstance(value, dict):
        return TObject(
            tuple((n, _reference_infer_raw(item), True) for n, item in sorted(value.items()))
        )
    raise TypeError(f"not a JSON value: {value!r}")


def _reference_fold(docs):
    result = BOTTOM
    for doc in docs:
        result = unify(result, _reference_infer_raw(doc))
    return result


def _hop(json_path, name):
    """``json_path`` one field further: ``.name`` for an ASCII identifier, else quoted."""
    plain = name.isascii() and name.isidentifier()
    return f"{json_path}.{name}" if plain else f"{json_path}[{json.dumps(name)}]"


class _ReferenceLift(typeinfer._Lift):
    def walk(self, node, suffix, hops, json_path="$"):
        if isinstance(node, TArray):
            if node.elem is BOTTOM:
                self.unpopulated.append(json_path)
            return TArray(self.walk(node.elem, suffix + "Item", hops + (None,), json_path + "[]"))
        if isinstance(node, TUnion):
            return TUnion(tuple(self.walk(b, suffix, hops, json_path) for b in node.branches))
        if isinstance(node, TObject):
            body = TObject(
                tuple(
                    (
                        n,
                        self.walk(t, suffix + n[:1].upper() + n[1:], hops + (n,), _hop(json_path, n)),
                        required,
                    )
                    for n, t, required in node.fields
                )
            )
            return body if self.registry is None else TRef(self.add_decl(body, suffix, hops))
        return T_ANY if node is BOTTOM else node


def _reference_lift(t, base, registry, *, group="misc", trail=None):
    lift = _ReferenceLift(registry, group, base, trail)
    return lift.walk(t, "", ()), lift.unpopulated, lift.issues


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, 2.0, -1.25]),
    st.sampled_from(["", "x", "yz"]),
)
_keys = st.sampled_from(["", "a", "b", "id", "items", "x-y"])
_json_docs = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),  # empty arrays included
        st.dictionaries(_keys, inner, max_size=4),
        st.lists(st.dictionaries(_keys, inner, max_size=3), min_size=1, max_size=3),
        st.lists(_scalars, min_size=1, max_size=3).map(lambda xs: xs * 2),  # repeated scalars
        st.lists(st.integers(-2, 2) | st.sampled_from([1.5, -0.0]), min_size=1, max_size=4),
        st.lists(st.lists(inner, max_size=2), max_size=2),  # nested arrays
    ),
    max_leaves=16,
)


class TestKernelsAgreeWithReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_json_docs, max_size=4), _json_docs)
    def test_fold_finalize_and_lift_agree(self, docs, seed_doc):
        raw = fold_examples(docs)
        assert raw == _reference_fold(docs)
        assert finalize(raw) == _reference_lift(raw, (), None)[:2]

        trail, reference_trail = [], []
        assert lift_declarations(raw, ("Resp",), None, trail=trail) == _reference_lift(
            raw, ("Resp",), None, trail=reference_trail
        )
        assert trail == reference_trail == []

        # A seeded registry makes some lookups shares, with issues and rehoming.
        registry, reference = DeclRegistry(), DeclRegistry()
        seed = fold_examples([seed_doc])
        lift_declarations(seed, ("Seed",), registry, group="m")
        _reference_lift(seed, ("Seed",), reference, group="m")
        for base, group in ((("Resp",), "b"), (("Again",), "a")):
            trail, reference_trail = [], []
            assert lift_declarations(
                raw, base, registry, group=group, trail=trail
            ) == _reference_lift(raw, base, reference, group=group, trail=reference_trail)
            assert trail == reference_trail
            assert list(registry.by_body.items()) == list(reference.by_body.items())
            assert registry.taken == reference.taken

    def test_only_exact_json_types_are_typed(self):
        # parse_json builds no subclass of a JSON type, so the fold takes none.
        class Count(int):
            pass

        for doc in (OrderedDict([("a", 1)]), {"a": [1, Count(2)]}, {"a": object()}):
            with pytest.raises(TypeError):
                fold_examples([doc])

    def test_a_bottom_field_lifts_to_any(self):
        hand_built = TObject((("a", BOTTOM, True), ("b", T_INT, False)))
        expected = TObject((("a", T_ANY, True), ("b", T_INT, False)))
        assert finalize(hand_built) == (expected, [])
        assert lift_declarations(hand_built, ("X",), None) == _reference_lift(hand_built, ("X",), None)

    def test_nodes_are_slotted(self):
        body = TObject((("a", TArray(T_INT), True),))
        decl = TypeDecl(name="X", pieces=("X",), body=body, group="g")
        for node in (T_INT, TArray(T_INT), body, TUnion((T_NULL, T_INT)), TRef("X"), decl):
            assert not hasattr(node, "__dict__"), node
        moved = decl._replace(group="h")
        for clone in (copy.copy(moved), copy.deepcopy(moved), pickle.loads(pickle.dumps(moved))):
            assert clone == moved and hash(clone) == hash(moved)

    def test_nodes_and_atoms_refuse_assignment(self):
        body = TObject((("a", TArray(T_INT), True),))
        nodes = {
            TArray(T_INT): "elem",
            body: "fields",
            TUnion((T_NULL, T_INT)): "branches",
            TRef("X"): "name",
            TypeDecl("X", ("X",), body, "g"): "group",
            **{atom: "label" for atom in TestAtoms.ATOMS},
        }
        for node, field in nodes.items():
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(node, name, T_ANY)
                with pytest.raises(AttributeError):
                    delattr(node, name)

    def test_a_union_needs_two_branches(self):
        for branches in ((), (T_INT,)):
            with pytest.raises(ValueError, match="at least two branches"):
                TUnion(branches)
        union = TUnion((T_NULL, T_INT))
        for clone in (copy.copy(union), copy.deepcopy(union), pickle.loads(pickle.dumps(union))):
            assert type(clone) is TUnion and clone == union


def _subnodes(t):
    """``t`` and every node inside it, parents first."""
    yield t
    if isinstance(t, TArray):
        yield from _subnodes(t.elem)
    elif isinstance(t, TUnion):
        for branch in t.branches:
            yield from _subnodes(branch)
    elif isinstance(t, TObject):
        for _, field_type, _ in t.fields:
            yield from _subnodes(field_type)


def _same_tree(a, b):
    """Equal node by node, of the same kind, with every atom the singleton itself."""
    if type(a) is not type(b):
        return False
    if type(a) is typeinfer._Atom:
        return a is b and a in TestAtoms.ATOMS
    if type(a) is TRef:
        return a == b
    if type(a) is TArray:
        return _same_tree(a.elem, b.elem)
    if type(a) is TUnion:
        return len(a) == len(b) and all(map(_same_tree, a.branches, b.branches))
    return len(a) == len(b) and all(
        n == m and r is s and _same_tree(t, u) for (n, t, r), (m, u, s) in zip(a.fields, b.fields)
    )


class TestNodesAreTuples:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_json_docs, max_size=3), st.lists(_json_docs, max_size=2))
    def test_kinds_stay_apart_and_copies_keep_atoms(self, docs, other_docs):
        raw = fold_examples(docs)
        registry = DeclRegistry()
        lifted = [
            lift_declarations(fold_examples(d), ("Resp",), registry)[0] for d in (docs, other_docs)
        ]
        trees = [raw, finalize(raw)[0], *lifted, *(decl.body for decl in registry.by_body.values())]
        # Hand-built neighbours: references named as a field or an atom, an
        # array of each atom, and the empty object.
        names = [name for tree in trees for node in _subnodes(tree)
                 if type(node) is TObject for name, _, _ in node.fields]
        names += [atom.label for atom in TestAtoms.ATOMS]
        neighbours = [*map(TRef, names), *map(TArray, TestAtoms.ATOMS), TObject(())]
        pool = {id(node): node for tree in trees for node in _subnodes(tree)}
        pool.update((id(node), node) for node in neighbours)

        nodes = list(pool.values())
        for a in nodes:
            for b in nodes:
                if type(a) is not type(b):
                    assert a != b and not a == b, (a, b)
            if type(a) is TObject and not a.fields:
                assert format_type(a) == "{}"
        assert format_type(TArray(TObject(()))) == "[{}]"

        for tree in trees:
            for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
                assert clone == tree and hash(clone) == hash(tree)
                assert _same_tree(clone, tree)
