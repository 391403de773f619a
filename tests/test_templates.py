from __future__ import annotations

import time

import pytest

from apibind.templates import (
    NEUTRAL_TEMPLATES,
    Template,
    TemplateError,
    TemplateSet,
)


def test_substitution():
    tpl = Template("t", "hello {{name}}!")
    assert tpl.render({"name": "world"}) == "hello world!"


def test_repetition():
    tpl = Template("t", "{{#items}}{{x}},{{/items}}")
    assert tpl.render({"items": [{"x": "a"}, {"x": "b"}]}) == "a,b,"
    assert tpl.render({"items": []}) == ""


def test_nested_sections_and_context_stack():
    tpl = Template("t", "{{#outer}}{{top}}-{{x}}:{{#inner}}{{x}}{{y}} {{/inner}};{{/outer}}")
    context = {
        "top": "T",
        "outer": [{"x": "o1", "inner": [{"y": "i1"}, {"x": "i2x", "y": "i2"}]}],
    }
    # inner frames shadow outer ones; missing keys fall outward
    assert tpl.render(context) == "T-o1:o1i1 i2xi2 ;"


def test_section_item_shadows_only_inside_the_section():
    tpl = Template("t", "{{x}}[{{#items}}{{x}}{{y}};{{/items}}]{{x}}")
    first, second = {"x": "in", "y": "1"}, {"y": "2"}
    context = {"x": "out", "y": "0", "items": [first, second]}
    assert tpl.render(context) == "out[in1;out2;]out"
    assert first == {"x": "in", "y": "1"} and second == {"y": "2"}
    assert context == {"x": "out", "y": "0", "items": [first, second]}


def test_unknown_placeholder_is_error():
    tpl = Template("broken.tpl", "{{nope}}")
    with pytest.raises(TemplateError) as exc:
        tpl.render({})
    assert "broken.tpl" in str(exc.value)
    assert "nope" in str(exc.value)


def test_section_requires_list_of_dicts():
    tpl = Template("t", "{{#x}}{{/x}}")
    with pytest.raises(TemplateError):
        tpl.render({"x": "not-a-list"})
    with pytest.raises(TemplateError):
        tpl.render({"x": ["scalar"]})


def test_unclosed_section_rejected_at_parse():
    with pytest.raises(TemplateError):
        Template("t", "{{#open}}never closed")
    with pytest.raises(TemplateError):
        Template("t", "{{#a}}{{/b}}")


@pytest.mark.parametrize(
    "source, stray",
    [("{{/x}}", "{{/x}}"), ("a{{#x}}{{/x}}{{/x}}", "{{/x}}"), ("{{#x}}{{/x}}{{/y}}", "{{/y}}")],
)
def test_stray_close_names_itself(source, stray):
    with pytest.raises(TemplateError) as exc:
        Template("t.tpl", source)
    assert str(exc.value) == f"template 't.tpl': {stray} closes no open section"


def test_mismatched_close_names_both_sections():
    with pytest.raises(TemplateError) as exc:
        Template("t.tpl", "{{#a}}{{#b}}{{/a}}{{/b}}")
    assert str(exc.value) == "template 't.tpl': section 'b' closed as 'a'"


@pytest.mark.parametrize(
    "source, tag",
    [
        ("a {{ name }} b", "{{ name }}"),
        ("{{name-x}}", "{{name-x}}"),
        ("{{#a b}}{{/a b}}", "{{#a b}}"),
        ("{{}}", "{{}}"),
        ("{{{name}}}", "{{{name}}"),
        ("{{#}}{{/}}", "{{#}}"),
        ("{{/ x}}", "{{/ x}}"),
        ("{{x}}{{a\nb}}", "{{a\nb}}"),
    ],
)
def test_every_double_brace_pair_is_a_tag_or_an_error(source, tag):
    with pytest.raises(TemplateError) as exc:
        Template("t.tpl", source)
    assert str(exc.value) == (
        f"template 't.tpl': malformed tag {tag!r}; a tag name is letters, digits and _"
    )


def test_a_long_malformed_tag_is_quoted_cut():
    # The stray "{{" runs to the only "}}", so the tag spans the whole source.
    with pytest.raises(TemplateError) as exc:
        Template("t.tpl", "{{" * 32_000 + "}}")
    message = str(exc.value)
    assert len(message.encode("utf-8")) < 300, len(message)
    assert message == (
        f"template 't.tpl': malformed tag {'{' * 60 + '…'!r}; a tag name is letters, digits and _"
    )


def test_double_braces_without_a_close_stay_text_and_parse_in_linear_time():
    tpl = Template("t", "{{n}}} and {{ b } {{")
    assert tpl.render({"n": "N"}) == "N} and {{ b } {{"
    # A scan for "}}" from each of these "{{" to the end would take seconds
    # (about 13 s for this source); one pass takes well under a millisecond.
    start = time.perf_counter()
    assert Template("t", "{{n}}" + "{{" * 20_000).render({"n": "N"}) == "N" + "{{" * 20_000
    assert time.perf_counter() - start < 1


def test_numbers_render():
    tpl = Template("t", "{{n}}/{{f}}")
    assert tpl.render({"n": 3, "f": 2.5}) == "3/2.5"


def test_incomplete_set_rejected():
    sources = dict(NEUTRAL_TEMPLATES)
    del sources["module.tpl"]
    with pytest.raises(TemplateError) as exc:
        TemplateSet.from_sources(sources)
    assert "module.tpl" in str(exc.value)


def test_load_dir(tmp_path):
    for name, source in NEUTRAL_TEMPLATES.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    ts = TemplateSet.load_dir(tmp_path)
    assert ts.manifest.render(
        {
            "package_name": "p",
            "package_version": "v",
            "corpus_digest": "d",
            "function_count": 0,
            "type_count": 0,
            "modules": [],
        }
    ).startswith("package p\n")


def test_load_dir_missing_file(tmp_path):
    with pytest.raises(TemplateError):
        TemplateSet.load_dir(tmp_path)
