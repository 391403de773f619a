"""The closed vocabularies are ``StrEnum``s: a member is the text every output writes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from apibind.curl import BodyKind, HttpMethod
from apibind.issues import Severity, Stage
from apibind.params import Convention
from apibind.templates import TemplateSet

VOCABULARIES = [HttpMethod, BodyKind, Convention, Stage, Severity]


@pytest.mark.parametrize("vocabulary", VOCABULARIES, ids=lambda v: v.__name__)
def test_a_member_is_its_text(vocabulary):
    module = TemplateSet.neutral().module
    for member in vocabulary:
        text = member.value
        assert member == text and hash(member) == hash(text)
        assert json.dumps({member: [member]}) == json.dumps({text: [text]})
        line = io.StringIO()
        csv.writer(line).writerow([member, "x"])
        assert line.getvalue() == f"{text},x\r\n"
        assert f"{member}|{member:>12}" == f"{text}|{text:>12}"
        context = {"module_name": member, "package_name": "p", "package_version": "1"}
        rendered = module.render({**context, "types": [], "functions": []})
        assert rendered == f"module {text}\npackage p 1\n\n"
