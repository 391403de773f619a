from __future__ import annotations

import warnings
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def corpus12_path() -> Path:
    return DATA_DIR / "corpus12.csv"


@pytest.fixture
def analyzed12(corpus12_path):
    from apibind.ingest import load_corpus
    from apibind.parse import parse_record
    from apibind.validate import cross_validate

    return [cross_validate(parse_record(r)) for r in load_corpus(corpus12_path)]


@pytest.hookimpl(hookwrapper=True, trylast=True)
def pytest_runtest_makereport(item):
    """Let a failing Hypothesis property report its example under ``-W error``.

    For a failing property, Hypothesis's own report wrapper, whose teardown
    runs after this one's, imports ``hypothesis.extra._patching``. That import
    loads ``libcst``, which raises a ``DeprecationWarning``, and
    ``filterwarnings = ["error"]`` turns it into an INTERNALERROR that hides
    the example. Importing the module here first, with that warning ignored,
    leaves the later import nothing to raise. It is imported only on failure:
    the import costs about 0.36 s.
    """
    yield
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            import hypothesis.extra._patching  # noqa: F401
