from __future__ import annotations

from datetime import date

import pytest

from tqa.backend import shipped_fixtures
from tqa.corpus import shipped_testbed
from tqa.packs import get_pack

REF = date(2008, 1, 1)


@pytest.fixture(scope="session")
def en_pack():
    return get_pack("en")


@pytest.fixture(scope="session")
def es_pack():
    return get_pack("es")


@pytest.fixture(scope="session")
def testbed_en():
    return shipped_testbed("en")


@pytest.fixture(scope="session")
def testbed_es():
    return shipped_testbed("es")


@pytest.fixture(scope="session")
def fixtures_en():
    return shipped_fixtures("en")


@pytest.fixture(scope="session")
def fixtures_es():
    return shipped_fixtures("es")
