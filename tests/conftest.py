"""Shared fixtures: the bibliography document of the tutorial's
examples, a small XMark instance, and engine helpers."""

from __future__ import annotations

import os

import pytest

from repro import Engine, execute_query
from repro.workloads import generate_xmark
from repro.xdm.build import parse_document

#: the CI matrix's storage leg: REPRO_TEST_STORE=disk makes every
#: catalog created without a path disk-backed (a fresh temp collection
#: per catalog), so the catalog/access-path/twig suites exercise the
#: persistent commit path of repro.storage.persist end to end
if os.environ.get("REPRO_TEST_STORE") == "disk":
    import atexit
    import shutil
    import tempfile

    import repro
    import repro.api
    from repro.catalog import DocumentCatalog

    _DISK_ROOT = tempfile.mkdtemp(prefix="repro-test-store-")
    atexit.register(shutil.rmtree, _DISK_ROOT, True)
    _counter = iter(range(10**9))

    def _disk_catalog(path=None, *, durability="sync"):
        if path is None:
            path = os.path.join(_DISK_ROOT, f"cat{next(_counter)}")
        return DocumentCatalog(path, durability=durability)

    repro.catalog = repro.api.catalog = _disk_catalog

BIB_XML = """<bib>
  <book year="1967">
    <title>The politics of experience</title>
    <author><first>Ronald</first><last>Laing</last></author>
    <publisher>Penguin</publisher>
    <price>20</price>
  </book>
  <book year="1998">
    <title>Data on the Web</title>
    <author><first>Serge</first><last>Abiteboul</last></author>
    <author><first>Dan</first><last>Suciu</last></author>
    <publisher>Morgan Kaufmann</publisher>
    <price>39.95</price>
  </book>
  <book year="1998">
    <title>XML Query</title>
    <author><first>D</first><last>F</last></author>
    <publisher>Springer Verlag</publisher>
    <price>55</price>
  </book>
</bib>"""


@pytest.fixture(scope="session")
def bib_xml() -> str:
    return BIB_XML


@pytest.fixture()
def bib_doc():
    return parse_document(BIB_XML)


@pytest.fixture(scope="session")
def xmark_small() -> str:
    return generate_xmark(scale=0.05, seed=1)


@pytest.fixture()
def engine() -> Engine:
    return Engine()


@pytest.fixture()
def run():
    """Run a query and return its Result."""
    return execute_query


@pytest.fixture()
def values(run):
    """Run a query, return atomized Python values."""
    def _values(query: str, **kwargs):
        return run(query, **kwargs).values()
    return _values


@pytest.fixture()
def serialize(run):
    def _serialize(query: str, **kwargs):
        return run(query, **kwargs).serialize()
    return _serialize
