import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

FIXTURES = REPO / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def a6():
    from reslat.fileformat import load_structure

    s, _ = load_structure(FIXTURES / "a6.json")
    return s


@pytest.fixture(scope="session")
def chain2():
    from reslat.fileformat import load_structure

    s, _ = load_structure(FIXTURES / "chain2.json")
    return s


@pytest.fixture(scope="session")
def chain3_godel():
    from reslat.fileformat import load_structure

    s, _ = load_structure(FIXTURES / "chain3-godel.json")
    return s


@pytest.fixture(scope="session")
def chain3_luk():
    from reslat.fileformat import load_structure

    s, _ = load_structure(FIXTURES / "chain3-luk.json")
    return s


@pytest.fixture(scope="session")
def census():
    """size -> the structures of the census of that size, for sizes 2 to 7."""
    from reslat.modelgen import SearchSpec, enumerate_residuated

    return {
        n: [r.structure for r in enumerate_residuated(SearchSpec(size=n))] for n in range(2, 8)
    }


def _chain3(**fields):
    """The chain 0 < x < 1 as a base-lattice file, with `fields` set."""
    return {"elements": ["0", "x", "1"], "bot": "0", "top": "1", **fields}


_CHAIN3_ORDER = [["0", "x"], ["x", "1"]]


def _meet_off_its_order():
    """a6's tables without an order, a meet c changed from 0 to a."""
    from reslat.fileformat import dump_structure, load_structure

    data = dump_structure(load_structure(FIXTURES / "a6.json")[0], "A6")
    del data["order"]
    data["meet"][1][3] = "a"
    return data


# name -> (builder of a base-lattice file, the first lattice axiom its
# tables fail, the witness of that failure)
BAD_BASE_LATTICES = {
    "top-not-greatest": (lambda: _chain3(top="x", order=_CHAIN3_ORDER), "top-greatest", "1"),
    "bot-not-least": (lambda: _chain3(bot="x", order=_CHAIN3_ORDER), "bottom-least", "0"),
    "join-not-commutative": (
        lambda: _chain3(
            join=[["0", "x", "1"], ["1", "x", "1"], ["1", "1", "1"]],
            meet=[["0", "0", "0"], ["0", "x", "x"], ["0", "x", "1"]],
        ),
        "join-commutative",
        "0,x",
    ),
    "meet-off-its-order": (_meet_off_its_order, "meet-commutative", "a,c"),
}


@pytest.fixture(params=sorted(BAD_BASE_LATTICES))
def bad_base_lattice(request, tmp_path):
    """(path, axiom, witness) of a base-lattice file whose tables are not
    the operations of a bounded lattice with its bot and top."""
    build, axiom, witness = BAD_BASE_LATTICES[request.param]
    path = tmp_path / f"{request.param}.json"
    path.write_text(json.dumps(build()))
    return path, axiom, witness
