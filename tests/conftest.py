import random

import pytest

from carptdsc import (
    FLAT_EVERYWHERE,
    all_pairs_shortest_paths,
    generate_td_parameters,
    parse_classic_dat,
)

from util import DATA, MICRO3LP_NAMES, _load


@pytest.fixture(scope="session")
def micro_a():
    return _load("micro_a")


@pytest.fixture(scope="session")
def micro_b():
    return _load("micro_b")


@pytest.fixture(scope="session")
def micro_oneway():
    return _load("micro_oneway")


@pytest.fixture(scope="session")
def micro_k05_c():
    return _load("micro3lp_k05_c")


@pytest.fixture(scope="session", params=MICRO3LP_NAMES)
def micro3lp(request):
    return _load(request.param)


@pytest.fixture(scope="session")
def gdb1_flat():
    base = parse_classic_dat(DATA / "gdb1.dat")
    inst = generate_td_parameters(base, "2LP", 1.0, FLAT_EVERYWHERE, seed=0)
    return inst, all_pairs_shortest_paths(inst)


@pytest.fixture(scope="session")
def gdb1_base():
    return parse_classic_dat(DATA / "gdb1.dat")


@pytest.fixture
def rng():
    return random.Random(0)
