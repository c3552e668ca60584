from __future__ import annotations

import pytest

import chain_oracle
from e8nine import autgroup as ag
from e8nine import blocks as bl
from e8nine import frames as fr
from e8nine import gf2, serial
from e8nine.lattice import build_lattice
from e8nine.spreadsearch import find_spread


@pytest.fixture(scope="session")
def lat():
    return build_lattice()


@pytest.fixture(scope="session")
def ft(lat):
    return gf2.build_forms(lat)


@pytest.fixture(scope="session")
def census(lat, ft):
    return gf2.mod2_census(lat, ft)


@pytest.fixture(scope="session")
def spaces270(ft):
    return gf2.enumerate_isotropic_4spaces(ft)


@pytest.fixture(scope="session")
def labels(spaces270):
    return gf2.classify(spaces270)


@pytest.fixture(scope="session")
def members_a(labels):
    return gf2.class_members(labels, gf2.SpaceClass.CLASS_A)


@pytest.fixture(scope="session")
def spread(members_a):
    return find_spread(members_a, gf2.SpaceClass.CLASS_A)


@pytest.fixture(scope="session")
def frame_array(ft, census, spread):
    return fr.build_frame_array(ft, census, spread)


@pytest.fixture(scope="session")
def partition(lat, spread):
    return bl.build_partition(lat, spread)


@pytest.fixture(scope="session")
def block_of_vector(partition):
    """The block of each of the 2160 norm-4 vectors, read off the blocks."""
    return {v: b.row_index for b in partition.blocks for v in b.vectors}


@pytest.fixture(scope="session")
def class_block(lat, partition):
    """The certified block of each mod-2 class (`blocks.block_of_class_table`)."""
    return bl.block_of_class_table(lat, partition)


@pytest.fixture(scope="session")
def stab_result(lat, frame_array, class_block):
    return ag.compute_stabilizer(lat, frame_array, class_block)


@pytest.fixture(scope="session")
def oracle_chain(lat, stab_result):
    """The faithful 9 + 240 point chain of the stabilizer (`chain_oracle`)."""
    return chain_oracle.faithful_chain(lat, stab_result.isometries, stab_result.block_perms)


@pytest.fixture(scope="session")
def artifact_texts(spread, frame_array, partition, stab_result):
    """The text of each class-A artifact that the parsers read, by file name."""
    return {
        "spread.txt": serial.serialize_spread(spread),
        "frames.txt": serial.serialize_frames(frame_array),
        "partition.txt": serial.serialize_partition(partition),
        "generators.txt": serial.serialize_generators(
            list(stab_result.isometries), list(stab_result.block_perms)
        ),
    }
