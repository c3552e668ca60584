"""What importing e8nine costs, and the record semantics the artifacts rely on."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import e8nine
from e8nine import cli, serial
from e8nine.autgroup import BlockAction, OneBlockReport, SearchSource
from e8nine.blocks import Norm4Block, Norm4Partition
from e8nine.certs import Check
from e8nine.frames import Frame, FrameArray, PairCensus
from e8nine.gf2 import F2Subspace, FormTable, Mod2Census
from e8nine.lattice import Lattice, build_lattice
from e8nine.spreadsearch import Spread

# Standard-library modules that each cost milliseconds to import and that no
# e8nine run needs at import time: dataclasses pulls in inspect (and with it
# ast, dis and tokenize), fractions pulls in decimal, and json serves --json
# output only.
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "json")

_PROBE = """
import sys
before = set(sys.modules)
import e8nine.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""

IMMUTABLE_RECORDS = (
    Check,
    Lattice,
    FormTable,
    F2Subspace,
    Mod2Census,
    Spread,
    Frame,
    FrameArray,
    PairCensus,
    Norm4Block,
    Norm4Partition,
    BlockAction,
    SearchSource,
    OneBlockReport,
)


def test_import_loads_no_heavy_stdlib_module():
    # A fresh interpreter: this process has imported all of them already.
    src = os.path.dirname(os.path.dirname(os.path.abspath(e8nine.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    added = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "e8nine.cli" in added
    assert [m for m in HEAVY if m in added] == []


def test_f2subspace_repr_is_its_rows_alone():
    # certificates.txt embeds this repr (the round-trip stage's checks).
    space = F2Subspace(rows=(0x03, 0x0C))
    assert repr(space) == "F2Subspace(rows=(3, 12))"
    assert space.mask == (1 << 3) | (1 << 12) | (1 << 15)
    assert repr(space) == "F2Subspace(rows=(3, 12))"
    assert F2Subspace._fields == ("rows",)


def test_f2subspace_order_equality_and_hash_follow_rows(spread):
    spaces = list(spread.spaces)
    assert sorted(spaces) == [F2Subspace(rows=r) for r in sorted(s.rows for s in spaces)]
    a, b = sorted(spaces)[:2]
    assert a < b and not b < a and a.rows < b.rows
    fresh = F2Subspace(rows=a.rows)
    fresh.mask  # cached on one of the two equal spaces only
    assert fresh == a and hash(fresh) == hash(a) and {fresh: 0}[a] == 0


@pytest.mark.parametrize("record", IMMUTABLE_RECORDS, ids=lambda r: r.__name__)
def test_record_fields_cannot_be_assigned(record):
    obj = record(*range(len(record._fields)))
    with pytest.raises(AttributeError):
        setattr(obj, record._fields[0], None)
    assert obj._replace(**{record._fields[0]: None})[0] is None


def test_pipeline_state_by_keyword_runs_the_group_stage(stab_result, spread, frame_array, partition):
    # The group workload's order: a keyword state from parsed artifacts, the
    # two shells warm, then stage_group alone.
    state = cli.PipelineState(
        lat=build_lattice(),
        spread=serial.parse_spread(serial.serialize_spread(spread)),
        arr=serial.parse_frames(serial.serialize_frames(frame_array)),
        partition=serial.parse_partition(serial.serialize_partition(partition)),
    )
    assert (state.ft, state.stab, state.certificates) == (None, None, [])
    cert = cli.stage_group(state)
    assert cert.passed and state.certificates == [cert] and cert.wall_time_ms >= 0
    assert serial.serialize_generators(
        list(state.stab.isometries), list(state.stab.block_perms)
    ) == serial.serialize_generators(list(stab_result.isometries), list(stab_result.block_perms))
