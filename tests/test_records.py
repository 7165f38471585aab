"""The records are named tuples: their fields, repr, immutability, pickling,
and the checkpoint file they write."""

import pickle

import pytest

from pfib.arith import CrtSystem
from pfib.searchctl import Checkpoint, SearchResult, SearchTask, save_checkpoint
from pfib.seqcore import (
    ForwardStatus,
    GrowthReport,
    PfibSequence,
    PrimeAp,
    ReversedSequence,
    ReversedStatus,
    Seed,
    TripleCheck,
)

TASK = SearchTask(406507, 67, 10**12)
CHECKPOINT = Checkpoint(TASK, 393218, 6, 0.5)
TASK_REPR = "SearchTask(constraint_prime=406507, partner=67, bound=1000000000000)"
CHECKPOINT_REPR = (
    f"Checkpoint(task={TASK_REPR}, next_multiplier=393218, shards_done=6, "
    "wall_seconds=0.5)"
)

# (record, its field names in declaration order, its repr)
RECORDS = [
    (
        CrtSystem(((1, 3), (2, 5)), 15, 7),
        ("congruences", "combined_modulus", "solution"),
        "CrtSystem(congruences=((1, 3), (2, 5)), combined_modulus=15, solution=7)",
    ),
    (TASK, ("constraint_prime", "partner", "bound"), TASK_REPR),
    (
        CHECKPOINT,
        ("task", "next_multiplier", "shards_done", "wall_seconds"),
        CHECKPOINT_REPR,
    ),
    (
        SearchResult(CHECKPOINT, None),
        ("checkpoint", "prime"),
        f"SearchResult(checkpoint={CHECKPOINT_REPR}, prime=None)",
    ),
    (Seed(3, 5), ("p1", "p2"), "Seed(p1=3, p2=5)"),
    (
        PfibSequence((5, 7, 3, 5), ForwardStatus.TERMINATED, final_sum=8),
        ("terms", "status", "final_sum", "limit"),
        f"PfibSequence(terms=(5, 7, 3, 5), status={ForwardStatus.TERMINATED!r}, "
        "final_sum=8, limit=None)",
    ),
    (
        ReversedSequence((3, 5, 7), ReversedStatus.BOUND_EXHAUSTED, 3, 10),
        ("terms", "status", "at_index", "bound"),
        f"ReversedSequence(terms=(3, 5, 7), "
        f"status={ReversedStatus.BOUND_EXHAUSTED!r}, at_index=3, bound=10)",
    ),
    (
        PrimeAp(3, 2, 3),
        ("first", "difference", "length"),
        "PrimeAp(first=3, difference=2, length=3)",
    ),
    (
        TripleCheck(0, True, 4),
        ("index", "premise", "ratio"),
        "TripleCheck(index=0, premise=True, ratio=4)",
    ),
    (
        GrowthReport((TripleCheck(0, True, 4),), 1, (0.5,), 1.5),
        ("triples", "longest_monotone_run", "log2_ratios", "alpha"),
        "GrowthReport(triples=(TripleCheck(index=0, premise=True, ratio=4),), "
        "longest_monotone_run=1, log2_ratios=(0.5,), alpha=1.5)",
    ),
]


@pytest.mark.parametrize(
    "record,fields,text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_contract(record, fields, text):
    assert type(record)._fields == fields
    assert tuple(type(record).__annotations__) == fields  # the typed fields
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


@pytest.mark.parametrize("record,bad,message,good,expected", [
    (Seed(3, 5), {"p2": 9}, "not an odd prime", {"p2": 7}, Seed(3, 7)),
    (TASK, {"bound": 0}, "bound must be an integer", {"bound": 10},
     SearchTask(406507, 67, 10)),
    (PrimeAp(3, 2, 3), {"length": 4}, "not prime", {"length": 2},
     PrimeAp(3, 2, 2)),
])
def test_replace_keeps_the_checks(record, bad, message, good, expected):
    # namedtuple's own _replace would skip __new__, and so the checks
    with pytest.raises(ValueError, match=message):
        record._replace(**bad)
    replaced = record._replace(**good)
    assert replaced == expected and type(replaced) is type(record)


def test_checkpoint_file_bytes(tmp_path):
    path = tmp_path / "cp.json"
    save_checkpoint(CHECKPOINT, str(path))
    assert path.read_bytes() == (
        b'{"format_version": 3, "task": {"constraint_prime": 406507, '
        b'"partner": 67, "bound": 1000000000000}, "next_multiplier": 393218, '
        b'"shards_done": 6, "wall_seconds": 0.5}'
    )
