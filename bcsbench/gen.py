"""Seeded inputs for the three workloads.

Every workload is a sequence of *cycles*.  A cycle has a fixed shape (how
many ops of each kind and size band), and the seed fills in the details:
which total budget of a band, which command, the op order, the positions
and the cells sampled for the oracle.  Runs with different seeds therefore
do the same amount of work per cycle, which is what lets ten seeds agree
on throughput and latency, while no two seeds send the same inputs.

The ``tb`` ranges are sized for the cubic row kernel of ``bcs.solver``:
at ``tb = 48`` one ``bcs limits`` already takes more than a second.
"""

from __future__ import annotations

import hashlib
import json
import random

# limits: every command on both members of each band in every cycle, so
# every cycle runs the alpha mode and both beta residue modes, and every
# cycle, whatever the seed, holds the same commands on the same budgets.
LIMITS_BANDS = ((24, 25), (36, 37), (47, 48))
LIMITS_COMMANDS = ("limits", "conjecture", "solve")

# verify: ``check --with-oracle`` bands, tables written at set-up, rulesets.
VERIFY_ORACLE_BANDS = ((8, 9), (12, 13), (16, 17), (19, 20))
VERIFY_TABLE_BANDS = ((10, 11), (14, 15))
VERIFY_RULESET_TB = (4, 10)
VERIFY_RULESET_HEAPS = (8, 24)

# engine: one solved table per band, moves round-robin over the tables.
ENGINE_BANDS = ((24, 25), (36, 37), (47, 48))
ENGINE_MOVES_PER_CYCLE = 600
ENGINE_SMALL_HEAP = 8  # heaps this small are cheap enough for the oracle
ENGINE_SMALL_EVERY = 16  # one move in this many is drawn from a small heap

ORACLE_HEAP_MAX = 8
ORACLE_CELLS_PER_SOLVE = 4

ZUGZWANG_RULESET = """\
node a
node b terminal 0      # penalty when an auction winner is stuck here
edge R a b 1           # Right move a -> b adds +1 to the score
tb 1
bids all
"""


def convergence_bound(tb: int) -> int:
    """``B(tb)`` as the paper states it (kept apart from ``bcs.automaton``)."""
    half = tb // 2
    if tb % 2 == 0:
        return 1 + (half + 1) * half - half
    return 1 + (half + 1) ** 2 - half


def _rng(seed: int, *stream: object) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(s) for s in stream))


def digest(items: object) -> str:
    """Stable short digest of a JSON-serialisable input list."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _oracle_cells(rng: random.Random, tb: int) -> list[list]:
    return [
        [rng.randint(0, ORACLE_HEAP_MAX), rng.randint(0, tb), rng.choice("LR")]
        for _ in range(ORACLE_CELLS_PER_SOLVE)
    ]


def limits_cycle(seed: int, k: int) -> list[dict]:
    """Cycle ``k`` of the ``limits`` workload: every command on both members
    of each band, in an order the seed picks."""
    rng = _rng(seed, "limits", k)
    ops = []
    for tb in (tb for band in LIMITS_BANDS for tb in band):
        for command in LIMITS_COMMANDS:
            if command == "solve":
                x_max = str(convergence_bound(tb) + 2)
                argv = ["solve", "--tb", str(tb), "--x-max", x_max]
            else:
                argv = [command, "--tb", str(tb)]
            op = {"kind": command, "tb": tb, "argv": argv + ["--format", "json"]}
            if command == "solve":
                op["oracle_cells"] = _oracle_cells(rng, tb)
            ops.append(op)
    rng.shuffle(ops)
    return ops


def verify_files(seed: int) -> dict:
    """What ``verify`` writes at set-up: two solved tables and three rulesets."""
    rng = _rng(seed, "verify-files")
    tables = [rng.choice(band) for band in VERIFY_TABLE_BANDS]
    rulesets = []
    for _ in range(2):
        tb = rng.randint(*VERIFY_RULESET_TB)
        heaps = rng.randint(*VERIFY_RULESET_HEAPS)
        text = unitary_ruleset_text(tb, heaps)
        rulesets.append({"name": f"unitary_tb{tb}_x{heaps}", "text": text})
    rulesets.append({"name": "zugzwang", "text": ZUGZWANG_RULESET})
    return {"tables": tables, "rulesets": rulesets}


def unitary_ruleset_text(tb: int, heaps: int) -> str:
    """The unit-removal game on heaps ``0..heaps`` in the ruleset file format,
    shaped like ``bcs.general.make_unitary_ruleset``."""
    lines = [f"node {x}" for x in range(1, heaps + 1)] + ["node 0 terminal 0"]
    for x in range(1, heaps + 1):
        lines.append(f"edge L {x} {x - 1} 1")
        lines.append(f"edge R {x} {x - 1} -1")
    lines += [f"tb {tb}", "bids all"]
    return "\n".join(lines) + "\n"


def verify_cycle(seed: int, k: int, files: dict) -> list[dict]:
    """Cycle ``k`` of ``verify``: oracle checks, table ingest, rulesets.

    ``files`` maps ``"tables"`` to ``[(tb, path), ...]`` and ``"rulesets"``
    to ``[(name, path), ...]`` as written at set-up.
    """
    first = _rng(seed, "verify-parity")
    starts = [first.randrange(2) for _ in VERIFY_ORACLE_BANDS]
    rng = _rng(seed, "verify", k)
    ops = []
    for band, start in zip(VERIFY_ORACLE_BANDS, starts):
        tb = band[(start + k) % 2]  # members alternate, so runs stay balanced
        argv = ["check", "--tb", str(tb), "--with-oracle", "--format", "json"]
        ops.append({"kind": "check_oracle", "tb": tb, "argv": argv})
    for tb, path in files["tables"]:
        argv = ["check", "--from-json", path, "--format", "json"]
        ops.append({"kind": "check_json", "tb": tb, "argv": argv})
    for name, path in files["rulesets"]:
        argv = ["check", "--ruleset", path, "--format", "json"]
        ops.append({"kind": "check_ruleset", "ruleset": name, "argv": argv})
    rng.shuffle(ops)
    return ops


def engine_tables(seed: int) -> list[int]:
    """Total budgets of the tables the engine session solves at set-up."""
    rng = _rng(seed, "engine-tables")
    return [rng.choice(band) for band in ENGINE_BANDS]


def engine_cycle(seed: int, k: int, tables: list[int]) -> list[list]:
    """Cycle ``k`` of ``engine``: moves ``[tb, heap, p, marker, tie_bid]``.

    Heaps are uniform over ``1..B(tb)+2``, so they fall before and after
    the heap where the rows stabilize; one move in ``ENGINE_SMALL_EVERY``
    is drawn from a heap small enough for the oracle to check.
    """
    rng = _rng(seed, "engine", k)
    moves = []
    for i in range(ENGINE_MOVES_PER_CYCLE):
        tb = tables[i % len(tables)]
        if i % ENGINE_SMALL_EVERY == 0:
            heap = rng.randint(1, ENGINE_SMALL_HEAP)
        else:
            heap = rng.randint(1, convergence_bound(tb) + 2)
        p = rng.randint(0, tb)
        marker = rng.choice("LR")
        tie = rng.randint(0, min(p, tb - p))
        moves.append([tb, heap, p, marker, tie])
    return moves
