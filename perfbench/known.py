"""Known answers that do not come from the code being timed.

Three sources feed the correctness gate:

* the paper's statements, restated here as closed forms (witness and
  upper crossing counts, IC vertex counts, full coverage, the counting
  bound never exceeding the witness count);
* the brute-force oracles in the repository's ``tests/oracles.py``,
  imported read-only;
* a capacity-k augmenting-path assignment for k-gap-planarity, used where
  the oracles' 2^c enumeration would not finish.

Nothing here runs inside a timed region.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

FAN_KINDS = ("adjacency-crossing", "fan-crossing", "weak-fan-planar",
             "strong-fan-planar")

# Structural k of the concepts that take no parameter (IC and NIC pick one
# path per crossing, NNIC two, the fan constructions one).
IMPLIED_K = {"ic": 1, "nic": 1, "nnic": 2, **{kind: 1 for kind in FAN_KINDS}}


def structural_k(kind: str, k: int | None) -> int:
    return IMPLIED_K[kind] if k is None else k


def witness_crossings(kind: str, ell: int, k: int) -> int:
    """Crossings of the paper's witness drawing (k is the structural k)."""
    if kind in ("k-planar", "k-vertex-planar", "k-fan-crossing-free", "nnic"):
        return (ell * k) ** 2
    if kind in ("ic", "nic"):
        return ell * ell
    if kind in FAN_KINDS:
        return ell * ell + 54      # the two K7 gadgets add a fixed 54
    if kind == "k-edge-crossing":
        return (k // 2) ** 2
    if kind == "k-gap-planar":
        return 5 * ell * k * k
    if kind == "k-apex":
        return (ell * k) ** 2 + k
    if kind == "skewness":
        return ell * k * k + k
    raise ValueError(kind)


def upper_crossings(kind: str, ell: int, k: int) -> int:
    """Crossings of the paper's upper drawing (k is the structural k)."""
    if kind in ("k-planar", "k-vertex-planar", "k-apex", "skewness"):
        return k + 1
    if kind in ("ic", "nic"):
        return 2
    if kind in ("nnic", "k-fan-crossing-free"):
        return 2 * k
    if kind in FAN_KINDS:
        return 60
    if kind == "k-edge-crossing":
        return k
    if kind == "k-gap-planar":
        return 25 * k * k
    raise ValueError(kind)


def ic_vertices(ell: int) -> int:
    """IC framework graphs have 4*ell^2 + 12 vertices."""
    return 4 * ell * ell + 12


def load_oracles(root: Path):
    """The repository's brute-force oracles, imported without copying."""
    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles
    return oracles


def gap_ok(xs, k: int) -> bool:
    """k-gap-planarity by augmenting paths over a capacity-k assignment.

    Each crossing is charged to one of its edges; an edge takes at most k
    charges.  A new crossing either finds a free edge or moves an already
    charged crossing along an alternating path (breadth first).
    """
    xs = list(xs)
    charged: dict = {}                 # edge -> list of crossing indexes
    for i, x in enumerate(xs):
        start = {x.a, x.b}
        parent = {e: None for e in start}
        queue = deque(start)
        free = None
        while queue:
            e = queue.popleft()
            if len(charged.get(e, ())) < k:
                free = e
                break
            for j in charged[e]:
                y = xs[j]
                f = y.b if y.a == e else y.a
                if f not in parent:
                    parent[f] = (e, j)
                    queue.append(f)
        if free is None:
            return False
        e = free
        while parent[e] is not None:
            prev, j = parent[e]
            charged[prev].remove(j)
            charged.setdefault(e, []).append(j)
            e = prev
        charged.setdefault(e, []).append(i)
    return True


def verdict_oracles(oracles, xs, kind: str, k: int | None):
    """Expected checker verdict from an oracle, or None where none exists.

    The fan family (ac, fc, wfp, sfp) has no oracle; its verdicts are held
    to the implication chain sfp => wfp => fc => ac instead.
    """
    if kind == "k-planar":
        return oracles.kpl_ok(xs, k)
    if kind == "k-vertex-planar":
        return oracles.kvp_ok(xs, k)
    if kind == "ic":
        return oracles.shared_endpoints_ok(xs, 0)
    if kind == "nic":
        return oracles.shared_endpoints_ok(xs, 1)
    if kind == "nnic":
        return oracles.simple_ok(xs) and oracles.shared_endpoints_ok(xs, 2)
    if kind == "k-fan-crossing-free":
        return oracles.kfcf_ok(xs, k)
    if kind == "k-edge-crossing":
        return oracles.ecr_ok(xs, k)
    if kind == "k-gap-planar":
        return oracles.gap_ok_brute(xs, k) if len(xs) <= 16 else gap_ok(xs, k)
    if kind == "k-apex":
        return oracles.apex_ok_brute(xs, k)
    if kind == "skewness":
        return oracles.skew_ok_brute(xs, k)
    return None


def fan_chain_breaks(ok: dict) -> list[str]:
    """Violations of sfp => wfp => fc => ac among one drawing's verdicts."""
    chain = ("strong-fan-planar", "weak-fan-planar", "fan-crossing",
             "adjacency-crossing")
    return [f"{stronger} holds but {weaker} fails"
            for stronger, weaker in zip(chain, chain[1:])
            if ok.get(stronger) and ok.get(weaker) is False]
