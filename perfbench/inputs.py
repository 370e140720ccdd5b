"""Seeded input lists for the benchmark workloads.

Nothing here imports troplift: every input is drawn by the benchmark's
own generators from the workload seed, so no change to the program can
change which inputs a workload runs.  Matrices are lists of rows of
Fractions; an input is a dict with the matrix, its kind and the request.

Generators:
  * symbic tree matrices: a fixed path with mirrored branch pairs; red i
    and blue i are swapped by the tree's mirror, so -d(red_i, blue_j)/2
    plus a symmetric scaling is a symmetric tropical rank <= 2 matrix;
  * bicolored tree matrices: a three-legged metric tree with red and blue
    marks, -d(red_i, blue_j)/2 plus a row/column scaling (tropical rank
    <= 2, no caterpillar);
  * min-plus products B ⊙ C through two inner dimensions and mirror
    products M ⊙ M^T (Barvinok rank <= 2, caterpillar trees);
  * generic symmetric matrices with small integer entries, so ties occur.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import deque
from fractions import Fraction

from checks import sym_tie_size

DECIDE_N = 5
POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "lift_solve_pool.json")
LIFT_SOLVE_PLAN = (("corank1", "R+"), ("sym_corank1", "R"), ("sym_corank1", "R+"))
LIFT_EXACT_SHAPES = {"rank2": (4, 5), "sym_rank2": (4, 4)}
MODES = ("C", "R", "C+", "R+")
VARIETIES = ("rank2", "sym_rank2", "corank1", "sym_corank1")


def workload_rng(workload: str, seed: int) -> random.Random:
    h = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def min_plus(b, c):
    return [
        [min(b[i][k] + c[k][j] for k in range(len(c))) for j in range(len(c[0]))]
        for i in range(len(b))
    ]


def transpose(m):
    return [list(r) for r in zip(*m)]


def half(rng, lo=-4, hi=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2)))


def _tree_distances(adj: dict, marks: list) -> list:
    """Distances from each marked node to every node of a weighted tree."""
    out = []
    for s in marks:
        dist = {s: Fraction(0)}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y, w in adj[x].items():
                if y not in dist:
                    dist[y] = dist[x] + w
                    queue.append(y)
        out.append(dist)
    return out


def _add_edge(adj, u, v, w):
    adj.setdefault(u, {})[v] = w
    adj.setdefault(v, {})[u] = w


def symbic_tree_matrix(rng, n):
    """Symmetric tropical rank <= 2 matrix from a mirror-symmetric tree.

    The fixed path holds nodes 0..L-1.  A branch group hangs two mirrored
    arms of equal length off one path node; arm A carries blue i and red j,
    arm B carries red i and blue j, and the mirror swaps the arms.  Some
    arms fork once more into mirrored sub-arms, which gives the deeper
    cancellations of non-caterpillar trees.  Pairs left over sit on the
    path with red k and blue k at one node.
    """
    adj: dict = {}
    length = rng.randint(1, 3)
    for u in range(length):
        adj[u] = {}
    for u in range(1, length):
        _add_edge(adj, u - 1, u, Fraction(rng.randint(1, 3)))
    nxt = length
    idx = list(range(n))
    rng.shuffle(idx)
    red = [None] * n
    blue = [None] * n
    for _ in range(rng.randint(1, n // 2)):
        i, j = idx.pop(), idx.pop()
        w = rng.randrange(length)
        arm = Fraction(rng.randint(1, 3))
        a, b = nxt, nxt + 1
        nxt += 2
        _add_edge(adj, w, a, arm)
        _add_edge(adj, w, b, arm)
        if rng.random() < 0.5:
            sub = Fraction(rng.randint(1, 2))
            a2, b2 = nxt, nxt + 1
            nxt += 2
            _add_edge(adj, a, a2, sub)
            _add_edge(adj, b, b2, sub)
            a, b = a2, b2
        blue[i], red[j] = a, a
        red[i], blue[j] = b, b
    for k in idx:
        red[k] = blue[k] = rng.randrange(length)
    dist = _tree_distances(adj, red)
    shift = [half(rng, -3, 3) for _ in range(n)]
    return [
        [-dist[i][blue[j]] / 2 + shift[i] + shift[j] for j in range(n)] for i in range(n)
    ]


def bicolored_tree_matrix(rng, d, n):
    """Tropical rank <= 2 matrix with a branching tree: three legs of one
    or two edges meet at a centre, and each leg end carries a red and a
    blue mark, so the tree is no caterpillar.  The other marks sit on
    random nodes.  Entries are -d(red_i, blue_j)/2 plus a random row and
    column scaling."""
    adj: dict = {0: {}}
    ends = []
    for _ in range(3):
        prev = 0
        for _ in range(rng.randint(1, 2)):
            node = len(adj)
            _add_edge(adj, prev, node, Fraction(rng.randint(1, 3)))
            prev = node
        ends.append(prev)
    nodes = list(adj)
    red = [rng.choice(nodes) for _ in range(d)]
    blue = [rng.choice(nodes) for _ in range(n)]
    for k, end in enumerate(ends):
        red[k] = blue[k] = end
    rng.shuffle(red)
    rng.shuffle(blue)
    dist = _tree_distances(adj, red)
    rows = [half(rng) for _ in range(d)]
    cols = [half(rng) for _ in range(n)]
    return [
        [-dist[i][blue[j]] / 2 + rows[i] + cols[j] for j in range(n)] for i in range(d)
    ]


def barvinok2_matrix(rng, d, n):
    b = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(d)]
    c = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(2)]
    return min_plus(b, c)


def mirror_product(rng, n):
    m = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(n)]
    return min_plus(m, transpose(m))


def generic_symmetric(rng, n, hi=3):
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = Fraction(rng.randint(0, hi))
    return a


# Tie-set size: the number of monomial classes of the symmetric
# determinant that attain its minimum.  It sets the length of the
# Newton-edge loop, which dominates a decision.  Each kind fills a round
# of 20 slots with these (low, high, slots) buckets, close to the sizes
# the generators give unconstrained, so every run has the same make-up.
DECIDE_KINDS = ("generic", "symbic_tree", "generic", "mirror_product")
TIE_BUCKETS = {
    "generic": ((1, 1, 11), (2, 2, 4), (3, 4, 3), (5, 120, 2)),
    "symbic_tree": ((1, 18, 7), (19, 30, 2), (31, 39, 7), (40, 120, 4)),
    "mirror_product": ((1, 10, 7), (11, 17, 6), (18, 33, 5), (34, 120, 2)),
}
# 80 operations hold two rounds of generic slots and one of each tree kind
DECIDE_ROUND = 20 * len(DECIDE_KINDS)


def decide_inputs(seed: int, count: int) -> list:
    """One 5x5 symmetric matrix per operation: half generic with small
    entries, a quarter symbic tree matrices, a quarter mirror products,
    each kind drawn to its tie-set-size buckets."""
    rng = workload_rng("decide", seed)
    make = {
        "generic": lambda: generic_symmetric(rng, DECIDE_N),
        "symbic_tree": lambda: symbic_tree_matrix(rng, DECIDE_N),
        "mirror_product": lambda: mirror_product(rng, DECIDE_N),
    }
    slots = {kind: [] for kind in TIE_BUCKETS}
    out = []
    for k in range(count):
        kind = DECIDE_KINDS[k % len(DECIDE_KINDS)]
        if not slots[kind]:
            slots[kind] = [(lo, hi) for lo, hi, m in TIE_BUCKETS[kind] for _ in range(m)]
            rng.shuffle(slots[kind])
        lo, hi = slots[kind].pop()
        while True:
            a = make[kind]()
            ties = sym_tie_size(a)
            if lo <= ties <= hi:
                break
        out.append({"kind": kind, "ties": ties, "matrix": a})
    return out


def lift_exact_inputs(seed: int, count: int) -> list:
    """Round trips for rank2 and sym_rank2 in modes R and R+, cycling
    through the four requests; R+ inputs factor through two inner
    dimensions (caterpillar trees), R inputs come from general trees."""
    rng = workload_rng("lift-exact", seed)
    plan = [
        ("rank2", "R", "tree"),
        ("sym_rank2", "R", "symbic_tree"),
        ("rank2", "R+", "barvinok2"),
        ("sym_rank2", "R+", "mirror_product"),
    ]
    out = []
    for k in range(count):
        variety, mode, kind = plan[k % len(plan)]
        d, n = LIFT_EXACT_SHAPES[variety]
        if kind == "tree":
            a = bicolored_tree_matrix(rng, d, n)
        elif kind == "symbic_tree":
            a = symbic_tree_matrix(rng, n)
        elif kind == "barvinok2":
            a = barvinok2_matrix(rng, d, n)
        else:
            a = mirror_product(rng, n)
        out.append({"kind": kind, "variety": variety, "mode": mode, "matrix": a})
    return out


def singular_candidate(rng, n, symmetric):
    """A square matrix with entries in 0..4, so that the (symmetric)
    tropical determinant is often tied."""
    a = [[Fraction(rng.randint(0, 4)) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i]
    return a


def lift_solve_inputs(seed: int, count: int) -> list:
    """Seeded draw from the pool of singular 4x4 inputs known to lift
    exactly (see make_pool.py): equal thirds for the three requests,
    interleaved.  Each request's pool is sorted by work and cut into as
    many blocks as the run needs inputs; the seed picks one per block."""
    with open(POOL_FILE) as fh:
        pool = json.load(fh)["pool"]
    rng = workload_rng("lift-solve", seed)
    per = count // len(LIFT_SOLVE_PLAN)
    drawn = []
    for v, m in LIFT_SOLVE_PLAN:
        rows = pool[f"{v}/{m}"]
        blocks = [rows[b * len(rows) // per:(b + 1) * len(rows) // per] for b in range(per)]
        picks = [rng.choice(block)["matrix"] for block in blocks]
        rng.shuffle(picks)
        drawn.append(picks)
    return [
        {"kind": "pool", "variety": v, "mode": m, "matrix": decode_matrix(rows[k])}
        for k in range(per)
        for (v, m), rows in zip(LIFT_SOLVE_PLAN, drawn)
    ]


WORKLOADS = {
    "decide": (decide_inputs, DECIDE_ROUND),
    "lift-exact": (lift_exact_inputs, 4),
    "lift-solve": (lift_solve_inputs, len(LIFT_SOLVE_PLAN)),
}


def encode_matrix(a) -> list:
    return [[str(x) for x in row] for row in a]


def decode_matrix(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def digest(inputs: list) -> str:
    """sha256 over the canonical JSON of an input list."""
    canon = [
        {k: (encode_matrix(v) if k == "matrix" else v) for k, v in sorted(item.items())}
        for item in inputs
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
