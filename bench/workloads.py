"""Seeded query sets for the benchmark workloads.

Plain Python with no numpy and no ``hcc`` import, so the generated files
and the query list depend only on the workload name and the seed, never
on the code under test.  Every workload is a fixed list of query slots:
a slot fixes the shape of its input (presentation family, relator
length, target group, surjectivity) and the seed fills in the content
(random letters, images, element orders, sweep values).  Different seeds
therefore run different inputs of nearly the same cost.

A query is ``Query(argv, check, heavy)``: ``argv`` is an ``hcc`` command
line whose ``{dir}`` placeholder names the directory holding the written
files, and ``check`` carries the independent reference data that
``references.check`` compares the printed answer against.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from math import gcd

WORKLOADS = ("covers", "relators", "filtration")
GENS = "abcdef"


@dataclass
class Query:
    argv: list[str]
    check: dict
    heavy: bool = False


@dataclass
class WorkloadInputs:
    workload: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)
    # the memory-guard query: run outside the timed passes (see NOTES.md)
    probe: Query | None = None

    def add_file(self, stem: str, text: str) -> str:
        name = f"{len(self.files):03d}_{stem}"
        self.files[name] = text
        return "{dir}/" + name

    def digest(self) -> str:
        h = hashlib.sha256()
        payload = {
            "files": self.files,
            "queries": [[q.argv, q.check] for q in self.queries],
            "probe": [self.probe.argv, self.probe.check] if self.probe else None,
        }
        h.update(json.dumps(payload, sort_keys=True).encode())
        return h.hexdigest()


# --- free words -----------------------------------------------------------

def free_reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


def inverse(word):
    return [(g, -s) for g, s in reversed(word)]


def random_word(rng, n, length):
    word = []
    while len(word) < length:
        letter = (rng.randrange(n), rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return word


def commutator_relator(rng, n, length, piece=6):
    """Freely reduced product of random commutators [u, v], |u|, |v| <= piece,
    grown until its reduced length reaches ``length``.  Every exponent sum
    is zero, so any map to an abelian group kills it."""
    word = []
    while len(word) < length:
        u = random_word(rng, n, rng.randint(1, piece))
        v = random_word(rng, n, rng.randint(1, piece))
        for g, s in u + v + inverse(u) + inverse(v):
            if word and word[-1] == (g, -s):
                word.pop()
            else:
                word.append((g, s))
    return word


def word_text(word):
    return " ".join(GENS[g] if s == 1 else GENS[g] + "^-1" for g, s in word)


def pres_text(n, relators):
    gens = ", ".join(GENS[:n])
    return f"< {gens} | {', '.join(word_text(w) for w in relators)} >"


def exponent_matrix(n, relators):
    """n x m exponent-sum matrix (generator j, relator i)."""
    return [[sum(s for g, s in rel if g == j) for rel in relators] for j in range(n)]


def surface(genus):
    rel = []
    for k in range(genus):
        a, b = 2 * k, 2 * k + 1
        rel += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return 2 * genus, [rel]


T3 = (3, [[(0, 1), (1, 1), (0, -1), (1, -1)],
          [(0, 1), (2, 1), (0, -1), (2, -1)],
          [(1, 1), (2, 1), (1, -1), (2, -1)]])


# --- exact linear algebra mod p (references only) -------------------------

def rank_mod(rows, p):
    a = [[x % p for x in row] for row in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def base_betti(n, relators, p):
    rk = rank_mod(exponent_matrix(n, relators), p) if relators else 0
    return 1, n - rk, len(relators) - rk


# --- targets and homomorphisms ---------------------------------------------

def ea_images(rng, n, p, r, rank):
    """n coordinate vectors in (Z_p)^r spanning a subspace of the given rank."""
    while True:
        basis = [[rng.randrange(p) for _ in range(r)] for _ in range(rank)]
        if rank_mod(basis, p) != rank:
            continue
        images = []
        for _ in range(n):
            coeffs = [rng.randrange(p) for _ in range(rank)]
            images.append([sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(r)])
        if rank_mod(images, p) == rank:
            return images


def ea_hom_text(n, images):
    return "".join(f"{GENS[j]} -> ({','.join(map(str, images[j]))})\n" for j in range(n))


def index_hom_text(n, images):
    return "".join(f"{GENS[j]} -> {images[j]}\n" for j in range(n))


def cyclic_images(rng, n_gens, order, surjective):
    while True:
        images = [rng.randrange(order) for _ in range(n_gens)]
        g = 0
        for x in images:
            g = gcd(g, x)
        if (gcd(g, order) == 1) == surjective:
            return images


def cyclic_image_order(images, order):
    g = 0
    for x in images:
        g = gcd(g, x)
    return order // gcd(g, order)


# --- multiplication tables (filtration) -------------------------------------

def _relabel(table, rng):
    """Same group under a seeded order of the non-identity elements."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)  # new index of old element
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(m):
    # r^i s^j at index i + m j
    def mul(x, y):
        i, a = x % m, x // m
        j, b = y % m, y // m
        return ((i + (j if a == 0 else -j)) % m) + m * ((a + b) % 2)
    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


def quaternion_table():
    # units 1, i, j, k times sign; index = unit + 4 * (sign < 0)
    unit_mul = {  # (u, v) -> (sign, unit)
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(x, y):
        sx, ux = (-1 if x >= 4 else 1), x % 4
        sy, uy = (-1 if y >= 4 else 1), y % 4
        s, u = unit_mul[(ux, uy)]
        return u + 4 * (s * sx * sy < 0)
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def heisenberg3_table():
    # (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b') mod 3
    def mul(x, y):
        a, b, c = x % 3, (x // 3) % 3, x // 9
        a2, b2, c2 = y % 3, (y // 3) % 3, y // 9
        return (a + a2) % 3 + 3 * ((b + b2) % 3) + 9 * ((c + c2 + a * b2) % 3)
    return [[mul(x, y) for y in range(27)] for x in range(27)]


def product_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    return [[t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2] for y in range(n1 * n2)]
            for x in range(n1 * n2)]


def table_text(table):
    return f"order {len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)


# Jennings ranks d_k = dim D_k / D_{k+1} of the dimension subgroups over F_p,
# derived by hand from the lower central series and the p-power maps:
#   Z_{p^a}: D_k = G^{p^j} for the least p^j >= k, so d_{p^j} = 1 for j < a;
#   D_4, Q_8 at p = 2 and the Heisenberg group mod 3 at p = 3:
#     D_2 = [G, G] G^p has order p and D_3 = 1, so d_1 = 2, d_2 = 1.
# The dimension subgroups of a direct product are the products of the
# factors' dimension subgroups, so the ranks add.
def cyclic_jennings(p, a):
    return {p**j: 1 for j in range(a)}


TABLE_GROUPS = {
    "D4": (2, dihedral_table(4), {1: 2, 2: 1}),
    "Q8": (2, quaternion_table(), {1: 2, 2: 1}),
    "Heis3": (3, heisenberg3_table(), {1: 2, 2: 1}),
}
TABLE_FACTORS = {
    2: [("Z2", cyclic_table(2), cyclic_jennings(2, 1)), ("Z4", cyclic_table(4), cyclic_jennings(2, 2))],
    3: [("Z3", cyclic_table(3), cyclic_jennings(3, 1)), ("Z9", cyclic_table(9), cyclic_jennings(3, 2))],
}


def _add_ranks(d1, d2):
    out = dict(d1)
    for k, v in d2.items():
        out[k] = out.get(k, 0) + v
    return out


# --- the 34 built-in corpus triples (copied, so inputs never depend on the
# code under test): (presentation, p, target, images) ------------------------

_FREE1, _FREE2, _FREE3 = (1, []), (2, []), (3, [])
_TORUS = surface(1)
_KLEIN = (2, [[(0, 1), (1, 1), (0, 1), (1, -1)]])
_GENUS2 = surface(2)
_RP2 = (1, [[(0, 1), (0, 1)]])
_Z3TOR = (1, [[(0, 1), (0, 1), (0, 1)]])
_Z2FREE = (2, [[(0, 1), (0, 1)]])

CORPUS = (
    (_FREE1, 2, ("ea", 2, 1), ((1,),)), (_FREE1, 3, ("ea", 3, 1), ((1,),)),
    (_FREE1, 2, ("cyclic", 4), (1,)),
    (_FREE2, 2, ("ea", 2, 1), ((1,), (0,))), (_FREE2, 2, ("ea", 2, 1), ((1,), (1,))),
    (_FREE2, 2, ("ea", 2, 2), ((1, 0), (0, 1))), (_FREE2, 3, ("ea", 3, 1), ((1,), (2,))),
    (_FREE2, 3, ("ea", 3, 2), ((1, 0), (0, 1))), (_FREE2, 2, ("cyclic", 4), (1, 2)),
    (_FREE3, 2, ("ea", 2, 3), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (_FREE3, 2, ("ea", 2, 2), ((1, 0), (0, 1), (1, 1))), (_FREE3, 3, ("ea", 3, 1), ((1,), (1,), (1,))),
    (_TORUS, 2, ("ea", 2, 1), ((1,), (0,))), (_TORUS, 2, ("ea", 2, 2), ((1, 0), (0, 1))),
    (_TORUS, 3, ("ea", 3, 1), ((1,), (0,))), (_TORUS, 3, ("ea", 3, 2), ((1, 0), (0, 1))),
    (_TORUS, 2, ("cyclic", 4), (1, 0)), (_TORUS, 2, ("cyclic", 4), (1, 2)),
    (_KLEIN, 2, ("ea", 2, 1), ((1,), (0,))), (_KLEIN, 2, ("ea", 2, 1), ((0,), (1,))),
    (_KLEIN, 2, ("ea", 2, 2), ((1, 0), (0, 1))), (_KLEIN, 3, ("ea", 3, 1), ((0,), (1,))),
    (_KLEIN, 2, ("cyclic", 4), (2, 1)),
    (_GENUS2, 2, ("ea", 2, 1), ((1,), (0,), (0,), (0,))),
    (_GENUS2, 2, ("ea", 2, 2), ((1, 0), (0, 1), (0, 0), (0, 0))),
    (_GENUS2, 2, ("ea", 2, 3), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))),
    (_GENUS2, 2, ("ea", 2, 4), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    (_GENUS2, 3, ("ea", 3, 1), ((1,), (0,), (2,), (0,))),
    (_GENUS2, 3, ("ea", 3, 2), ((1, 0), (0, 1), (1, 0), (0, 1))),
    (_GENUS2, 2, ("cyclic", 4), (1, 1, 2, 3)),
    (_RP2, 2, ("ea", 2, 1), ((1,),)), (_Z3TOR, 3, ("ea", 3, 1), ((1,),)),
    (_Z2FREE, 2, ("ea", 2, 1), ((0,), (1,))), (_Z2FREE, 2, ("ea", 2, 2), ((1, 0), (0, 1))),
)


# --- workload builders ------------------------------------------------------

def _cover_query(w, n, relators, p, target, images, family, heavy=False, bounds=None):
    """A ``cover`` query, or ``bounds --actual`` when ``bounds`` is set; its
    files are added to ``w``.

    ``family`` names the closed form for b1: ("surface", g), ("t3",),
    ("free",), or ("rs",) for the Reidemeister-Schreier kernel reference.
    """
    pres = w.add_file("pres.pres", pres_text(n, relators))
    if target[0] == "ea":
        _, tp, r = target
        order = tp**r
        image_order = tp ** rank_mod([list(x) for x in images], tp)
        hom = w.add_file("hom.hom", ea_hom_text(n, images))
        group_args = ["--r", str(r)]
    else:
        order = target[1]
        image_order = cyclic_image_order(images, order)
        hom = w.add_file("hom.hom", index_hom_text(n, images))
        group_args = ["--cyclic", str(order)]
    check = {
        "kind": "cover", "p": p, "target": list(target),
        "images": [list(x) if isinstance(x, (list, tuple)) else x for x in images],
        "pres": pres_text(n, relators), "n": n, "m": len(relators), "order": order,
        "image_order": image_order, "base": list(base_betti(n, relators, p)), "family": list(family),
    }
    if bounds is None:
        argv = ["cover", "--pres", pres, "--hom", hom, "--p", str(p)]
        if target[0] != "ea":
            argv += group_args
    else:
        b1, d = check["base"][1], n - len(relators)
        check["kind"] = "bounds_actual"
        check["b1_G"], check["d"] = b1, d
        argv = ["bounds", "--b1", str(b1), "--d", str(d), "--p", str(p), *group_args,
                "--actual", "--pres", pres, "--hom", hom]
    return Query(argv, check, heavy)


def spread(queries):
    """The same queries, reordered so that any run of neighbouring slots is
    spread evenly over the pass: slot i moves to position i * d mod n, with
    d near n / golden ratio and coprime to n.  The order is fixed, not
    seeded.  A group of similar slots then samples many moments of the
    pass, not one stretch of it."""
    n = len(queries)
    d = max(1, round(n / 1.618034))
    while gcd(d, n) != 1:
        d += 1
    out = [None] * n
    for i, q in enumerate(queries):
        out[i * d % n] = q
    return out


def _covers(w: WorkloadInputs, rng: random.Random) -> None:
    for (n, rels), p, target, images in CORPUS:
        if (n, rels) == _TORUS:
            family = ("surface", 1)
        elif (n, rels) == _GENUS2:
            family = ("surface", 2)
        elif not rels:
            family = ("free",)
        else:
            family = ("rs",)
        w.queries.append(_cover_query(w, n, rels, p, target, images, family))

    def ea(n, rels, p, r, rank, family, **kw):
        w.queries.append(_cover_query(w, n, rels, p, ("ea", p, r), ea_images(rng, n, p, r, rank), family, **kw))

    def cyc(n, rels, p, order, family, surjective=True, **kw):
        imgs = cyclic_images(rng, n, order, surjective)
        w.queries.append(_cover_query(w, n, rels, p, ("cyclic", order), imgs, family, **kw))

    def random_pres(n, m):
        return n, [commutator_relator(rng, n, rng.randint(8, 24), piece=4) for _ in range(m)]

    g2, g3 = surface(2), surface(3)
    # the two heavy slots: the boundary check and rank(d2) dominate
    ea(*g2, 2, 9, 4, ("surface", 2), heavy=True)  # |H| = 512, not surjective
    # |H| = 343, surjective.  The cost of rank(d2) depends on where the
    # elimination fills in, which varies twofold between random
    # presentations, so this slot does not depend on the seed.
    fixed = random.Random("covers:heavy")
    n, rels = 3, [commutator_relator(fixed, 3, 32, piece=2) for _ in range(3)]
    w.queries.append(_cover_query(w, n, rels, 7, ("ea", 7, 3), ea_images(fixed, n, 7, 3, 3), ("rs",), heavy=True))
    # surface groups
    ea(*g2, 3, 4, 4, ("surface", 2))
    ea(*g2, 2, 5, 4, ("surface", 2))
    ea(*g2, 2, 7, 4, ("surface", 2))
    ea(*g3, 2, 6, 6, ("surface", 3))
    ea(*g3, 5, 2, 2, ("surface", 3))
    ea(*g3, 3, 4, 3, ("surface", 3))
    cyc(*g2, 2, 8, ("surface", 2))
    cyc(*g3, 3, 9, ("surface", 3))
    cyc(*g2, 5, 25, ("surface", 2))
    ea(*g2, 7, 1, 1, ("surface", 2))
    # the 2-skeleton of T^3
    ea(*T3, 2, 3, 3, ("t3",))
    ea(*T3, 3, 3, 3, ("t3",))
    ea(*T3, 7, 2, 2, ("t3",))
    ea(*T3, 5, 3, 3, ("t3",))
    ea(*T3, 2, 5, 3, ("t3",))
    ea(*T3, 5, 2, 1, ("t3",))
    cyc(*T3, 3, 9, ("t3",))
    cyc(*T3, 2, 16, ("t3",), surjective=False)
    # mid-size covers, 20-300 ms, whose time is mostly numpy: they hold
    # the tail percentile (ten queries beyond it) above the millisecond
    # queries, whose time is mostly interpreter overhead
    ea(*T3, 2, 7, 3, ("t3",))
    ea(*T3, 3, 4, 3, ("t3",))
    ea(*g2, 5, 3, 3, ("surface", 2))
    ea(*g2, 3, 5, 4, ("surface", 2))
    ea(*g2, 2, 8, 4, ("surface", 2))
    ea(*g3, 3, 4, 4, ("surface", 3))
    ea(*g3, 2, 7, 6, ("surface", 3))
    ea(*g3, 5, 3, 3, ("surface", 3))
    # random commutator presentations, relators of at most 40 letters
    ea(*random_pres(3, 2), 5, 2, 2, ("rs",))
    ea(*random_pres(3, 2), 3, 3, 3, ("rs",))
    ea(*random_pres(3, 2), 2, 4, 3, ("rs",))
    ea(*random_pres(2, 2), 3, 2, 2, ("rs",))
    ea(*random_pres(3, 3), 2, 3, 2, ("rs",))
    cyc(*random_pres(3, 2), 3, 27, ("rs",))
    cyc(*random_pres(2, 3), 7, 7, ("rs",))
    # bounds --actual with the true b1 and deficiency, surjective maps only
    ea(*g2, 2, 4, 4, ("surface", 2), bounds=True)
    ea(*T3, 3, 2, 2, ("t3",), bounds=True)
    ea(*random_pres(3, 2), 5, 2, 2, ("rs",), bounds=True)
    ea(*random_pres(3, 3), 2, 3, 3, ("rs",), bounds=True)
    cyc(*g2, 3, 9, ("surface", 2), bounds=True)
    # the two heavy slots sit between the millisecond queries, and the
    # mid-size covers spread over the pass
    w.queries = spread(w.queries)


def _relators(w: WorkloadInputs, rng: random.Random) -> None:
    # Three groups of slots, interleaved so that each group is spread over
    # the whole pass: fast (present --normalize and small iterate starts),
    # a median group of eleven same-size covers and a tail group of nine
    # same-size covers under six heavy slots.  The median and the tail
    # percentile of a pass's latencies then each fall inside a group
    # of equal-cost queries, so they average many queries run at different
    # moments instead of following one slot.  The deck groups are fixed
    # per slot; the seed draws the letters and the images.
    fast, median, slow = [], [], []

    def long_pres(n, lengths):
        return n, [commutator_relator(rng, n, length) for length in lengths]

    def cover(group, pres, p, target, images, **kw):
        group.append(_cover_query(w, *pres, p, target, images, ("rs",), **kw))

    def ea(group, pres, p, r, **kw):
        cover(group, pres, p, ("ea", p, r), ea_images(rng, pres[0], p, r, r), **kw)

    # covers of long relators over small deck groups; the cost grows with
    # generators x length^2, so the lengths (after free reduction) are fixed
    ea(slow, long_pres(2, [2000]), 2, 2, heavy=True)
    ea(slow, long_pres(2, [800]), 2, 1)
    ea(slow, long_pres(3, [500, 500]), 3, 1)
    ea(slow, long_pres(2, [1000]), 3, 2)
    pres = long_pres(2, [600, 600])
    cover(slow, pres, 2, ("cyclic", 4), cyclic_images(rng, 2, 4, True))
    decks = ((2, 1), (2, 2), (3, 1), (3, 2))
    for i in range(9):
        ea(slow, long_pres(2, [600]), *decks[i % 4])
    for i in range(11):
        ea(median, long_pres(2, [400]), *decks[i % 4])

    # present --normalize: a commutator part times a short tail with
    # nonzero exponent sums, so the normal form records real operations
    shapes = [(2, [3000], 2), (3, [1500, 1000], 3), (2, [2000, 1200], 5), (3, [1000], 3)]
    shapes += [(2, [400, 400], 2), (3, [400, 400], 3), (2, [500], 5), (3, [300, 300], 3)]
    for n, lengths, p in shapes:
        rels = []
        for length in lengths:
            tail = [(g, 1 if e > 0 else -1) for g in range(n) for e in [rng.randint(-3, 3)] for _ in range(abs(e))]
            rels.append(free_reduce(commutator_relator(rng, n, length) + tail))
        pres = w.add_file("pres.pres", pres_text(n, rels))
        fast.append(Query(
            ["present", "--pres", pres, "--p", str(p), "--normalize"],
            {"kind": "present", "p": p, "n": n, "exponents": exponent_matrix(n, rels)},
        ))

    # growth iteration from deficiency >= 1 starts, until done or capped
    starts = [
        ((3, [[(0, 1), (0, 1)], [(1, 1), (1, 1)]]), 2, 3),   # peaks near 1 GB
        ((2, [[(0, 1)] * 3]), 3, 2),
        ((2, [[(0, 1)] * 2]), 2, 3),
        ((2, []), 3, 2),
        ((3, [[(0, 1)] * 2]), 2, 2),
        (long_pres(2, [2000]), 2, 1),
        (long_pres(3, [1000, 800]), 3, 1),
        (long_pres(2, [600]), 2, 1),
    ]
    for i, ((n, rels), p, steps) in enumerate(starts):
        pres = w.add_file("pres.pres", pres_text(n, rels))
        (slow if i == 0 else fast).append(Query(  # the 1 GB start is slow
            ["iterate", "--pres", pres, "--p", str(p), "--steps", str(steps)],
            {"kind": "iterate", "p": p, "n": n, "m": len(rels), "base": list(base_betti(n, rels, p)),
             "steps": steps},
        ))

    for i in range(max(map(len, (fast, median, slow)))):
        w.queries += [group[i] for group in (fast, median, slow) if i < len(group)]

    # memory guard: stage 2 asks complex_summary for a (32769, 16384) int64
    # array before its entry-cap check
    n, rels = 3, [[(0, 1), (1, 1), (0, -1), (1, -1)]]
    pres = w.add_file("pres.pres", pres_text(n, rels))
    w.probe = Query(
        ["iterate", "--pres", pres, "--p", "2", "--steps", "2"],
        {"kind": "iterate", "p": 2, "n": n, "m": 1, "base": list(base_betti(n, rels, 2)), "steps": 2},
    )


def _filtration(w: WorkloadInputs, rng: random.Random) -> None:
    # The target groups are fixed, so the cost of a pass does not depend
    # on the seed; the seed relabels the table groups, draws the b1/d
    # sweeps and the omega tables, and orders the queries.
    def cyclic(p, n):
        return p, ["--cyclic", str(n)], {"group": ["cyclic", n]}

    def ea(p, r):
        return p, ["--r", str(r)], {"group": ["ea", p, r]}

    def table(name, p, tbl, ranks):
        path = w.add_file(f"{name}.tbl", table_text(_relabel(tbl, rng)))
        return p, ["--table", path], {"group": ["table", len(tbl)], "jennings": ranks}

    (_, z2, j2), (_, z4, j4) = TABLE_FACTORS[2]
    (_, z3, j3), (_, z9, j9) = TABLE_FACTORS[3]
    _, q8, jq8 = TABLE_GROUPS["Q8"]
    d4 = table("D4", *TABLE_GROUPS["D4"])
    targets = [
        # the costly profiles: one echelon per filtration level
        cyclic(127, 127), cyclic(2, 128), ea(2, 8), ea(3, 5),
        # cyclic groups with p | n and with p not dividing n
        cyclic(2, 96), cyclic(3, 81), cyclic(5, 125), cyclic(7, 98),
        cyclic(2, 105), cyclic(3, 100), cyclic(5, 64), cyclic(7, 120),
        ea(2, 6), ea(3, 4), ea(5, 3), ea(7, 2),
        # multiplication tables: p-groups and direct products
        d4, table("Q8", *TABLE_GROUPS["Q8"]), table("Heis3", *TABLE_GROUPS["Heis3"]),
        table("Z2xZ4", 2, product_table(z2, z4), _add_ranks(j2, j4)),
        table("Q8xZ2", 2, product_table(q8, z2), _add_ranks(jq8, j2)),
        table("Z3xZ9", 3, product_table(z3, z9), _add_ranks(j3, j9)),
    ]
    for p, group_args, ref in targets:
        w.queries.append(Query(["ring", "--p", str(p), *group_args], {"kind": "ring", "p": p, **ref}))

    # b1/d sweeps on small targets: 6 queries each, so that most of them
    # reuse a (p, table) profile computed earlier in the pass
    for p, group_args, ref in (ea(2, 5), cyclic(3, 27), d4, cyclic(5, 25), ea(7, 2)):
        order = _group_order(ref)
        for _ in range(6):
            d = rng.randint(0, 3)
            b1 = d + rng.randint(0, 4)
            w.queries.append(Query(
                ["bounds", "--b1", str(b1), "--d", str(d), "--p", str(p), *group_args],
                {"kind": "bounds", "p": p, "b1_G": b1, "d": d, "order": order, **ref},
            ))

    for _ in range(5):
        p = rng.choice((2, 3, 5, 7))
        r = rng.randint(1, 8)
        w.queries.append(Query(["omega", "--p", str(p), "--r", str(r)], {"kind": "omega", "p": p, "r": r}))
    w.queries.append(Query(["omega", "--suite", "10"], {"kind": "suite"}))
    rng.shuffle(w.queries)


def _group_order(ref):
    kind = ref["group"][0]
    if kind == "ea":
        return ref["group"][1] ** ref["group"][2]
    return ref["group"][1]


_BUILDERS = {"covers": _covers, "relators": _relators, "filtration": _filtration}


def generate(workload: str, seed: int) -> WorkloadInputs:
    """The workload's files and queries for ``seed``; same seed, same bytes."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    w = WorkloadInputs(workload, seed)
    _BUILDERS[workload](w, random.Random(f"{workload}:{seed}"))
    return w
