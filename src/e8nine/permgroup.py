"""Deterministic Schreier-Sims: stabilizer chains for permutation groups.

Permutations are tuples mapping point index to point index. Composition is
left to right: mult(p, q) applies p first, then q. Transversals are stored as
explicit permutations and only ever extended, never rebuilt, so each Schreier
generator is sifted at most once; the chain is complete when the processing
queue drains, and the group order is the product of fundamental orbit sizes.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    return all(i == x for i, x in enumerate(p))


def mult(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def perm_parity(p: Perm) -> int:
    """0 for even permutations, 1 for odd."""
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def check_perm(p: Perm, degree: int) -> None:
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError("not a permutation of degree %d" % degree)


class _Level:
    __slots__ = ("beta", "gen_ids", "orbit_order", "transversal", "transversal_inv", "processed")

    def __init__(self, beta: int, degree: int):
        self.beta = beta
        self.gen_ids: list[int] = []
        ident = identity_perm(degree)
        self.orbit_order: list[int] = [beta]
        self.transversal: dict[int, Perm] = {beta: ident}
        self.transversal_inv: dict[int, Perm] = {beta: ident}
        # (orbit point, generator id) pairs whose Schreier generator was sifted
        self.processed: set[tuple[int, int]] = set()


class StabChain:
    """Incremental deterministic stabilizer chain (base and strong generators).

    A new base point is the smallest point moved by the residue that forces it.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._gens_by_id: list[Perm] = []

    @property
    def base(self) -> list[int]:
        return [lv.beta for lv in self.levels]

    def order(self) -> int:
        n = 1
        for length in self.fundamental_orbit_lengths():
            n *= length
        return n

    def fundamental_orbit_lengths(self) -> list[int]:
        return [len(lv.transversal) for lv in self.levels]

    def strong_generators(self, from_level: int = 0) -> list[Perm]:
        """Generators fixing the first from_level base points; for a complete
        chain they generate the pointwise stabilizer of those points."""
        return [self._gens_by_id[gid] for lv in self.levels[from_level:] for gid in lv.gen_ids]

    def sift(self, p: Perm, from_level: int = 0) -> Perm:
        """Factor p through the chain; identity residue means membership."""
        for lv in self.levels[from_level:]:
            u_inv = lv.transversal_inv.get(p[lv.beta])
            if u_inv is None:
                return p
            p = mult(p, u_inv)
        return p

    def add_generator(self, p: Perm) -> bool:
        """Add a permutation; returns True if it enlarged the group."""
        check_perm(p, self.degree)
        residue = self.sift(p)
        if is_identity(residue):
            return False
        self._install(residue)
        self._run_to_completion()
        return True

    # -- internals ---------------------------------------------------------

    def _next_base_point(self, residue: Perm) -> int:
        used = set(self.base)
        for i, x in enumerate(residue):
            if i != x and i not in used:
                return i
        raise AssertionError("residue moves no usable point")

    def _install(self, residue: Perm) -> None:
        """Attach a sifted residue to the first level whose base point it moves.

        The generator joins the generating sets of that level and of every
        shallower level, so their orbits are extended as well.
        """
        idx = 0
        while idx < len(self.levels) and residue[self.levels[idx].beta] == self.levels[idx].beta:
            idx += 1
        if idx == len(self.levels):
            self.levels.append(_Level(self._next_base_point(residue), self.degree))
        gid = len(self._gens_by_id)
        self._gens_by_id.append(residue)
        self.levels[idx].gen_ids.append(gid)
        for i in range(idx + 1):
            self._extend_orbit(i)

    def _extend_orbit(self, level_idx: int) -> None:
        """Grow the fundamental orbit under the current generator set.

        Existing transversal entries are kept unchanged, so already-processed
        Schreier pairs stay valid.
        """
        lv = self.levels[level_idx]
        gens = self.strong_generators(level_idx)
        frontier = list(lv.orbit_order)
        while frontier:
            nxt = []
            for point in frontier:
                u = lv.transversal[point]
                for g in gens:
                    img = g[point]
                    if img not in lv.transversal:
                        ug = mult(u, g)
                        lv.transversal[img] = ug
                        lv.transversal_inv[img] = inverse(ug)
                        lv.orbit_order.append(img)
                        nxt.append(img)
            frontier = nxt

    def _run_to_completion(self) -> None:
        """Sift every unprocessed Schreier generator until none remain."""
        progress = True
        while progress:
            progress = False
            for idx in range(len(self.levels) - 1, -1, -1):
                lv = self.levels[idx]
                # Each generator id sits in the level where it was installed.
                gids = [gid for deeper in self.levels[idx:] for gid in deeper.gen_ids]
                for gid in gids:
                    g = self._gens_by_id[gid]
                    for point in list(lv.orbit_order):
                        key = (point, gid)
                        if key in lv.processed:
                            continue
                        if g[point] not in lv.transversal:
                            self._extend_orbit(idx)
                        lv.processed.add(key)
                        schreier = mult(
                            mult(lv.transversal[point], g), lv.transversal_inv[g[point]]
                        )
                        if is_identity(schreier):
                            continue
                        residue = self.sift(schreier, from_level=idx + 1)
                        if not is_identity(residue):
                            self._install(residue)
                            progress = True


def schreier_sims(gens: list[Perm]) -> tuple[int, StabChain]:
    """Exact group order plus the stabilizer chain for the given generators."""
    if not gens:
        return 1, StabChain(degree=1)
    chain = StabChain(degree=len(gens[0]))
    for g in gens:
        chain.add_generator(g)
    return chain.order(), chain


def orbit_of(point: int, gens: list[Perm]) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen
