"""Partitions, compositions, tableaux and brick combinatorics.

Entries and cells are 1-indexed throughout: a tableau cell is addressed as
``(row, col)`` with ``row, col >= 1``, and the content of the cell holding
entry ``i`` is ``col - row``.  Reverse standard Young tableaux (RSYT) are
fillings with ``N..1`` strictly decreasing along rows and columns.
"""

from __future__ import annotations

from functools import lru_cache


class NoSuchTableau(ValueError):
    """No RSYT exists with the requested content vector."""


class BadShapeParams(ValueError):
    """Brick parameters out of range (need m >= 1, k >= 2)."""


# ---------------------------------------------------------------------------
# partitions and compositions (plain int tuples)
# ---------------------------------------------------------------------------


def is_partition(parts) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(
        a >= 0 for a in parts
    )


def normalize_partition(parts) -> tuple[int, ...]:
    """Strip trailing zeros; partitions compare equal up to padding."""
    parts = tuple(parts)
    n = len(parts)
    while n > 0 and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def rank_permutation(alpha) -> tuple[int, ...]:
    """One-line permutation r with r(i) = #{j: a_j > a_i} + #{j <= i: a_j = a_i}.

    Applying r to alpha sorts it into nonincreasing order, and r is the
    identity exactly when alpha is already a partition.
    """
    alpha = tuple(alpha)
    # a stable sort by descending part puts i after the j with a_j > a_i and
    # the j < i with a_j = a_i, so i's place in it is r(i)
    order = sorted(range(len(alpha)), key=alpha.__getitem__, reverse=True)
    r = [0] * len(alpha)
    for place, i in enumerate(order, 1):
        r[i] = place
    return tuple(r)


def sort_descending(alpha) -> tuple[int, ...]:
    return tuple(sorted(alpha, reverse=True))


def perm_inverse(w) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def descent_word(w) -> tuple[int, ...]:
    """Deterministic word in simple reflections with w = s_{a_1} ... s_{a_r}.

    Repeatedly strips the smallest descent from the right; any word gives the
    same represented group element.
    """
    v = list(w)
    stripped = []
    while True:
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                stripped.append(i + 1)
                v[i], v[i + 1] = v[i + 1], v[i]
                break
        else:
            break
    return tuple(reversed(stripped))


def _prefix_leq(alpha, beta) -> bool:
    s, t = 0, 0
    for a, b in zip(alpha, beta):
        s += a
        t += b
        if s > t:
            return False
    return True


def dominated_partitions(lam) -> tuple[tuple[int, ...], ...]:
    """All partitions of |lam| with at most len(lam) parts dominated by lam,
    padded with zeros to len(lam), in decreasing lexicographic order: each
    such partition is listed and kept when it passes the prefix-sum test."""
    lam = tuple(lam)
    nparts = len(lam)
    out = []

    def rec(prefix, remaining, bound):
        if not remaining:
            mu = prefix + (0,) * (nparts - len(prefix))
            if _prefix_leq(mu, lam):
                out.append(mu)
        elif len(prefix) < nparts:
            for part in range(min(bound, remaining), 0, -1):
                rec(prefix + (part,), remaining - part, part)

    rec((), sum(lam), sum(lam))
    return tuple(out)


def multiset_permutations(values) -> list[tuple[int, ...]]:
    """Distinct permutations of a multiset, in lexicographic order."""
    values = sorted(values)
    out = []

    def rec(prefix, pool):
        if not pool:
            out.append(tuple(prefix))
            return
        last = None
        for idx, v in enumerate(pool):
            if v == last:
                continue
            last = v
            rec(prefix + [v], pool[:idx] + pool[idx + 1 :])

    rec([], values)
    return out


@lru_cache(maxsize=None)
def _composition_pool(alpha_sorted: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    pool = []
    for mu in dominated_partitions(alpha_sorted):
        pool.extend(multiset_permutations(mu))
    return tuple(pool)


def compositions_strictly_below(alpha) -> tuple[tuple[int, ...], ...]:
    """All compositions gamma of the same degree and length with gamma < alpha.
    Rearrangements of partitions strictly dominated by alpha's all lie below
    it; only those of alpha's own need the prefix-sum test."""
    alpha = tuple(alpha)
    lam = sort_descending(alpha)
    return tuple(
        g
        for g in _composition_pool(lam)
        if g != alpha and (sort_descending(g) != lam or _prefix_leq(g, alpha))
    )


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------


def _validate_filling(rows):
    shape = tuple(len(r) for r in rows)
    if not is_partition(shape) or (shape and shape[-1] == 0):
        raise ValueError(f"rows do not form a Ferrers diagram: {shape}")
    n = sum(shape)
    seen = sorted(v for r in rows for v in r)
    if seen != list(range(1, n + 1)):
        raise ValueError("filling is not a bijection onto 1..N")
    return shape, n


class _Tableau:
    """Shared plumbing for bijective fillings of a Ferrers diagram."""

    __slots__ = ("rows", "shape", "n", "_cells", "_contents")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        shape, n = _validate_filling(rows)
        self._check(rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "n", n)
        cells = {}
        for r, row in enumerate(rows, start=1):
            for c, v in enumerate(row, start=1):
                cells[v] = (r, c)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(
            self, "_contents", tuple(cells[i][1] - cells[i][0] for i in range(1, n + 1))
        )

    def _check(self, rows):
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError("tableaux are immutable")

    def cell(self, entry: int) -> tuple[int, int]:
        """(row, col) of the given entry, 1-indexed."""
        return self._cells[entry]

    def entry(self, row: int, col: int) -> int:
        return self.rows[row - 1][col - 1]

    def content(self, entry: int) -> int:
        return self._contents[entry - 1]

    def content_vector(self) -> tuple[int, ...]:
        return self._contents

    def swap_entries(self, i: int):
        """Rows with entries i and i+1 exchanged (no validity check)."""
        ri, ci = self._cells[i]
        rj, cj = self._cells[i + 1]
        rows = [list(r) for r in self.rows]
        rows[ri - 1][ci - 1], rows[rj - 1][cj - 1] = i + 1, i
        return tuple(tuple(r) for r in rows)

    def __eq__(self, other):
        return type(self) is type(other) and self.rows == other.rows

    def __hash__(self):
        return hash((type(self).__name__, self.rows))

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.rows]})"

    def __str__(self):
        width = len(str(self.n))
        return "\n".join(
            " ".join(str(v).rjust(width) for v in row) for row in self.rows
        )


class Rsyt(_Tableau):
    """Reverse standard Young tableau: strictly decreasing rows and columns."""

    def _check(self, rows):
        for row in rows:
            if any(a <= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not strictly decreasing: {row}")
        for r in range(len(rows) - 1):
            for c in range(len(rows[r + 1])):
                if rows[r][c] <= rows[r + 1][c]:
                    raise ValueError(f"column {c + 1} not strictly decreasing")


class ColumnStrictTableau(_Tableau):
    """Bijective filling with strictly decreasing columns only."""

    def _check(self, rows):
        for r in range(len(rows) - 1):
            for c in range(len(rows[r + 1])):
                if rows[r][c] <= rows[r + 1][c]:
                    raise ValueError(f"column {c + 1} not strictly decreasing")


def inv_statistic(tab: _Tableau) -> int:
    """Number of pairs a < b with row(a) < row(b)."""
    rows = [tab.cell(i)[0] for i in range(1, tab.n + 1)]
    return sum(
        1
        for a in range(tab.n)
        for b in range(a + 1, tab.n)
        if rows[a] < rows[b]
    )


@lru_cache(maxsize=None)
def enumerate_rsyt(shape: tuple[int, ...]) -> tuple[Rsyt, ...]:
    """All RSYT of the given shape, sorted by content vector, descending.

    Removing the cell of entry 1 from an RSYT leaves an RSYT, so fillings are
    built by placing 1, 2, ..., N in turn at each outer corner of the not yet
    peeled part of the diagram.
    """
    shape = normalize_partition(shape)
    if not shape:
        return ()
    n = sum(shape)

    def peel(remaining_shape, low):
        if low > n:
            yield []
            return
        for r in range(len(remaining_shape)):
            if remaining_shape[r] and (
                r == len(remaining_shape) - 1
                or remaining_shape[r] > remaining_shape[r + 1]
            ):
                sub = list(remaining_shape)
                sub[r] -= 1
                for rest in peel(tuple(sub), low + 1):
                    yield [(low, r, remaining_shape[r])] + rest

    tableaux = []
    for placement in peel(shape, 1):
        rows = [[0] * ln for ln in shape]
        for entry, r, c in placement:
            rows[r][c - 1] = entry
        tableaux.append(Rsyt(rows))
    tableaux.sort(key=lambda t: t.content_vector(), reverse=True)
    return tuple(tableaux)


def rsyt_from_contents(contents) -> Rsyt:
    """The unique RSYT with the given content vector.

    Entries are inserted from N down to 1, each at the addable cell whose
    content matches; addable cells of a diagram have distinct contents, so the
    placement is forced and failure means no such tableau exists.
    """
    contents = tuple(contents)
    n = len(contents)
    row_lengths: list[int] = []
    positions = {}
    for entry in range(n, 0, -1):
        want = contents[entry - 1]
        placed = False
        for r in range(len(row_lengths) + 1):
            length = row_lengths[r] if r < len(row_lengths) else 0
            if r > 0 and length >= row_lengths[r - 1]:
                continue
            if (length + 1) - (r + 1) == want:
                if r < len(row_lengths):
                    row_lengths[r] += 1
                else:
                    row_lengths.append(1)
                positions[entry] = (r, row_lengths[r])
                placed = True
                break
        if not placed:
            raise NoSuchTableau(
                f"no addable cell of content {want} for entry {entry}"
            )
    rows = [[0] * ln for ln in row_lengths]
    for entry, (r, c) in positions.items():
        rows[r][c - 1] = entry
    return Rsyt(rows)


# ---------------------------------------------------------------------------
# permissible steps
# ---------------------------------------------------------------------------


def is_permissible_step(tab: _Tableau, i: int) -> bool:
    """Swap of entries i, i+1 with row(i)=2, row(i+1)=1, col(i) < col(i+1)."""
    ri, ci = tab.cell(i)
    rj, cj = tab.cell(i + 1)
    return ri == 2 and rj == 1 and ci < cj


def apply_permissible_step(tab, i: int):
    if not is_permissible_step(tab, i):
        raise ValueError(f"step {i} is not permissible for this tableau")
    return type(tab)(tab.swap_entries(i))


# ---------------------------------------------------------------------------
# bricks
# ---------------------------------------------------------------------------


def max_inv_source(m: int, k: int) -> Rsyt:
    """Column-by-column filling of the two-row rectangle (mk, mk), the
    inv-maximal source; its brick map is the top label of the family."""
    if m < 1 or k < 2:
        raise BadShapeParams(f"need m >= 1 and k >= 2, got m={m}, k={k}")
    n = 2 * m * k
    return Rsyt((tuple(range(n, 0, -2)), tuple(range(n - 1, 0, -2))))

