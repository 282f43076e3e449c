"""Test-only helpers: the tableau crystals B(lambda) by two independent
enumerations and as a model for the graph code, tableau rows and the
highest-weight tableau, tableau and letter-word views of pair values, the
one-letter crystal operators, the bracketing rule of one label at a time,
the statistics of a kernel by iterating its operators, weights in
fundamental coordinates (`pairing`, `fundamental_coeffs` and its inverse),
and straightforward reference versions of the chain-length walk, the
closed-statistics rule and the connectivity walk of the axiom checks, of
the full-subgraph check, of the map and commutation checks, of the two
shell criteria, written one per family each, of the boundary image
equality, of the DOT export, of the `a1` element ids and kernels, of the
hook-content count, of the tableau validator and of the `c1` and `d2`
kernels' operators, statistics and boundary criteria."""

from fractions import Fraction
from functools import partial
from operator import gt, lt
from typing import Iterator, Optional, Sequence

from adjcrys.crystal_graph import OUTSIDE, UNDEFINED, CheckResult, Kernel, LevelModel
from adjcrys.root_data import Family, RootDatum
from adjcrys.tableaux import Tableau, TensorPair, Word, column_missing, ssyt_count


def rows(t: Tableau) -> tuple[tuple[int, ...], ...]:
    """The rows of a tableau, top to bottom."""
    return tuple(
        tuple(col[r] for col in t.columns if r < len(col))
        for r in range(len(t.shape))
    )


def reference_tableau_error(n: int, columns) -> str:
    """Why `Tableau(n, columns)` must fail, "" when it is a tableau: every
    column checked in full, left to right, then every adjacent pair, with
    no memo."""
    if n < 1:
        return "rank must be positive"
    prev = None
    for col in columns:
        if col == prev:  # a repeat of the previous column: checked already
            continue
        prev = col
        if not col:
            return "empty column"
        if len(col) > n:
            return f"column depth {len(col)} exceeds rank {n}"
        if min(col) < 1 or max(col) > n + 1:
            return f"entries must lie in 1..{n + 1}"
        if not all(map(lt, col, col[1:])):
            return f"column {col} not strictly increasing"
    for a, b in zip(columns, columns[1:]):
        if a == b:  # equal columns pass both rules
            continue
        if len(a) < len(b):
            return "column depths must weakly decrease left to right"
        if any(map(gt, a, b)):  # stops at the shorter column b
            return "rows must weakly increase left to right"
    return ""


def highest_weight(n: int, shape) -> Tableau:
    """The standard filling: every box of row r holds the letter r."""
    shape = tuple(shape)
    return Tableau.from_rows(n, [(r,) * shape[r - 1] for r in range(1, len(shape) + 1)])


def enumerate_crystal(n: int, shape) -> frozenset[Tableau]:
    """All of B(lambda), generated from the highest-weight tableau by f_i."""
    start = highest_weight(n, tuple(s for s in shape if s > 0))
    seen = {start}
    queue = [start]
    for t in queue:  # the list grows behind the loop: a FIFO queue
        for i in range(1, n + 1):
            c = t.f(i)
            if c is not None and c not in seen:
                seen.add(c)
                queue.append(c)
    return frozenset(seen)


def all_ssyt(n: int, shape) -> Iterator[Tableau]:
    """Direct backtracking enumeration of semistandard tableaux.

    Independent of the crystal operators; used as the oracle against the
    BFS enumeration.
    """
    shape = tuple(s for s in shape if s > 0)
    if not shape:
        yield Tableau(n, ())
        return
    rows = [[0] * s for s in shape]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]

    def fill(idx: int) -> Iterator[Tableau]:
        if idx == len(cells):
            yield Tableau.from_rows(n, [tuple(row) for row in rows])
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for val in range(lo, n + 2):
            rows[r][c] = val
            yield from fill(idx + 1)
        rows[r][c] = 0

    yield from fill(0)


class ClassicalCrystal(LevelModel):
    """B(lambda) on tableaux as a model of the level-l models' shape: its
    kernel calls the tableau's own operators, `level` is None and the labels
    are the classical 1..n.

    Weight coordinates are contents.  `eps`/`phi` are the tableau's own,
    which iterate `Tableau.e`/`f` on objects, so `axiom_checks` checks them
    by their one-step identity along the table's rows: two independent routes.
    """

    family = "A"
    datum_family = Family.A

    def __init__(self, n: int, shape):
        super().__init__(n, None)
        self.index_set = self.index_set[1:]
        self.shape = shape = tuple(s for s in shape if s > 0)
        k = shape[0] // 2 if shape else 0
        component = k if shape in ((), (2 * k,) + (k,) * (n - 1)) else None
        self.kernel = Kernel(
            values=lambda n, l: sorted(enumerate_crystal(n, shape), key=Tableau.reading_word),
            f=lambda t, i, l: t.f(i),
            e=lambda t, i, l: t.e(i),
            eps=lambda t, i, l: t.eps(i),
            phi=lambda t, i, l: t.phi(i),
            weight=Tableau.content,
            component=lambda t, l: component,
            contains=lambda t, l: t.shape == shape,
            element_id=lambda t, n: f"T{n}:w=" + ",".join(map(str, t.reading_word())),
            size=lambda n, l: ssyt_count(shape, n + 1),
        )

    def sort_key(self, t: Tableau):
        return t.reading_word()


def reference_ssyt_count(shape, max_entry: int) -> int:
    """The hook-content product of a partition, one Fraction factor per cell."""
    shape = [s for s in shape if s > 0]
    total = Fraction(1)
    for r, length in enumerate(shape):
        for c in range(length):
            hook = (length - c) + sum(1 for below in shape[r + 1:] if below > c)
            total *= Fraction(max_entry + c - r, hook)
    assert total.denominator == 1
    return int(total)


def flatten_letters(b) -> tuple[int, ...]:
    """Flatten a nested TensorPair/Word/Tableau element to its letter word."""
    if isinstance(b, TensorPair):
        return flatten_letters(b.left) + flatten_letters(b.right)
    if isinstance(b, Word):
        return b.letters
    return b.reading_word()


def to_tensor(b) -> TensorPair:
    """The pair value (x, y) as a one-row tableau tensor an n-row tableau:
    x_j letters j, then y_j columns missing j, by decreasing j."""
    x, y = b
    n = len(x) - 1
    row = tuple(c for c in range(1, n + 2) for _ in range(x[c - 1]))
    cols = [column_missing(n, j) for j in range(n + 1, 0, -1) for _ in range(y[j - 1])]
    return TensorPair(Tableau.from_rows(n, [row] if row else []), Tableau(n, tuple(cols)))


def to_word(b) -> Word:
    return Word(len(b[0]) - 1, flatten_letters(to_tensor(b)))


def letter_f(c: int, i: int) -> Optional[int]:
    """Lowering operator on a single letter: i -> i+1, undefined elsewhere."""
    return i + 1 if c == i else None


def letter_e(c: int, i: int) -> Optional[int]:
    """Raising operator on a single letter: i+1 -> i, undefined elsewhere."""
    return i if c == i + 1 else None


def unmatched_positions(word, i: int) -> tuple[list[int], list[int]]:
    """Bracketing rule of the label i alone: positions of the letters
    surviving cancellation.

    Returns (raisable, lowerable): the indices of the unmatched i+1's and
    the unmatched i's, each increasing, so the reduced word is (i+1)^r i^s.
    """
    lowerable: list[int] = []
    raisable: list[int] = []
    for pos, c in enumerate(word):
        if c == i:
            lowerable.append(pos)
        elif c == i + 1:
            if lowerable:
                lowerable.pop()
            else:
                raisable.append(pos)
    return raisable, lowerable


def iterated_stats(kernel: Kernel, b, i: int, l=None) -> tuple[int, int]:
    """(eps_i, phi_i) of the value b: how often the kernel's e_i, and then
    its f_i, applies before it vanishes."""
    stats = []
    for op in (kernel.e, kernel.f):
        steps, cur = 0, op(b, i, l)
        while cur is not None:
            steps, cur = steps + 1, op(cur, i, l)
        stats.append(steps)
    return tuple(stats)


def pairing(datum: RootDatum, mu, i: int) -> int:
    """Integer pairing <h_i, mu> of the weight coordinates mu with the i-th
    simple coroot."""
    n = datum.rank
    if not 1 <= i <= n:
        raise IndexError(f"coroot index {i} out of range 1..{n}")
    if datum.family is Family.A or i < n:
        return mu[i - 1] - mu[i]
    if datum.family is Family.C:
        return mu[n - 1]
    return 2 * mu[n - 1]


def fundamental_coeffs(datum: RootDatum, mu) -> tuple[int, ...]:
    """Coefficients (c_1, ..., c_n) with mu = sum c_i * (i-th fundamental weight)."""
    return tuple(pairing(datum, mu, i) for i in range(1, datum.rank + 1))


def weight_from_fundamental(datum: RootDatum, coeffs) -> tuple[int, ...]:
    """Inverse of `fundamental_coeffs`.

    Raises ValueError when the given combination has no integral
    epsilon-coordinate vector (possible for A when the total is not a
    multiple of n+1, and for B when c_n is odd).
    """
    coeffs = tuple(int(c) for c in coeffs)
    n = datum.rank
    if len(coeffs) != n:
        raise ValueError(f"expected {n} fundamental coefficients, got {len(coeffs)}")
    if datum.family is Family.A:
        raw = [sum(coeffs[i - 1] for i in range(j, n + 1)) for j in range(1, n + 1)]
        raw.append(0)
        total = sum(raw)
        if total % (n + 1) != 0:
            raise ValueError("no integral sum-zero epsilon-coordinates for this weight")
        shift = total // (n + 1)
        return datum.weight(c - shift for c in raw)
    if datum.family is Family.C:
        return datum.weight(
            sum(coeffs[i - 1] for i in range(j, n + 1)) for j in range(1, n + 1)
        )
    if coeffs[n - 1] % 2 != 0:
        raise ValueError("family B needs an even spin coefficient for integral coordinates")
    half = coeffs[n - 1] // 2
    return datum.weight(
        sum(coeffs[i - 1] for i in range(j, n)) + half for j in range(1, n + 1)
    )


def reference_chain_lengths(step: Sequence[int]) -> list[int]:
    """How often `step` applies from each index before it vanishes: OUTSIDE
    counts one step, and an index that walks into a cycle gets -4.  Each
    start walks its chain, and the runs are filled in back to front."""
    unknown, on_path, cycle = -2, -3, -4
    out = [unknown] * len(step)
    for start in range(len(step)):
        path, cur = [], start
        while cur >= 0 and out[cur] == unknown:
            out[cur] = on_path
            path.append(cur)
            cur = step[cur]
        run = {UNDEFINED: -1, OUTSIDE: 0}[cur] if cur < 0 else out[cur]
        for node in reversed(path):
            run = cycle if run in (on_path, cycle) else run + 1
            out[node] = run
    return out


def reference_stats_check(model, table) -> tuple[bool, int, str]:
    """(passed, cases, detail) of `axioms/stats-closed-vs-iteration` on the
    model's table: per label, the closed `eps`/`phi` compared with the
    chain lengths of the `e`/`f` rows, and the least (element, label)
    where they differ named."""
    kernel, elems, labels = model.kernel, table.elems, table.labels
    firsts = []
    for pos, i in enumerate(labels):
        for closed, row in ((kernel.eps, table.e[i]), (kernel.phi, table.f[i])):
            lengths = reference_chain_lengths(row)
            firsts += [(b, pos) for b, value in enumerate(elems)
                       if closed(value, i, model.level) != lengths[b]][:1]
    cases = len(elems) * len(labels)
    if not firsts:
        return True, cases, ""
    b, pos = min(firsts)
    return False, cases, f"closed statistics wrong at {model.element_id(elems[b])}, i={labels[pos]}"


def reference_check_embedding(domain, target, imap, labels, *, name: str, category: str):
    """`check_embedding` as first written: injectivity through a dict from
    each image to its owner, then every (element, label, direction) case in
    turn, stopping at the first failure."""
    fail = partial(CheckResult, name, category, False)
    image: dict[int, int] = {}
    for b, c in zip(domain.indices, imap):
        if c < 0:
            return fail(0, f"{domain.element_id(b)} maps outside the target")
        if c in image:
            return fail(0, f"map not injective: {domain.element_id(b)} and {domain.element_id(image[c])}")
        image[c] = b
    rows = [(d, i, domain.row(d, i), target.row(d, i)) for i in labels for d in ("f", "e")]
    cases = 0
    for b, c in enumerate(imap):
        for direction, i, inner_row, outer_row in rows:
            cases += 1
            inner, outer = inner_row[b], outer_row[c]
            if inner != UNDEFINED:
                if inner < 0 or outer != imap[inner]:
                    return fail(
                        cases, f"arrow {direction}_{i} at {domain.element_id(b)} not preserved")
            elif outer in image:
                return fail(
                    cases, f"extra arrow {direction}_{i} inside the image at {domain.element_id(b)}")
    return CheckResult(name, category, True, cases)


def reference_check_map(domain, imap, ok, message: str, *, name: str, category: str):
    """`check_map` as first written: ok(b, imap[b]) at every domain index,
    a negative imap[b] failing; `message` names the first failure."""
    bad = next(
        (message.format(domain.element_id(b)) for b, c in enumerate(imap) if c < 0 or not ok(b, c)),
        "",
    )
    return CheckResult(name, category, not bad, len(imap), bad)


def reference_check_commutation(domain, target, imap, labels, only_when_defined: bool, *,
                                name: str, category: str):
    """`check_commutation` as first written: each (element, operator) case
    takes one branch where the operator vanishes and another where it does
    not, stopping at the first failure."""
    rows = [(f"{d}_{i}", domain.row(d, i), target.row(d, i)) for d in ("f", "e") for i in labels]
    cases = 0
    for b, c in enumerate(imap):
        for op, inner, outer in rows:
            a, other = inner[b], outer[c] if c >= 0 else OUTSIDE
            if a == UNDEFINED and only_when_defined:
                continue
            cases += 1
            if a == UNDEFINED:
                bad = other != UNDEFINED and "vanishes on {} but not on its image"
            else:
                bad = (a < 0 or imap[a] < 0 or other != imap[a]) and "does not commute with the map at {}"
            if bad:
                return CheckResult(name, category, False, cases,
                                   f"{op} " + bad.format(domain.element_id(b)))
    return CheckResult(name, category, True, cases)


def reference_connected(table) -> bool:
    """Connectivity of the f-arrows of `table`, taken undirected, by
    breadth-first search over adjacency lists."""
    size = len(table.elems)
    if size <= 1:
        return True
    adjacent: list[list[int]] = [[] for _ in range(size)]
    for row in table.f.values():
        for b, c in enumerate(row):
            if c >= 0:
                adjacent[b].append(c)
                adjacent[c].append(b)
    seen = [False] * size
    seen[0] = True
    queue = [0]
    for b in queue:
        for c in adjacent[b]:
            if not seen[c]:
                seen[c] = True
                queue.append(c)
    return len(queue) == size


def reference_in_shell(family: Family, coords, k: int) -> bool:
    """Whether mu lies in the module with highest weight k*theta: sum of
    positive coordinates <= k (A); |mu| even and <= 2k (C); |mu| <= k (B).
    k < 0 gives False (empty module)."""
    if k < 0:
        return False
    if family is Family.A:
        return sum(c for c in coords if c > 0) <= k
    s = sum(map(abs, coords))
    if family is Family.C:
        return s % 2 == 0 and s <= 2 * k
    return s <= k


def reference_on_boundary(family: Family, coords, k: int) -> bool:
    """Whether mu is in k*theta but not (k-1)*theta, by its own closed
    criteria: positive sum = k (A); |mu| = 2k (C); |mu| = k (B)."""
    if k < 0:
        return False
    if family is Family.A:
        return sum(c for c in coords if c > 0) == k
    s = sum(map(abs, coords))
    return s == (2 * k if family is Family.C else k)


def reference_image_equality(run) -> tuple[int, str]:
    """The cases and detail of `boundary/image-equality` on a `TheoremRun`,
    by one set of level-l codes per component: the images of the level maps
    (by source component + step) and the indices whose weight lies inside
    (k-1)*theta, k their component."""
    big, l = run.big, run.l
    images = [set() for _ in range(l + 1)]
    for _, step, domain, imap in run.level_maps:
        for b, c in enumerate(imap):
            k = domain.comp[b] + step
            if k <= l:
                images[k].add(c)
    inner = [set() for _ in range(l + 1)]
    for b, k in enumerate(big.comp):
        if reference_in_shell(run.family, big.weight[b], k - 1):
            inner[k].add(b)
    bad = next((f"image description fails in component k={k}"
                for k in range(l + 1) if images[k] != inner[k]), "")
    return sum(len(s) for s in inner), bad


def reference_dot(graph) -> bytes:
    """The DOT export of `graph` written one f-string per record."""
    def weight(w):
        return "(" + ",".join(str(c) for c in w) + ")"

    lines = ["digraph crystal {\n"]
    lines += [
        f'  "{v.id}" [label="{v.id}\\nwt={weight(v.weight)} k={"-" if v.k is None else v.k}"];\n'
        for v in graph.vertices
    ]
    lines += [f'  "{e.src}" -> "{e.dst}" [label="{e.label}"];\n' for e in graph.edges]
    lines.append("}\n")
    return "".join(lines).encode("utf-8")


def reference_factor_id(letter: str, v, n: int) -> str:
    """The id of an `a1` factor value, made with no cache: `letter` is "x"
    for the row factor and "y" for the column factor."""
    return f"A{n}:{letter}=" + ",".join(str(c) for c in v)


def reference_pair_id(b, n: int) -> str:
    """The id of an `a1` pair value (x, y), made with no cache."""
    x, y = b
    return reference_factor_id("x", x, n) + ";y=" + ",".join(str(c) for c in y)


# The `a1` kernels as they were first written: each factor operator is one
# general shift, and the pair asks the factor kernels for the statistics its
# tensor rule compares.


def reference_shift(vec, minus: int, plus: int):
    """vec with one unit moved from slot `minus` to slot `plus`; None when
    slot `minus` is empty."""
    if vec[minus] == 0:
        return None
    out = list(vec)
    out[minus] -= 1
    out[plus] += 1
    return tuple(out)


def reference_row_f(x, i):
    return reference_shift(x, i - 1, i)


def reference_row_e(x, i):
    return reference_shift(x, i, i - 1)


def reference_col_f(y, i):
    return reference_shift(y, i, i - 1)


def reference_col_e(y, i):
    return reference_shift(y, i - 1, i)


def _row_eps(x, i):
    return x[i]


def _row_phi(x, i):
    return x[i - 1]


def _col_eps(y, i):
    return y[i - 1]


def _col_phi(y, i):
    return y[i]


def reference_pair_f(b, i):
    x, y = b
    if _row_phi(x, i) > _col_eps(y, i):
        new = reference_row_f(x, i)
        return None if new is None else (new, y)
    new = reference_col_f(y, i)
    return None if new is None else (x, new)


def reference_pair_e(b, i):
    x, y = b
    if _row_phi(x, i) >= _col_eps(y, i):
        new = reference_row_e(x, i)
        return None if new is None else (new, y)
    new = reference_col_e(y, i)
    return None if new is None else (x, new)


def reference_pair_eps(b, i):
    x, y = b
    return _row_eps(x, i) + max(0, _col_eps(y, i) - _row_phi(x, i))


def reference_pair_phi(b, i):
    x, y = b
    return _col_phi(y, i) + max(0, _row_phi(x, i) - _col_eps(y, i))


# The `c1` and `d2` kernels as they were first written: every operator result
# goes through one general move that re-checks the crystal's bounds.


def reference_c1_moved(x, l, i, di, j=0, dj=0):
    """x with x[i] += di and x[j] += dj; None when that leaves the `c1`
    crystal, which only a changed coordinate or, for a move up, the level
    bound shows."""
    out = list(x)
    out[i] += di
    out[j] += dj
    bad = out[i] < 0 or out[j] < 0 or (di + dj > 0 and sum(out) > 2 * l)
    return None if bad else tuple(out)


def reference_c1_f(x, i, l):
    n = len(x) // 2
    if i == 0:
        if x[0] >= x[-1]:
            return reference_c1_moved(x, l, 0, +2)
        if x[0] == x[-1] - 1:
            return reference_c1_moved(x, l, 0, +1, -1, -1)
        return reference_c1_moved(x, l, -1, -2)
    if i == n:
        return reference_c1_moved(x, l, n - 1, -1, n, +1)
    if x[i] >= x[-1 - i]:
        return reference_c1_moved(x, l, i - 1, -1, i, +1)
    return reference_c1_moved(x, l, -1 - i, -1, -i, +1)


def reference_c1_e(x, i, l):
    n = len(x) // 2
    if i == 0:
        if x[0] >= x[-1] + 2:
            return reference_c1_moved(x, l, 0, -2)
        if x[0] == x[-1] + 1:
            return reference_c1_moved(x, l, 0, -1, -1, +1)
        return reference_c1_moved(x, l, -1, +2)
    if i == n:
        return reference_c1_moved(x, l, n - 1, +1, n, -1)
    if x[i] > x[-1 - i]:
        return reference_c1_moved(x, l, i - 1, +1, i, -1)
    return reference_c1_moved(x, l, -1 - i, +1, -i, -1)


def reference_c1_eps(x, i, l):
    if i == 0:
        return (l - sum(x) // 2) + max(0, x[0] - x[-1])
    if i == len(x) // 2:
        return x[-i]
    return x[-i] + max(0, x[i] - x[-1 - i])


def reference_c1_phi(x, i, l):
    if i == 0:
        return (l - sum(x) // 2) + max(0, x[-1] - x[0])
    if i == len(x) // 2:
        return x[i - 1]
    return x[i - 1] + max(0, x[-1 - i] - x[i])


def reference_c1_boundary(x):
    return all(min(x[j], x[-1 - j]) == 0 for j in range(len(x) // 2))


def reference_d2_moved(b, l, i, di, j=0, dj=0):
    """b with b[i] += di and b[j] += dj; None when that leaves the `d2`
    crystal, which only a changed coordinate or, for a move up, the level
    bound shows."""
    out = list(b)
    out[i] += di
    out[j] += dj
    bad = out[i] < 0 or out[j] < 0 or out[len(out) // 2] > 1 or (di + dj > 0 and sum(out) > l)
    return None if bad else tuple(out)


def reference_d2_f(b, i, l):
    n = len(b) // 2
    if i == 0:
        if b[0] >= b[-1]:
            return reference_d2_moved(b, l, 0, +1)
        return reference_d2_moved(b, l, -1, -1)
    if i == n:
        if b[n] == 0:
            return reference_d2_moved(b, l, n - 1, -1, n, +1)
        return reference_d2_moved(b, l, n, -1, -n, +1)
    if b[i] >= b[-1 - i]:
        return reference_d2_moved(b, l, i - 1, -1, i, +1)
    return reference_d2_moved(b, l, -1 - i, -1, -i, +1)


def reference_d2_e(b, i, l):
    n = len(b) // 2
    if i == 0:
        if b[0] > b[-1]:
            return reference_d2_moved(b, l, 0, -1)
        return reference_d2_moved(b, l, -1, +1)
    if i == n:
        if b[n] == 0:
            return reference_d2_moved(b, l, n, +1, -n, -1)
        return reference_d2_moved(b, l, n - 1, +1, n, -1)
    if b[i] > b[-1 - i]:
        return reference_d2_moved(b, l, i - 1, +1, i, -1)
    return reference_d2_moved(b, l, -1 - i, +1, -i, -1)


def reference_d2_eps(b, i, l):
    n = len(b) // 2
    if i == 0:
        return (l - sum(b)) + 2 * max(0, b[0] - b[-1])
    if i == n:
        return 2 * b[-n] + b[n]
    return b[-i] + max(0, b[i] - b[-1 - i])


def reference_d2_phi(b, i, l):
    n = len(b) // 2
    if i == 0:
        return (l - sum(b)) + 2 * max(0, b[-1] - b[0])
    if i == n:
        return 2 * b[n - 1] + b[n]
    return b[i - 1] + max(0, b[-1 - i] - b[i])


def reference_d2_boundary(b):
    return b[len(b) // 2] == 0 and all(min(b[j], b[-1 - j]) == 0 for j in range(len(b) // 2))
