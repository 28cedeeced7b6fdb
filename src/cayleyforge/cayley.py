"""Cayley-graph balls of a complete rewriting system.

Vertices of a ball of radius L are the irreducible words of length at
most L, numbered in shortlex order (vertex 0 is the empty word).  Every
rule shortens the word, so in a complete system the length of a normal
form equals its directed distance from the identity, and this vertex
set is exactly the directed ball of that radius.  Edges follow one
generator: ``x -> x.g`` on the right side, ``x -> g.x`` on the left.  A
target that reduces back inside the ball becomes an edge; a target
outside is either dropped (``closed``) or recorded (``with_frontier``).
The ball is built from the system's left-side automaton and reduces no
word.

A ball stores its vertices and one transition table, with one entry per
vertex and generator, and nothing per arc: ``edges`` and ``frontier``
are read-only views derived from the table.  Its digraph, built once by
:func:`strip_labels`, stores each vertex's heads and tails as tuples,
plus the sorted arc pairs that :func:`~cayleyforge.isomorphism.
validate_certificate` compares.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, cycle, repeat
from operator import gt, le

from .normal_forms import enumerate_normal_forms
from .rewriting import (
    IncompleteSystemError,
    RewritingSystem,
    Word,
    show_word,
)

SIDES = ("right", "left")
POLICIES = ("closed", "with_frontier")


@dataclass(frozen=True)
class CayleyBall:
    """A ball as its vertices and one transition table, and nothing per
    arc.

    ``targets[v * len(alphabet) + i]`` is the vertex that generator
    ``alphabet[i]`` leads to from vertex ``v``, or -1 when the product
    lies outside the ball.  ``edges`` and ``frontier`` are read-only
    :class:`TableView` sequences derived from the table on each read.
    """

    side: str
    radius: int
    policy: str
    vertices: tuple[Word, ...]
    alphabet: tuple[str, ...]
    targets: tuple[int, ...]

    @property
    def edges(self) -> TableView:
        """``(src, dst, g)`` for each table entry inside the ball, by
        source vertex, then by generator in alphabet order."""
        return TableView(self, frontier=False)

    @property
    def frontier(self) -> TableView:
        """``(src, g, target word)`` for each table entry outside the
        ball, in the same order; empty under the ``closed`` policy."""
        return TableView(self, frontier=True)

    @cached_property
    def _digraph(self) -> UnlabelledDigraph:
        """See :func:`strip_labels`."""
        targets, width = self.targets, len(self.alphabet)
        if not width:
            return UnlabelledDigraph(len(self.vertices), ())
        # The rows before the first -1 entry (a product outside the ball)
        # have no entry to drop; in a built ball they are all the rows
        # but the rim, which comes last in shortlex order.  Each is taken
        # as zip makes it, and sorted only if an entry exceeds the next.
        inside = targets.index(-1) // width if -1 in targets else len(self.vertices)
        end = inside * width
        columns = [targets[i:end:width] for i in range(width)]
        heads: list[tuple[int, ...]] = list(zip(*columns))
        descents = [map(gt, a, b) for a, b in zip(columns, columns[1:])]
        for v in compress(range(inside), map(any, zip(*descents))):
            heads[v] = tuple(sorted(heads[v]))
        # Each later row is sorted, so that its -1 entries lead and are
        # cut off.
        keep = heads.append
        for row in map(sorted, zip(*[targets[end + i :: width] for i in range(width)])):
            if row[0] < 0:
                del row[: row.count(-1)]
            keep(tuple(row))
        return UnlabelledDigraph._from_rows(heads)


class TableView:
    """A read-only sequence of a ball's edges, or of its frontier
    targets, derived from the ball's table on each read.  Its length is
    a count of table entries, its items are made as they are iterated,
    and it equals the tuple of its items.  Indexing and slicing build
    that tuple first."""

    __slots__ = ("_ball", "_frontier")

    def __init__(self, ball: CayleyBall, frontier: bool) -> None:
        self._ball, self._frontier = ball, frontier

    def __len__(self) -> int:
        ball = self._ball
        outside = ball.targets.count(-1)
        if not self._frontier:
            return len(ball.targets) - outside
        return outside if ball.policy == "with_frontier" else 0

    def __iter__(self) -> Iterator[tuple]:
        ball = self._ball
        targets, letters, words = ball.targets, ball.alphabet, ball.vertices
        # (source, target, generator) for each table entry, in table
        # order: each source repeats once per letter.
        sources = chain.from_iterable(zip(*[range(len(words))] * len(letters)))
        entries = zip(sources, targets, cycle(letters))
        if not self._frontier:
            return compress(entries, map(le, repeat(0), targets))
        if ball.policy != "with_frontier":
            return iter(())
        outside = compress(entries, map(gt, repeat(0), targets))
        if ball.side == "right":
            return ((src, g, words[src] + g) for src, _, g in outside)
        return ((src, g, g + words[src]) for src, _, g in outside)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TableView):
            other = tuple(other)
        return tuple(self) == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class UnlabelledDigraph:
    """Arc multiset on vertices 0..n-1; loops and parallel arcs allowed.

    ``arcs`` is stored sorted, so equality follows the multiset.
    ``out[v]`` and ``inc[v]`` are tuples of the heads of the arcs
    leaving ``v`` and of the tails of the arcs entering it, with
    multiplicity and in increasing order.  They are built once with the
    digraph and take no part in its comparison, hash or repr.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    inc: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count n={n} is negative")
        arcs = tuple(sorted(self.arcs))
        heads: list[list[int]] = [[] for _ in range(n)]
        for src, dst in arcs:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"arc ({src}, {dst}) out of range for n={n}")
            heads[src].append(dst)
        self._set_rows(arcs, heads)

    @classmethod
    def _from_rows(cls, heads: list[tuple[int, ...]]) -> UnlabelledDigraph:
        """The digraph with arcs from each vertex ``v`` to ``heads[v]``,
        given in increasing order.  The arcs are read off the rows in
        sorted order, so nothing is sorted."""
        graph = object.__new__(cls)
        arcs = tuple([(src, dst) for src, row in enumerate(heads) for dst in row])
        graph._set_rows(arcs, heads)
        return graph

    def _set_rows(self, arcs: tuple[tuple[int, int], ...], heads: list) -> None:
        """Store the sorted ``arcs``, their heads by tail as ``out`` and
        their tails by head as ``inc``, each row a tuple.  Tails are met
        in arc order, so each row of ``inc`` is increasing.  A head's
        first tail goes into one flat list and only its later tails into
        a list of their own, so a vertex entered at most once costs no
        list."""
        first = [-1] * len(heads)
        later: dict[int, list[int]] = {}
        for src, dst in arcs:
            if first[dst] < 0:
                first[dst] = src
            elif dst in later:
                later[dst].append(src)
            else:
                later[dst] = [src]
        tails = list(zip(first))
        for dst in compress(range(len(first)), map(gt, repeat(0), first)):
            tails[dst] = ()
        for dst, rest in later.items():
            tails[dst] = (first[dst], *rest)
        object.__setattr__(self, "n", len(heads))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "out", tuple(map(tuple, heads)))
        object.__setattr__(self, "inc", tuple(tails))


def build_ball(
    system: RewritingSystem, side: str, radius: int, policy: str = "closed"
) -> CayleyBall:
    """Construct the ball of the given radius around the identity.

    Needs a certified system.  The ball stores one table entry per
    vertex and generator, the target vertex or -1; its edges and
    frontier targets are read from the table (see :class:`CayleyBall`).

    No word is reduced.  The automaton of the side reads each vertex
    ``v`` in the direction its products grow: ``system.automaton``
    reads it forwards on the right, ``system.mirror.automaton``
    backwards on the left.  Then the product ``v.g`` (``g.v``) reads as
    the reading of ``v`` plus ``g``, one transition from the state of
    ``v``.  If the product's state names no rule, the product is
    irreducible: a vertex when ``|v| < radius``, otherwise a target
    outside the ball.  The vertices met this way by ``g``, in source
    order, are the vertices whose reading ends with ``g``, in vertex
    order: each is met once, from the vertex whose reading is one letter
    shorter, and among the words ending (starting) with ``g``, shortlex
    order is that of the rest of the word.  So each gets its number
    without a lookup, and keeps its state and the vertex it was met
    from.  If the state names a rule, the product reads as ``x.l``,
    with ``l`` the rule's left side as that automaton reads it and
    ``x`` a prefix of the reading of ``v``: the reading of the vertex
    ``|l| - 1`` steps back along the vertices met from.  The target is
    reached from ``x`` along the edges labelled by the rule's right side
    ``r`` as read.

    *Length-reducing.*  Vertices are visited in shortlex order.  Walking
    from ``x``, the vertex reached after ``i < |r|`` edges has length at
    most ``|x| + i <= |x| + |r| - 1 <= |x| + |l| - 2 = |v| - 1``, since
    ``|r| < |l|``, which every rule and schema checks when it is built.
    So every edge taken leaves a vertex shorter than ``v``, which has
    all its edges already, and they stay in the ball; the final target
    has length at most ``|x| + |r| <= |v|`` and is in the ball too.

    *Certified.*  By induction along shortlex order, the stored
    ``h``-edge of each shorter vertex ``y`` leads to the normal form of
    ``y.h`` (``h.y``), so the walk ends at an irreducible word that
    ``x.r`` (``r.x``, with ``x`` and ``r`` as words) rewrites to, and
    ``x.r`` is one rewrite from the product.  The certificate attests
    that the system is confluent (for schemas, up to its bound), and on
    a confluent system every word has one normal form, whatever the
    order of rewrites; so the target is ``normal_form(v.g)``
    (``normal_form(g.v)``).
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not system.is_certified:
        raise IncompleteSystemError(
            "build_ball needs a certified system; call certify() first"
        )
    right = side == "right"
    automaton = (system if right else system.mirror).automaton
    vertices = enumerate_normal_forms(system, radius)
    # Each vertex as its automaton reads it: forwards on the right,
    # backwards on the left.
    reads = vertices if right else [v[::-1] for v in vertices]
    # The vertices met by each symbol, in the order they are met.
    ending: list[list[int]] = [[] for _ in system.alphabet]
    for i, r in enumerate(reads[1:], 1):
        ending[automaton.symbol_ids[r[-1]]].append(i)
    met = [iter(ids).__next__ for ids in ending]
    states = [automaton.start] * len(reads)
    met_from = [0] * len(reads)
    width = len(system.alphabet)
    letters = tuple(enumerate(system.alphabet))
    step, match_length, rhs_ids = automaton.step, automaton.match_length, automaton.rhs_ids
    targets: list[int] = []  # targets[src * width + symbol]; -1 outside the ball
    put = targets.append
    for src, r in enumerate(reads):
        state = states[src]
        known = state.next
        on_rim = len(r) == radius
        for symbol, g in letters:
            nxt = known[symbol] or step(state, symbol)
            rule = nxt.rule
            if rule is None:
                if on_rim:
                    put(-1)
                    continue
                dst = met[symbol]()
                states[dst] = nxt
                met_from[dst] = src
            else:
                dst = src
                for _ in range(match_length(rule, r + g) - 1):
                    dst = met_from[dst]
                for h in rhs_ids[rule]:
                    dst = targets[dst * width + h]
            put(dst)
    return CayleyBall(
        side, radius, policy, tuple(vertices), system.alphabet, tuple(targets)
    )


def strip_labels(ball: CayleyBall) -> UnlabelledDigraph:
    """Drop generator labels, keeping arc multiplicities.  The digraph is
    built on the first call and kept with the ball, so each ball is
    stripped once."""
    return ball._digraph


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants; a mismatch certifies non-isomorphism."""

    vertex_count: int
    arc_count: int
    degree_pairs: tuple[tuple[int, int], ...]
    neighbor_profiles: tuple[tuple, ...]

    def first_difference(self, other: Fingerprint) -> str | None:
        """Name of the first differing component, or None if equal."""
        if self.vertex_count != other.vertex_count:
            return "vertex count"
        if self.arc_count != other.arc_count:
            return "arc count"
        if self.degree_pairs != other.degree_pairs:
            return "in/out degree-pair multiset"
        if self.neighbor_profiles != other.neighbor_profiles:
            return "two-step degree profile multiset"
        return None


def graph_invariants(g: UnlabelledDigraph) -> Fingerprint:
    """Vertex/arc counts, the degree-pair multiset, and per-vertex
    profiles of the degree pairs seen one step out and one step in.

    The profiles are counted, not sorted whole.  Each distinct degree
    pair gets its rank among them as a code, so codes order as the pairs
    do.  Profiles are counted as keys of codes in neighbour-list order;
    only the distinct keys are then sorted, inside and among themselves,
    and each is written out as pairs, as often as it was counted.  Their
    own pairs, in that order, are the sorted degree pairs.
    """
    pairs = sorted(set(zip(map(len, g.inc), map(len, g.out))))
    rank = {p: c for c, p in enumerate(pairs)}
    code = list(map(rank.__getitem__, zip(map(len, g.inc), map(len, g.out))))
    code_at = code.__getitem__

    def coded(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, ...]]:
        return map(tuple, map(map, repeat(code_at), rows))

    # Each vertex's key is made as the Counter reads it.
    seen = Counter(zip(code, coded(g.out), coded(g.inc)))
    profiles: Counter = Counter()
    for (c, heads, tails), count in seen.items():
        profiles[c, tuple(sorted(heads)), tuple(sorted(tails))] += count
    pair_at = pairs.__getitem__
    neighbor_profiles: list[tuple] = []
    for (c, heads, tails), count in sorted(profiles.items()):
        profile = (pairs[c], tuple(map(pair_at, heads)), tuple(map(pair_at, tails)))
        neighbor_profiles += [profile] * count
    # Profiles are sorted by their own pair first.
    degree_pairs = tuple(profile[0] for profile in neighbor_profiles)
    return Fingerprint(g.n, len(g.arcs), degree_pairs, tuple(neighbor_profiles))


def _dot_label(text: str) -> str:
    """``text`` as a quoted DOT string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(ball: CayleyBall) -> str:
    """Graphviz text with the vertex words as node labels.  Byte-stable
    per input."""
    if not isinstance(ball, CayleyBall):
        raise TypeError(f"cannot export {type(ball).__name__} as DOT")
    lines = ["digraph {"]
    for i, w in enumerate(ball.vertices):
        lines.append(f"  v{i} [label={_dot_label(show_word(w))}];")
    for src, dst, g in ball.edges:
        lines.append(f"  v{src} -> v{dst} [label={_dot_label(g)}];")
    outside: dict[Word, int] = {}
    for src, g, target in ball.frontier:
        if target not in outside:
            outside[target] = len(outside)
            lines.append(
                f"  f{outside[target]} [label={_dot_label(target)}, style=dashed];"
            )
        lines.append(
            f"  v{src} -> f{outside[target]} [label={_dot_label(g)}, style=dashed];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(ball: CayleyBall) -> str:
    if not isinstance(ball, CayleyBall):
        raise TypeError(f"cannot export {type(ball).__name__} as JSON")
    payload = {
        "side": ball.side,
        "radius": ball.radius,
        "policy": ball.policy,
        "vertices": list(ball.vertices),
        "edges": [[src, dst, g] for src, dst, g in ball.edges],
        "frontier": [[src, g, target] for src, g, target in ball.frontier],
    }
    return json.dumps(payload, ensure_ascii=False)
