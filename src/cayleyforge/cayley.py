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
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

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
    side: str
    radius: int
    policy: str
    vertices: tuple[Word, ...]
    edges: tuple[tuple[int, int, str], ...]
    frontier: tuple[tuple[int, str, Word], ...] = ()

    @cached_property
    def _digraph(self) -> UnlabelledDigraph:
        """See :func:`strip_labels`."""
        return UnlabelledDigraph(len(self.vertices), [(s, d) for s, d, _ in self.edges])


@dataclass(frozen=True)
class UnlabelledDigraph:
    """Arc multiset on vertices 0..n-1; loops and parallel arcs allowed.

    ``arcs`` is stored sorted, so equality follows the multiset.
    ``out[v]`` and ``inc[v]`` list the heads of the arcs leaving ``v``
    and the tails of the arcs entering it, with multiplicity and in arc
    order.  They are built once with the digraph, take no part in its
    construction, comparison, hash or repr, and must not be mutated.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    out: list[list[int]] = field(init=False, repr=False, compare=False)
    inc: list[list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count n={self.n} is negative")
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))
        out: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        try:
            for src, dst in self.arcs:
                if src < 0 or dst < 0:
                    raise IndexError
                out[src].append(dst)
                inc[dst].append(src)
        except IndexError:
            raise ValueError(
                f"arc ({src}, {dst}) out of range for n={self.n}"
            ) from None
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "inc", inc)


def build_ball(
    system: RewritingSystem, side: str, radius: int, policy: str = "closed"
) -> CayleyBall:
    """Construct the ball of the given radius around the identity.

    Needs a certified system.  Edges and frontier targets are listed by
    source vertex, then by generator in alphabet order.

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
    met = [iter(ids) for ids in ending]
    states = [automaton.start] * len(reads)
    met_from = [0] * len(reads)
    width = len(system.alphabet)
    letters = tuple(enumerate(system.alphabet))
    step, match_length, rhs_ids = automaton.step, automaton.match_length, automaton.rhs_ids
    keep_frontier = policy == "with_frontier"
    targets: list[int] = []  # targets[src * width + symbol]; -1 outside the ball
    edges: list[tuple[int, int, str]] = []
    frontier: list[tuple[int, str, Word]] = []
    for src, r in enumerate(reads):
        state = states[src]
        known = state.next
        on_rim = len(r) == radius
        for symbol, g in letters:
            nxt = known[symbol] or step(state, symbol)
            rule = nxt.rule
            if rule is None:
                if on_rim:
                    targets.append(-1)
                    if keep_frontier:
                        frontier.append((src, g, r + g if right else g + r[::-1]))
                    continue
                dst = next(met[symbol])
                states[dst] = nxt
                met_from[dst] = src
            else:
                dst = src
                for _ in range(match_length(rule, r + g) - 1):
                    dst = met_from[dst]
                for h in rhs_ids[rule]:
                    dst = targets[dst * width + h]
            targets.append(dst)
            edges.append((src, dst, g))
    return CayleyBall(
        side, radius, policy, tuple(vertices), tuple(edges), tuple(frontier)
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
    degree = list(zip(map(len, g.inc), map(len, g.out)))
    pairs = sorted(set(degree))
    code = list(map({p: c for c, p in enumerate(pairs)}.__getitem__, degree))
    code_at = code.__getitem__
    seen = Counter(
        zip(
            code,
            [tuple(map(code_at, heads)) for heads in g.out],
            [tuple(map(code_at, tails)) for tails in g.inc],
        )
    )
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
