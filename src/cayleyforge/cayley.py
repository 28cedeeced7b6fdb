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
from dataclasses import dataclass, field

from .normal_forms import _irreducible_words
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

    def vertex_index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.vertices)}


@dataclass(frozen=True)
class UnlabelledDigraph:
    """Arc multiset on vertices 0..n-1; loops and parallel arcs allowed.

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
        out: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for src, dst in self.arcs:
            if not (0 <= src < self.n and 0 <= dst < self.n):
                raise ValueError(f"arc ({src}, {dst}) out of range for n={self.n}")
            out[src].append(dst)
            inc[dst].append(src)
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
    ``v``, and that state is one transition from the state of the
    shorter vertex ``v[:-1]`` (``v[1:]``).  If the product's state names
    no rule, the product is irreducible: a vertex when ``|v| < radius``,
    otherwise a target outside the ball.  If it names a rule, the
    product reads as ``x.l``, with ``l`` the rule's left side as that
    automaton reads it and ``x`` the reading of a prefix (suffix) of
    ``v``, hence of a vertex.  The target is reached from ``x`` along
    the edges labelled by the rule's right side ``r`` as read.

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
    vertices, states = _irreducible_words(system, radius)
    # Each vertex as its automaton reads it: forwards on the right,
    # backwards on the left.
    reads = vertices if right else [v[::-1] for v in vertices]
    index = {r: i for i, r in enumerate(reads)}
    if not right:
        states = [automaton.start]
        for r in reads[1:]:
            states.append(
                automaton.step(states[index[r[:-1]]], automaton.symbol_ids[r[-1]])
            )
    width = len(system.alphabet)
    targets: list[int] = []  # targets[src * width + symbol]; -1 outside the ball
    edges: list[tuple[int, int, str]] = []
    frontier: list[tuple[int, str, Word]] = []
    for src, r in enumerate(reads):
        state = states[src]
        for symbol, g in enumerate(system.alphabet):
            nxt = automaton.step(state, symbol)
            product = r + g
            if nxt.rule is None:
                if len(r) == radius:
                    targets.append(-1)
                    if policy == "with_frontier":
                        frontier.append((src, g, product if right else product[::-1]))
                    continue
                dst = index[product]
            else:
                length = automaton.match_length(nxt.rule, product)
                dst = index[product[: len(product) - length]]
                for h in automaton.rhs_ids[nxt.rule]:
                    dst = targets[dst * width + h]
            targets.append(dst)
            edges.append((src, dst, g))
    return CayleyBall(
        side, radius, policy, tuple(vertices), tuple(edges), tuple(frontier)
    )


def strip_labels(ball: CayleyBall) -> UnlabelledDigraph:
    """Drop generator labels, keeping arc multiplicities."""
    return UnlabelledDigraph(
        len(ball.vertices), tuple(sorted((s, d) for s, d, _ in ball.edges))
    )


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
    profiles of the degree pairs seen one step out and one step in."""
    degree = [(len(g.inc[v]), len(g.out[v])) for v in range(g.n)]
    profiles = [
        (
            degree[v],
            tuple(sorted(degree[u] for u in g.out[v])),
            tuple(sorted(degree[u] for u in g.inc[v])),
        )
        for v in range(g.n)
    ]
    return Fingerprint(
        g.n, len(g.arcs), tuple(sorted(degree)), tuple(sorted(profiles))
    )


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
