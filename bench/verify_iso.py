"""verify-iso: the paper's headline check, radius by radius.

For each radius up to 10 the closed right balls of M and N are built,
the explicit normal-form bijection is verified, and ``find_isomorphism``
searches the label-free balls independently.  Then
``separate_left_graphs`` finds the radius at which the left balls part.
The search takes nearly all of the time (radius 10 alone most of it) and
ball building a small share, so search changes show here.  Radius 12
would make one search call last seconds, too long for its fastest
repetition to escape other load on a shared machine.  The check has no
random part: the tasks run in increasing radius for every seed, so no
seed changes the work or the order in which the allocator and collector
see it.
"""

from __future__ import annotations

from cayleyforge import (
    build_ball,
    find_isomorphism,
    separate_left_graphs,
    strip_labels,
    system_m,
    system_n,
    verify_explicit_iso,
)

from harness import Plan, Task
from reference import (
    M_ALPHABET,
    N_ALPHABET,
    N_RULES,
    ball_arcs,
    count_irreducible,
    degree_profiles,
    find_small_isomorphism,
    is_isomorphism,
    m_rules,
)

RADII = range(1, 11)
TINY_RADII = range(1, 7)
SEPARATION_LIMIT = 8
TINY_SEPARATION_LIMIT = 5
SEPARATION_RADIUS = 4  # the paper's claim
KNOWN_SIZES = {4: 30, 5: 57}


def _radius_task(radius: int, systems) -> Task:
    def run(client):
        ball_m = client.call(build_ball, systems["M"], "right", radius, "closed")
        ball_n = client.call(build_ball, systems["N"], "right", radius, "closed")
        report = client.call(verify_explicit_iso, ball_m, ball_n)
        g_m = client.call(strip_labels, ball_m)
        g_n = client.call(strip_labels, ball_n)
        search = client.call(find_isomorphism, g_m, g_n)
        return ball_m, ball_n, report, g_m, g_n, search

    def check(out):
        ball_m, ball_n, report, g_m, g_n, search = out
        n = count_irreducible(M_ALPHABET, m_rules(radius), radius)
        if count_irreducible(N_ALPHABET, N_RULES, radius) != n:
            return f"radius {radius}: the reference counts of M and N differ"
        if len(ball_m.vertices) != n or len(ball_n.vertices) != n:
            sizes = f"{len(ball_m.vertices)} and {len(ball_n.vertices)}"
            return f"radius {radius}: balls have {sizes} vertices, not {n}"
        if KNOWN_SIZES.get(radius, n) != n:
            return f"radius {radius}: |ball| is {n}, not {KNOWN_SIZES[radius]}"
        for ball, g in ((ball_m, g_m), (ball_n, g_n)):
            if g.n != n or list(g.arcs) != sorted((s, d) for s, d, _ in ball.edges):
                return f"radius {radius}: strip_labels lost or added arcs"
        if not report.verified or not is_isomorphism(n, g_m.arcs, g_n.arcs, report.mapping):
            return f"radius {radius}: explicit bijection is not an isomorphism"
        if search.status != "isomorphic" or not is_isomorphism(
            n, g_m.arcs, g_n.arcs, search.certificate.mapping
        ):
            return f"radius {radius}: search certificate is not an isomorphism"
        return None

    return Task("radius", run, check)


def _separation_task(limit: int) -> Task:
    def check(report):
        if not report.separated or report.radius != SEPARATION_RADIUS:
            return f"left balls separated at {report.radius}, not {SEPARATION_RADIUS}"
        m_rules_short = m_rules(SEPARATION_RADIUS + 1)
        before = SEPARATION_RADIUS - 1
        n, arcs_m = ball_arcs(M_ALPHABET, m_rules_short, before, "left")
        _, arcs_n = ball_arcs(N_ALPHABET, N_RULES, before, "left")
        if find_small_isomorphism(n, arcs_m, arcs_n) is None:
            return f"reference finds the left balls of radius {before} non-isomorphic"
        n, arcs_m = ball_arcs(M_ALPHABET, m_rules_short, SEPARATION_RADIUS, "left")
        _, arcs_n = ball_arcs(N_ALPHABET, N_RULES, SEPARATION_RADIUS, "left")
        if degree_profiles(n, arcs_m) == degree_profiles(n, arcs_n):
            return "reference degree profiles do not separate the left balls at radius 4"
        return None

    return Task(
        "separation", lambda client: client.call(separate_left_graphs, limit), check
    )


def make_plan(rng, tiny: bool) -> Plan:
    radii = TINY_RADII if tiny else RADII
    limit = TINY_SEPARATION_LIMIT if tiny else SEPARATION_LIMIT
    systems = {"M": system_m(), "N": system_n()}
    return Plan(
        tasks=[_radius_task(r, systems) for r in radii] + [_separation_task(limit)],
        inputs=[("radius", r) for r in radii] + [("separate_left_graphs", limit)],
        items=sum(2 * count_irreducible(M_ALPHABET, m_rules(r), r) for r in radii),
        warmup=lambda client: client.call(build_ball, systems["M"], "right", 3, "closed"),
        systems=systems,
    )
