"""Cellular surgery on polygon-space complexes.

A genetic code is reached from the minimal code by a saturated chain of
single-set additions.  Each addition is realized on the cell complex:
locate the cells whose pattern keeps the complement units in a single
block (an embedded sphere, or its quotient in a projective complex), cut
them out, and close the cut.  ``collapse`` does so in every dimension by
Panina's rule, so that every complex on the chain is the cyclic-partition
complex of its code (``surgery_step``); ``attach`` does so on surfaces by
inserting new cells (``surgery_2d``).

``run_chain`` drives a whole saturated chain.  ``run_model`` builds a
simplicial mapping-cylinder model, from the face poset, of a code that
needs at most one surgery.  Every step is audited; failures raise rather
than degrade.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .coxeter import (
    Cell,
    RegularCellComplex,
    _ordered_partitions,
    connected_components,
    coxeter_complex,
    projective_quotient,
    reversal,
)
from .errors import (
    AuditError,
    ChainInterferenceError,
    Not2DError,
    NotApplicableError,
    ProjectionNotSimplicialError,
    SphereNotEmbeddedError,
    SphereRelocationFailedError,
)
from .genetics import GeneticCode, saturated_chain
from .homology import (
    SimplicialComplex,
    _chain_counter,
    _order_chains,
    barycentric,
    homology,
    proper_faces,
)
from .posets import canonical_partition


def restrict_pattern(pattern: tuple, units: frozenset) -> tuple:
    """Keep only the given units in each block, dropping emptied blocks."""
    return tuple(b & units for b in pattern if b & units)


def _pattern_key(pattern: tuple) -> tuple:
    return tuple(tuple(sorted(b)) for b in pattern)


def _canonical_pattern_key(pattern: tuple) -> tuple:
    return min(_pattern_key(pattern), _pattern_key(reversal(pattern)))


# ---------------------------------------------------------------------------
# Locating spheres.
# ---------------------------------------------------------------------------


def sphere_cells(
    complex_: RegularCellComplex, units: frozenset
) -> tuple[int, ...]:
    """Cells whose pattern keeps all of ``units`` inside a single block."""
    return tuple(
        sorted(
            c.ident
            for c in complex_
            if c.pattern and any(units <= b for b in c.pattern)
        )
    )


def locate_sphere(
    complex_: RegularCellComplex,
    units: frozenset,
    projective: bool = False,
) -> tuple[int, ...]:
    """Find and audit the embedded surgery sphere for a unit set, or in a
    projective complex its quotient, the real projective space."""
    ids = sphere_cells(complex_, units)
    if not ids:
        raise SphereRelocationFailedError(
            f"no cells keep units {sorted(units)} together"
        )
    id_set = set(ids)
    for i in ids:
        for f in complex_.cells[i].facets:
            if f not in id_set:
                raise SphereRelocationFailedError(
                    f"sphere is not a closed subcomplex at cell {i}"
                )
    index = max(complex_.cells[i].dim for i in ids)
    shape = f"RP^{index}" if projective else f"{index}-sphere"
    if index == 0:
        expected = 1 if projective else 2
        if len(ids) != expected:
            raise SphereRelocationFailedError(
                f"point sphere has {len(ids)} vertices, expected {expected}"
            )
    else:
        rep = homology(complex_.materialize(ids))
        if rep.orientable is None:
            raise SphereRelocationFailedError(
                f"candidate is not a closed pseudo-manifold, so not a {shape}"
            )
        # RP^k: Z/2 in each odd degree below k, Z on top when k is odd
        top = 0 if projective and index % 2 == 0 else 1
        want = (1,) + (0,) * (index - 1) + (top,)
        torsion = tuple(
            (2,) if projective and k % 2 and k < index else ()
            for k in range(index + 1)
        )
        if rep.betti != want or rep.torsion != torsion:
            raise SphereRelocationFailedError(
                f"candidate has homology {rep}, not a {shape}"
            )
    outside = (c for c in complex_ if c.ident not in id_set)
    if all(id_set.isdisjoint(c.facets) for c in outside):
        raise NotApplicableError("sphere has no complement to cut from")
    return ids


def adjacent_cells(
    complex_: RegularCellComplex, sphere: frozenset
) -> frozenset:
    """The cells off ``sphere`` whose closure meets it, walked up from the
    sphere over the cofacets."""
    up: dict[int, list[int]] = {i: [] for i in complex_.cells}
    for c in complex_:
        for f in c.facets:
            up[f].append(c.ident)
    star, stack = set(sphere), list(sphere)
    while stack:
        for c in up[stack.pop()]:
            if c not in star:
                star.add(c)
                stack.append(c)
    return frozenset(star - sphere)


def _audit_closed_surface(complex_: RegularCellComplex) -> None:
    counts = Counter(e for c in complex_ if c.dim == 2 for e in c.facets)
    for c in complex_:
        if c.dim == 1 and counts[c.ident] != 2:
            raise AuditError(
                f"edge {c.ident} lies in {counts[c.ident]} faces; "
                "the complex is not a closed surface"
            )


# ---------------------------------------------------------------------------
# Surgery steps: collapse in every dimension, attach on surfaces.
# ---------------------------------------------------------------------------


def surgery_step(
    complex_: RegularCellComplex,
    sphere: tuple[int, ...],
    units: frozenset,
    code: GeneticCode,
    *,
    projective: bool = False,
) -> RegularCellComplex:
    """One collapse step onto the complex of ``code``, the code after it.

    A cell's pattern ``(B1..Bk)`` stands for the cyclic partition
    ``(A0, B1..Bk)`` whose anchor block ``A0`` holds the other edges, and
    its facets merge two cyclically adjacent blocks with a short union
    (G. Panina, Arnold Math. J., 2017).  The step makes ``units`` long and
    the set ``A`` of the other edges short: it removes the ``sphere``, the
    cells with block ``units``, adds a cell per ordered partition of
    ``units`` into at least two blocks, and re-derives the facets of the
    new cells and of the kept cells that lost a facet or gain the merge
    onto ``A``.  Cells are keyed by pattern, up to reversal in a
    projective complex.
    """
    key = _canonical_pattern_key if projective else _pattern_key
    ground = frozenset(range(1, code.edge_count + 1))
    short = code.short_sets()
    sphere = frozenset(sphere)
    cells = {c.ident: c for c in complex_ if c.ident not in sphere}
    # the kept cells that lose a facet, or gain one of anchor block A
    touched = {
        i
        for i, c in cells.items()
        if not sphere.isdisjoint(c.facets)
        or units == frozenset().union(*c.pattern[1:])
        or units == frozenset().union(*c.pattern[:-1])
    }
    new: dict[tuple, int] = {}
    for k in range(2, len(units) + 1):
        for p in _ordered_partitions(tuple(sorted(units)), k):
            # a projective complex has one cell for p and its reversal
            if key(p) not in new:
                i = new[key(p)] = complex_._next + len(new)
                cells[i] = Cell(i, k - 2, ("osp", p), (), p)
                touched.add(i)
    for i in touched:
        p = cells[i].pattern
        anchor = ground.difference(*p)
        merged = [
            p[:j] + (a | b,) + p[j + 2 :]
            for j, (a, b) in enumerate(zip(p, p[1:]))
            if a | b in short
        ]
        merged += [q for b, q in ((p[0], p[1:]), (p[-1], p[:-1]))
                   if anchor | b in short]
        # each facet is new, or was a facet before the step
        old = {key(complex_.cells[f].pattern): f for f in cells[i].facets}
        facets = tuple(new.get(k, old.get(k)) for k in map(key, merged))
        cells[i] = replace(cells[i], facets=facets)

    out = RegularCellComplex()
    for c in sorted(cells.values(), key=lambda c: (c.dim, c.ident)):
        out.add_cell(c.dim, c.label, c.facets, c.pattern, ident=c.ident)
    if not projective:
        inv = complex_.involution
        out.involution.update(
            (i, inv[i] if i in inv else new[key(reversal(c.pattern))])
            for i, c in cells.items()
        )
    return out.seal()


def surgery_2d(
    complex_: RegularCellComplex,
    sphere: tuple[int, ...],
    units: frozenset,
    *,
    projective: bool = False,
) -> RegularCellComplex:
    """One attach step on a closed surface complex: a prism tube between
    the two interface cycles of a point surgery (folded to a band in a
    projective complex), or a capping disk on each cycle of a circle one.

    ``sphere`` is the audited cell set to remove, ``units`` the element
    set that interface patterns are restricted to.  Each adjacent edge
    leaves the sphere at one end, its pole, as the interface node
    ``(edge, pole)``.  Each adjacent face joins its two flanks, the nodes
    of its adjacent edges; a face with other than two fails as
    ``SphereNotEmbeddedError``.  Point surgery pairs nodes and faces by
    pattern.  An involution is carried by one rule: a kept cell keeps its
    partner, a new vertex pairs with the node of its edge's image, and
    any other new cell with the new cell on the images of its facets.  A
    partner cut out, an image that is no new cell, or two new cells on one
    facet set fail as ``AuditError``, before ``seal()`` audits the result.
    """
    if complex_.dim != 2:
        raise Not2DError(
            f"direct surgery needs a surface, got dimension {complex_.dim}"
        )
    # the flanks below rely on this audit: every adjacent edge lies on two
    # faces, both adjacent, so every interface node is the flank of two
    # faces and the links chain the nodes into cycles
    _audit_closed_surface(complex_)
    sphere = frozenset(sphere)
    index = max(complex_.cells[i].dim for i in sphere)
    if index > 1:
        raise Not2DError(f"a surface admits no index-{index} surgery")
    cells = complex_.cells
    adjacent = adjacent_cells(complex_, sphere)
    removed = sphere | adjacent

    def restricted(i: int) -> tuple:
        return restrict_pattern(cells[i].pattern, units)

    node: dict[int, tuple[int, int]] = {}
    for e in sorted(i for i in adjacent if cells[i].dim == 1):
        poles = [v for v in cells[e].facets if v in sphere]
        if len(poles) != 1:
            raise SphereNotEmbeddedError(
                f"edge {e} has {len(poles)} endpoints on the sphere"
            )
        node[e] = (e, poles[0])
    # a face boundary is one cycle (seal() audits that), and each piece of
    # it on the sphere, short of the whole cycle, leaves by two adjacent
    # edges: so two flanks means one piece
    flanks: dict[int, tuple] = {}
    for f in sorted(i for i in adjacent if cells[i].dim == 2):
        ends = [node[e] for e in cells[f].facets if e in node]
        if len(ends) != 2:
            raise SphereNotEmbeddedError(
                f"face {f} leaves the sphere by {len(ends)} edges, not 2"
            )
        flanks[f] = tuple(sorted(ends, key=lambda n: n[::-1]))
    # nodes are sorted, so each cycle starts with its smallest node
    groups, _ = connected_components(node.values(), flanks.values())
    side = {n: s for s, group in enumerate(groups) for n in group}

    # point surgery pairs the nodes, then the faces, of one pattern: across
    # the two cycles, or within the one cycle of a projective complex
    rungs = quads = ()
    if index == 0:
        want = 1 if projective else 2
        if len(groups) != want:
            raise AuditError(
                f"point surgery expects {want} interface cycles, found "
                f"{len(groups)}"
            )
        pattern_key = _canonical_pattern_key if projective else _pattern_key

        def pair_up(members, pattern_of, side_of) -> list[tuple]:
            found: dict = {}
            for m in members:
                found.setdefault(pattern_key(pattern_of(m)), []).append(m)
            for pk, pair in sorted(found.items()):
                sides = {side_of(m) for m in pair}
                if len(pair) != 2 or len(sides) != want:
                    raise AuditError(
                        f"pattern {pk} has {len(pair)} interface cells on "
                        f"{len(sides)} cycles, not 2 on {want}"
                    )
            return [
                tuple(sorted(pair, key=lambda m: (side_of(m), m)))
                for _, pair in sorted(found.items())
            ]

        rungs = pair_up(node.values(), lambda n: restricted(n[0]), side.get)
        quads = pair_up(flanks, restricted, lambda f: side[flanks[f][0]])

    out = RegularCellComplex(first_ident=complex_._next)
    kept = [c for c in complex_ if c.ident not in removed]
    for c in sorted(kept, key=lambda c: (c.dim, c.ident)):
        out.add_cell(c.dim, c.label, c.facets, c.pattern, ident=c.ident)
    vertex = {
        n: out.add_cell(0, ("iface", n), pattern=restricted(n[0]))
        for n in node.values()
    }
    # each adjacent edge, cut back to run from its far end to its node
    trunc: dict[int, int] = {}
    for e, pole in node.values():
        (far,) = (v for v in cells[e].facets if v != pole)
        trunc[e] = out.add_cell(
            1, ("trunc", cells[e].label), (far, vertex[e, pole]),
            cells[e].pattern,
        )
    rim = {
        f: out.add_cell(
            1, ("iface", (f,)), (vertex[a], vertex[b]), restricted(f)
        )
        for f, (a, b) in flanks.items()
    }
    rung: dict[tuple[int, int], int] = {}
    for a, b in rungs:
        rung[a] = rung[b] = out.add_cell(
            1, ("cap", ("rung", a, b)), (vertex[a], vertex[b]),
            restricted(a[0]),
        )
    for f, ends in flanks.items():
        facets = [e for e in cells[f].facets if e not in removed]
        facets += [trunc[e] for e, _ in ends] + [rim[f]]
        out.add_cell(2, ("trunc", cells[f].label), facets, cells[f].pattern)
    # closing cells: the quads of the tube or band, or the capping disk of
    # each cycle of an index-one surgery
    for f1, f2 in quads:
        r1, r2 = (rung[n] for n in flanks[f1])
        if {rung[n] for n in flanks[f2]} != {r1, r2}:
            raise AuditError(
                f"faces {f1} and {f2} do not span matching rungs"
            )
        out.add_cell(
            2, ("cap", ("quad", f1, f2)), (rim[f1], rim[f2], r1, r2),
            restricted(f1),
        )
    if index == 1:
        for s, (root, *_) in enumerate(groups):
            disk = [rim[f] for f, ends in flanks.items() if side[ends[0]] == s]
            out.add_cell(2, ("cap", ("disk", root)), sorted(disk))

    if complex_.involution and not projective:
        inv = complex_.involution
        for c in kept:
            if inv[c.ident] in removed:
                raise AuditError(
                    f"involution moves kept cell {c.ident} off the kept set"
                )
            out.pair(c.ident, inv[c.ident])
        new = [c for c in out if c.ident >= complex_._next]
        on_facets = {frozenset(c.facets): c.ident for c in new if c.dim}
        if len(on_facets) != sum(1 for c in new if c.dim):
            raise AuditError("two new cells have the same facets")
        # vertices come first, so every other new cell finds its facets paired
        for c in new:
            if c.dim:
                image = frozenset(out.involution[f] for f in c.facets)
                partner = on_facets.get(image)
            else:
                e, _ = c.label[1]
                partner = vertex.get(node.get(inv[e]))
            if partner is None:
                raise AuditError(
                    f"involution takes new cell {c.label!r} to no new cell"
                )
            out.pair(c.ident, partner)

    out.seal()
    _audit_closed_surface(out)
    return out


# ---------------------------------------------------------------------------
# Chain driver.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    code: str
    added: tuple[int, ...]
    index: int
    sphere: tuple[int, ...]
    f_after: tuple[int, ...]


@dataclass(frozen=True)
class SurgeryTrace:
    code: str
    mode: str
    projective: bool
    steps: tuple[ChainStep, ...]
    complexes: tuple[RegularCellComplex, ...]

    @property
    def final(self) -> RegularCellComplex:
        return self.complexes[-1]


def run_chain(
    code: GeneticCode,
    *,
    mode: str = "attach",
    projective: bool = False,
) -> SurgeryTrace:
    """Build the polygon space of a genetic code by surgery along its
    saturated chain.  ``collapse`` runs on 3 to 8 edges and builds Panina's
    complex of each code on the chain; ``attach`` runs on five edges."""
    if mode not in ("attach", "collapse"):
        raise NotApplicableError(f"unknown surgery mode {mode!r}")
    if code.is_empty_space():
        raise NotApplicableError("the space of this code is empty")
    if mode == "attach" and code.edge_count != 5:
        raise Not2DError(
            f"attach surgery runs on five edges, got {code.edge_count}"
        )
    ground = frozenset(range(1, code.edge_count))
    current = coxeter_complex(ground)
    if projective:
        current, _ = projective_quotient(current)
    chain = saturated_chain(code)
    complexes = [current]
    steps = []
    for nxt, added in zip(chain.codes[1:], chain.added_sets):
        rest = frozenset(added) - {code.edge_count}
        units = ground - rest
        sphere = locate_sphere(current, units, projective)
        if mode == "collapse":
            current = surgery_step(
                current, sphere, units, nxt, projective=projective
            )
        else:
            current = surgery_2d(current, sphere, units, projective=projective)
        steps.append(
            ChainStep(
                code=str(nxt),
                added=tuple(sorted(added)),
                index=len(rest) - 1,
                sphere=sphere,
                f_after=current.f_vector(),
            )
        )
        complexes.append(current)
    return SurgeryTrace(
        str(code), mode, projective, tuple(steps), tuple(complexes)
    )


# ---------------------------------------------------------------------------
# Mapping-cylinder model for any dimension.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelStep:
    added: tuple[int, ...]
    units: tuple[int, ...]
    sphere: tuple[int, ...]


@dataclass(frozen=True)
class ModelResult:
    code: str
    steps: tuple[ModelStep, ...]
    complex: SimplicialComplex


def _build_model(
    complex_: RegularCellComplex, units: frozenset, sphere: tuple[int, ...]
) -> SimplicialComplex:
    """The second subdivision of the bulk (the order complex of the cells
    off the sphere), glued along the sphere's frontier (the order complex
    of its adjacent cells) to the subdivided link of the surgery.  Both
    parts are counted before either is built."""
    sphere = frozenset(sphere)
    link = coxeter_complex(units)
    adjacent = adjacent_cells(complex_, sphere)
    gmap: dict = {}
    for v in sorted(adjacent):
        # a pattern of fewer than two blocks names no cell of the link
        blocks = restrict_pattern(complex_.cells[v].pattern, units)
        try:
            gmap[v] = link.by_label(("osp", blocks))
        except KeyError:
            raise ProjectionNotSimplicialError(
                f"projection of cell {v} misses the link"
            )
    # Coxeter cell ids grow along the face order, so a chain of cells is a
    # sorted tuple, as a face of a SimplicialComplex is
    front = _order_chains(complex_, adjacent)
    # comparable images on the 2-chains make every image a chain
    pairs = (sorted(gmap[v] for v in ch) for ch in front if len(ch) == 2)
    for a, b in pairs:
        if a != b and not (a in link.faces_of(b) or b in link.faces_of(a)):
            raise ProjectionNotSimplicialError(
                f"image of a frontier simplex is no chain: {a}, {b}"
            )

    def strict_below(el):
        kind, payload = el
        if kind == "b":
            return [("b", sub) for sub in proper_faces(payload)]
        image = tuple(sorted({gmap[v] for v in payload}))
        return [("c", sub) for sub in proper_faces(payload)] + [
            ("b", sub) for sub in proper_faces(image) + [image]
        ]

    cylinder = [("c", f) for f in front]
    cylinder += [("b", ch) for ch in _order_chains(link, link.cells)]
    # frontier chains (of adjacent cells alone) are built once, in the
    # cylinder: the bulk ends its chains only at the other far chains
    far = [c for c in complex_.cells if c not in sphere]
    bulk = [("c", f) for f in _order_chains(complex_, far)]
    bulk = [el for el in bulk if not adjacent.issuperset(el[1])]
    spent, build_cylinder = _chain_counter(cylinder, strict_below)
    _, build_bulk = _chain_counter(
        bulk, lambda el: [("c", f) for f in proper_faces(el[1])], spent
    )
    return SimplicialComplex(
        ch for build in (build_cylinder, build_bulk) for ch in build()
    )


def run_model(code: GeneticCode) -> ModelResult:
    """Build a simplicial model of the polygon space of ``<m>``, the first
    subdivision of Coxeter([m - 1]), or of ``<1m>``, the one code a step
    above it, glued from the face poset around its point surgery.

    Any other code needs a second surgery, whose sphere neighborhood meets
    the first: a cell of Coxeter(G) lies in the sphere of units ``U`` or
    next to it exactly when its first or its last block misses ``U``, and
    for nonempty proper ``U`` and ``V`` the cell ``({x}, G - x)`` with
    ``x`` outside both, or else ``({x}, rest, {y})`` with ``x`` outside
    ``U`` and ``y`` outside ``V``, does so for both.  So a second chain
    step raises ``ChainInterferenceError`` once the first sphere is
    located, and its own sphere is never built.
    """
    if code.is_empty_space():
        raise NotApplicableError("the space of this code is empty")
    ground = frozenset(range(1, code.edge_count))
    complex_ = coxeter_complex(ground)
    added = saturated_chain(code).added_sets
    if not added:
        return ModelResult(str(code), (), barycentric(complex_))
    rest = [sorted(s - {code.edge_count}) for s in added[:2]]
    units = ground.difference(rest[0])
    sphere = locate_sphere(complex_, units, projective=False)
    if len(rest) > 1:
        raise ChainInterferenceError(
            f"sphere neighborhoods for {rest[0]} and {rest[1]} overlap"
        )
    step = ModelStep(tuple(sorted(added[0])), tuple(sorted(units)), sphere)
    return ModelResult(str(code), (step,), _build_model(complex_, units, sphere))


# ---------------------------------------------------------------------------
# The poset shadow of one surgery step.
# ---------------------------------------------------------------------------


def step_locus(code_before: GeneticCode, added: frozenset):
    """The stratum of the intersection poset that a chain step removes:
    the added set split into singletons against the rest."""
    m = code_before.edge_count
    rest = frozenset(range(1, m + 1)) - added
    return canonical_partition(
        [(j,) for j in sorted(added)] + [tuple(sorted(rest))]
    )
