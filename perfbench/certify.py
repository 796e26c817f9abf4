"""Independent certification of transformation witnesses.

A witness step names an input graph, the kind of step and its vertex sets.
The certifier checks the definition's conditions on the extended graph,
rebuilds the outcome graph literally from the extended graph's vertices and
edges, and names it with the Gram-isomorphism ``oracle_classify`` from
``tests/oracles.py``, never with the engine's structural recognizer.  The
maximal-root coefficients the conditions use are compared against the
oracles' reflection-closure computation before they are trusted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd


class CertificationFailed(AssertionError):
    """An answer of the program did not survive an independent check."""


@dataclass(frozen=True)
class Step:
    """One recorded step: ``first`` is the removed set or A, ``second`` is B."""

    kind: str
    input: str
    first: tuple[int, ...]
    second: tuple[int, ...]
    output: str


def step_from_engine(step) -> Step:
    choice = step.choice
    if step.kind == "elementary":
        return Step("elementary", step.input.name, tuple(choice.removed), (), step.output.name)
    return Step("tie", step.input.name, tuple(choice.a), tuple(choice.b), step.output.name)


class Certifier:
    def __init__(self, graphs, oracles, coefficients=None):
        """``coefficients`` maps a component name to its maximal-root coefficients.

        It holds ``oracles.highest_root_coefficients`` results computed ahead
        (``reference/coefficients.json``); types it lacks are computed here.
        """
        self.graphs = graphs
        self.oracles = oracles
        self._extended = {}
        self._coefficients = {name: tuple(c) + (1,) for name, c in (coefficients or {}).items()}
        self._components = {}
        self.steps_certified = 0

    def extended(self, name: str):
        """The extended graph of ``name`` and its vertex-id index, coefficients checked."""
        hit = self._extended.get(name)
        if hit is None:
            g = self.graphs.parse_name(name)
            ext = self.graphs.extend(g)
            for ct, comp in zip(g.components, ext.components):
                expected = self._coefficients.get(ct.name)
                if expected is None:
                    expected = tuple(self.oracles.highest_root_coefficients(ct)) + (1,)
                    self._coefficients[ct.name] = expected
                got = tuple(ext.coefficients[v] for v in comp)
                if got != expected:
                    raise CertificationFailed(f"{ct.name}: coefficients {got} != {expected}")
            ids = {v.id: i for i, v in enumerate(ext.base.vertices)}
            hit = (ext, ids)
            self._extended[name] = hit
        return hit

    def step(self, s: Step) -> None:
        """Raise CertificationFailed unless ``s`` is a valid step with the claimed outcome."""
        ext, _ids = self.extended(s.input)
        n = ext.n
        first, second = s.first, s.second
        for v in first + second:
            if not 0 <= v < n:
                raise CertificationFailed(f"{s}: vertex {v} outside 0..{n - 1}")
        if len(set(first)) != len(first) or len(set(second)) != len(second):
            raise CertificationFailed(f"{s}: repeated vertex")
        removed = set(first)
        if s.kind == "elementary":
            if second:
                raise CertificationFailed(f"{s}: elementary step with a B set")
            for comp in ext.components:
                if not removed.intersection(comp):
                    raise CertificationFailed(f"{s}: a component keeps all its vertices")
        elif s.kind == "tie":
            b = set(second)
            if removed & b:
                raise CertificationFailed(f"{s}: A and B intersect")
            if len(b) > 3:
                raise CertificationFailed(f"{s}: #B = {len(b)} > 3")
            for comp in ext.components:
                in_a = [ext.coefficients[v] for v in comp if v in removed]
                if not in_a:
                    raise CertificationFailed(f"{s}: a component has no A-vertex")
                acc = sum(ext.coefficients[v] for v in comp if v in b)
                for c in in_a:
                    acc = gcd(acc, c)
                if acc != 1:
                    raise CertificationFailed(f"{s}: component gcd is {acc}, not 1")
        else:
            raise CertificationFailed(f"{s}: unknown step kind")
        got = self.classify_rebuilt(ext, removed, second if s.kind == "tie" else None)
        if got != s.output:
            raise CertificationFailed(f"{s}: rebuilt graph is {got!r}, not {s.output!r}")
        self.steps_certified += 1

    def classify_rebuilt(self, ext, removed, b):
        """Oracle name of the extended graph minus ``removed``, plus a vertex on ``b``.

        ``b`` is None for an elementary step.  Returns None when some
        component matches no allowed shape.
        """
        keep = [v for v in range(ext.n) if v not in removed]
        pos = {v: k for k, v in enumerate(keep)}
        norms = [ext.base.vertices[v].norm for v in keep]
        edges = [(pos[i], pos[j], val) for i, j, val in ext.base.edges if i in pos and j in pos]
        if b is not None:
            new = len(norms)
            norms.append(self.graphs.NORM_LONG)
            edges.extend((pos[v], new, self.graphs.ORDINARY_EDGE) for v in b)
        comps = []
        for part in _connected_parts(len(norms), edges):
            ct = self._classify_part(part, norms, edges)
            if ct is None:
                return None
            comps.append(ct)
        return self.graphs.DynkinGraph(tuple(comps)).name

    def _classify_part(self, part, norms, edges):
        local = {v: k for k, v in enumerate(part)}
        key_norms = tuple(norms[v] for v in part)
        key_edges = tuple(
            sorted((local[i], local[j], val) for i, j, val in edges if i in local and j in local)
        )
        key = (key_norms, key_edges)
        if key not in self._components:
            verts = tuple(self.graphs.Vertex(f"v{k}", norm) for k, norm in enumerate(key_norms))
            lg = self.graphs.LabeledGraph(verts, key_edges)
            found = self.oracles.oracle_classify(lg)
            if found is not None and len(found.components) != 1:
                raise CertificationFailed("oracle split a connected graph")
            self._components[key] = None if found is None else found.components[0]
        return self._components[key]

    def chain(self, basic: str, milnor: int, member: str, steps) -> None:
        """Certify a two-step witness from ``basic`` to the catalog member ``member``."""
        g = self.graphs.parse_name(member)
        if not g.is_ade:
            raise CertificationFailed(f"member {member!r} is not A/D/E")
        if g.total_vertices > milnor - 2:
            raise CertificationFailed(f"member {member!r} exceeds {milnor - 2} vertices")
        if len(steps) != 2:
            raise CertificationFailed(f"{member}: witness has {len(steps)} steps")
        s1, s2 = steps
        if s1.input != basic or s2.input != s1.output or s2.output != member:
            raise CertificationFailed(f"{member}: witness does not chain {basic} -> {member}")
        self.step(s1)
        self.step(s2)


def _connected_parts(n, edges):
    adj = [[] for _ in range(n)]
    for i, j, _val in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, part = [start], []
        while stack:
            v = stack.pop()
            part.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        parts.append(sorted(part))
    return parts


_YES = re.compile(r"yes: (.+) is reachable from (\w+) \((.+)\)")
_NO = re.compile(r"no: (.+) is not reachable from (\w+)")
_STEP = re.compile(
    r"  step (\d): (elementary|tie) on (.+?): "
    r"(?:remove \{(.*?)\}|A = \{(.*?)\}, B = \{(.*?)\}) -> (.+)"
)


def _undisplay(name: str) -> str:
    return "" if name == "(empty)" else name


def parse_check_output(text: str, certifier: Certifier):
    """Parse ``dynkintrans check`` output into (member?, name, steps)."""
    lines = text.splitlines()
    if not lines:
        raise CertificationFailed("check printed nothing")
    m = _NO.fullmatch(lines[0])
    if m:
        if len(lines) != 1:
            raise CertificationFailed(f"unexpected lines after a no answer: {lines[1:]}")
        return False, _undisplay(m.group(1)), []
    m = _YES.fullmatch(lines[0])
    if not m:
        raise CertificationFailed(f"unrecognised check output {lines[0]!r}")
    name = _undisplay(m.group(1))
    steps = []
    for line in lines[1:]:
        sm = _STEP.fullmatch(line)
        if not sm:
            raise CertificationFailed(f"unrecognised witness line {line!r}")
        _k, kind, inp, removed, a, b, out = sm.groups()
        inp = _undisplay(inp)
        _ext, ids = certifier.extended(inp)

        def indices(text):
            if not text:
                return ()
            try:
                return tuple(ids[t.strip()] for t in text.split(","))
            except KeyError as exc:
                raise CertificationFailed(f"unknown vertex id {exc.args[0]!r} on {inp!r}") from None

        if kind == "elementary":
            steps.append(Step(kind, inp, indices(removed), (), _undisplay(out)))
        else:
            steps.append(Step(kind, inp, indices(a), indices(b), _undisplay(out)))
    return True, name, steps
