"""Per-layer tracing from outside the program.

``Tracer`` replaces every public function of the package's layer modules
with a timing wrapper, in every module namespace that holds a reference to
it, so a call is caught whichever module it is made from.  Each wrapper
keeps an in-memory span stack: a call's self time is its duration minus
the durations of the traced calls it made.  Hooks on a few functions count
work done (outcomes, memo hits, witness candidates, JSON bytes); their
own time is kept out of every span's self time and reported apart, as
part of the tracing overhead.  Nothing
is written until the run ends; leaving the ``with`` block restores the
original functions.
"""

from __future__ import annotations

import inspect
import statistics
import time

LAYERS = ("graphs", "transforms", "catalog", "cli")
# canonical_name runs behind DynkinGraph.name for every outcome and every
# witness key; as a span it would move naming time out of the witness
# selection that asks for it, and its wrapper would cost more than the call.
UNWRAPPED = {"graphs.canonical_name"}
MAX_COMPONENT_BUCKET = 6


class _Stat:
    __slots__ = ("calls", "total", "self_time", "max", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.max = 0.0
        self.durations = []


def _graph_name(g) -> str:
    return "+".join(c.name for c in g.components)


class Tracer:
    def __init__(self, package, modules):
        """``package`` is the ``dynkintrans`` module, ``modules`` maps layer name to module."""
        self.package = package
        self.modules = modules
        self.stats: dict[str, _Stat] = {}
        self.stack: list[list] = []  # [key, child seconds, per-call data]
        self.patches: list[tuple] = []
        self.seen: dict[str, set] = {"transforms.tie_all": set(), "transforms.elementary_all": set()}
        self.hook_seconds = 0.0
        self.counts = {"memo_hits": 0, "outcomes": 0, "witness_candidates": 0, "members": 0, "cache_bytes": 0}
        self.tie_by_components = [0.0] * (MAX_COMPONENT_BUCKET + 1)
        self.transform_calls: list[tuple] = []  # (function, input name, components, seconds)
        self.hooks = {
            "transforms.tie_all": self._on_transform,
            "transforms.elementary_all": self._on_transform,
            "catalog.build_catalog": self._on_build_catalog,
            "catalog.catalog_to_json": self._on_to_json,
            "catalog.catalog_from_json": self._on_from_json,
            "transforms.clear_transform_cache": self._on_clear,
        }

    def __enter__(self):
        namespaces = [self.package, *self.modules.values()]
        for layer in LAYERS:
            module = self.modules[layer]
            for name, fn in list(vars(module).items()):
                key = f"{layer}.{name}"
                if (
                    name.startswith("_")
                    or key in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(key, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self.patches.append((ns, attr, fn))
        return self

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self.patches):
            setattr(ns, attr, fn)
        self.patches.clear()
        return False

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self.stack
        hook = self.hooks.get(key)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [key, 0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[1]
                if dt > stat.max:
                    stat.max = dt
                if stack:
                    stack[-1][1] += dt
            stat.durations.append(dt)  # calls that raised stay out of the percentiles
            if hook is not None:
                h0 = clock()
                hook(key, args, result, dt, frame)
                spent = clock() - h0
                tracer.hook_seconds += spent
                if stack:  # the caller's span is still open; its self time excludes the hook
                    stack[-1][1] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- hooks: called after a successful call, outside its span; timed apart --

    def _on_transform(self, key, args, result, dt, frame):
        g = args[0]
        name = _graph_name(g)
        if name in self.seen[key]:
            self.counts["memo_hits"] += 1
        self.seen[key].add(name)
        self.counts["outcomes"] += len(result)
        ncomp = len(g.components)
        if key == "transforms.tie_all":
            self.tie_by_components[min(ncomp, MAX_COMPONENT_BUCKET)] += dt
        self.transform_calls.append((key.split(".")[1], name, ncomp, dt))
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent[0] == "catalog.build_catalog":
            # _compute_catalog enumerates the basic graph's first steps with
            # its first two transform calls; every later call enumerates
            # second steps, whose A/D/E outcomes all compete as witnesses.
            parent[2] = (parent[2] or 0) + 1
            if parent[2] > 2:
                self.counts["witness_candidates"] += sum(1 for out, _ in result if out.is_ade)

    def _on_clear(self, key, args, result, dt, frame):
        for seen in self.seen.values():  # memo hits count inputs seen since the last clear
            seen.clear()

    def _on_build_catalog(self, key, args, result, dt, frame):
        if frame[2]:  # the catalog was computed here, not loaded
            self.counts["members"] += len(result)

    def _on_to_json(self, key, args, result, dt, frame):
        self.counts["cache_bytes"] += len(result.encode("utf-8"))

    def _on_from_json(self, key, args, result, dt, frame):
        self.counts["cache_bytes"] += len(args[0].encode("utf-8"))

    # -- report --

    def stat(self, key) -> _Stat:
        return self.stats.get(key) or _Stat()

    def slowest_ties(self, n=10):
        """The ``n`` distinct ``tie_all`` inputs with the slowest call: (name, components, seconds)."""
        worst = {}
        for fn, name, ncomp, dt in self.transform_calls:
            if fn == "tie_all" and dt > worst.get(name, (0, 0.0))[1]:
                worst[name] = (ncomp, dt)
        ranked = sorted(worst.items(), key=lambda item: -item[1][1])[:n]
        return [(name, ncomp, dt) for name, (ncomp, dt) in ranked]

    def metrics(self) -> dict[str, float]:
        s = self.stat
        tie, elem = s("transforms.tie_all"), s("transforms.elementary_all")
        main = s("cli.main")
        candidates = self.counts["witness_candidates"]
        out = {
            "transforms.tie_all.calls": tie.calls,
            "transforms.tie_all.s": tie.total,
            "transforms.tie_all.max_ms": tie.max * 1000,
        }
        for k in range(1, MAX_COMPONENT_BUCKET + 1):
            out[f"transforms.tie_all.s_by_components.{k}"] = self.tie_by_components[k]
        out.update({
            "transforms.elementary_all.calls": elem.calls,
            "transforms.elementary_all.s": elem.total,
            "transforms.memo_hits": self.counts["memo_hits"],
            "transforms.outcomes": self.counts["outcomes"],
            "transforms.apply.calls": s("transforms.apply").calls,
            "transforms.apply.s": s("transforms.apply").total,
            "catalog.build_catalog.self_s": s("catalog.build_catalog").self_time,
            "catalog.catalog_to_json.s": s("catalog.catalog_to_json").total,
            "catalog.cache_bytes": self.counts["cache_bytes"],
            "catalog.catalog_from_json.s": s("catalog.catalog_from_json").total,
            "catalog.membership.s": s("catalog.membership").total,
            "catalog.witness_candidates": candidates,
            "catalog.members": self.counts["members"],
            "catalog.members_per_candidate": self.counts["members"] / candidates if candidates else 0.0,
            "graphs.extend.calls": s("graphs.extend").calls,
            "graphs.extend.s": s("graphs.extend").total,
            "graphs.parse_name.calls": s("graphs.parse_name").calls,
            "graphs.parse_name.s": s("graphs.parse_name").total,
            "graphs.classify.calls": s("graphs.classify").calls,
            "graphs.classify.s": s("graphs.classify").total,
            "cli.main.s": main.total,
            "cli.main.p50_ms": statistics.median(main.durations) * 1000 if main.durations else 0.0,
            "cli.main.p99_ms": percentile(main.durations, 99) * 1000 if main.durations else 0.0,
        })
        return out


def percentile(values, q):
    """The q-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
