"""Per-layer tracing from outside the program.

Each probe wraps one public function of a `linclob` module at every name a
caller looks it up by (its own module and each module that imported it), so
no code under `src/` changes.  A *span* probe times the call; a *count* probe
only counts it.  Spans share one stack, and a span's self time is its
duration minus the time its direct child spans cover, so a layer's self time
is the time spent in its own code rather than in the layers it calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from linclob import core

# (layer module, function, kind).  Private names are read only where no
# public function exposes the number (the verifier's Left-node recursion).
PROBES = (
    ("core", "apply_move", "span"),
    ("core", "legal_moves", "span"),
    ("core", "expand_shorthand", "count"),
    ("asf", "normalize", "span"),
    ("asf", "apply_once", "span"),
    ("taxonomy", "s_class", "span"),
    ("taxonomy", "in_left_target", "count"),
    ("strategy", "choose_left_move", "span"),
    ("oracle", "outcome", "span"),
    ("verifier", "verify_start", "span"),
    ("verifier", "_left_node", "count"),
    ("cli", "run", "span"),
)


class Tracer:
    """Installs the probes for the duration of a `with` block."""

    def __init__(self):
        # "<layer>.<function>" -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        # (function key, calling module) -> calls
        self.by_caller: Counter = Counter()
        self.normalize_noops = 0
        self.rules: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "linclob" and mod is not None}
        for layer, name, kind in PROBES:
            fn = getattr(modules.get(layer), name, None)
            if fn is None:
                self.missing.append(f"{layer}.{name}")
                continue
            key = f"{layer}.{name}"
            for caller, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, self._wrap(key, caller, fn, kind))
        game_of = core.Game.of
        self._patch(core.Game, "of",
                    staticmethod(self._wrap("core.game_of", "core", game_of, "count")))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key, caller, fn, kind):
        rec = self.stats.setdefault(key, [0, 0.0])
        by_caller = self.by_caller
        site = (key, caller)
        if kind == "count":
            def counted(*args, **kwargs):
                rec[0] += 1
                by_caller[site] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        clock = time.perf_counter
        after = {"asf.normalize": self._after_normalize,
                 "strategy.choose_left_move": self._after_choose}.get(key)

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                rec[0] += 1
                rec[1] += elapsed - inner
                stack[-1] += elapsed
                by_caller[site] += 1
            if after is not None:
                after(args, result)
            return result
        return spanned

    def _after_normalize(self, args, result) -> None:
        if result == args[0]:
            self.normalize_noops += 1

    def _after_choose(self, args, result) -> None:
        self.rules[result.rule_id] += 1

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0))[1]


# Rule ids of the table 1a..7b plus the improved ruleset's spiral.  A move the
# strategy takes in place of a mandated one carries "<id>-fallback"; those are
# counted under `strategy.rule.fallback.count` and by `fallback_ratio`.
RULE_IDS = (
    "1a", "1b", "1c", "1d", "2", "3a", "3b", "3c", "3d", "3e",
    "4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h", "4i",
    "5a", "5b", "5c", "5d", "5e", "5f", "5g", "5h", "5i", "5j",
    "6a", "6b", "6c", "6d", "7a", "7b", "spiral",
)


def _ratio(part: float, whole: float) -> float:
    """part / whole, reported as 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, classify_hits: int, classify_misses: int,
                  oracle_nodes: int = 0, oracle_hits: int = 0, oracle_misses: int = 0,
                  left_nodes: int = 0, right_nodes: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by name."""
    t = tracer
    right_moves = t.by_caller[("core.apply_move", "verifier")]
    # Every Left node the verifier reaches from a Right node is a distinct
    # child of it; the others are the one root Left node per start.
    right_children = t.by_caller[("verifier._left_node", "verifier")] \
        - t.calls("verifier.verify_start")
    fallbacks = sum(n for rule, n in t.rules.items() if rule.endswith("-fallback"))
    m = {
        "core.apply_move.calls": t.calls("core.apply_move"),
        "core.apply_move.self_s": t.self_s("core.apply_move"),
        "core.legal_moves.calls": t.calls("core.legal_moves"),
        "core.legal_moves.self_s": t.self_s("core.legal_moves"),
        "core.game_of.calls": t.calls("core.game_of"),
        "core.expand_shorthand.calls": t.calls("core.expand_shorthand"),
        "asf.normalize.calls": t.calls("asf.normalize"),
        "asf.normalize.self_s": t.self_s("asf.normalize"),
        "asf.normalize.noop_ratio": _ratio(t.normalize_noops, t.calls("asf.normalize")),
        "asf.apply_once.calls": t.calls("asf.apply_once"),
        "asf.apply_once.self_s": t.self_s("asf.apply_once"),
        "taxonomy.classify_part.lookups": classify_hits + classify_misses,
        "taxonomy.classify_part.hit_ratio": _ratio(classify_hits, classify_hits + classify_misses),
        "taxonomy.s_class.calls": t.calls("taxonomy.s_class"),
        "taxonomy.s_class.self_s": t.self_s("taxonomy.s_class"),
        "taxonomy.in_left_target.calls": t.calls("taxonomy.in_left_target"),
        "strategy.choose_left_move.calls": t.calls("strategy.choose_left_move"),
        "strategy.choose_left_move.self_s": t.self_s("strategy.choose_left_move"),
        "strategy.fallback_ratio": _ratio(fallbacks, sum(t.rules.values())),
        "strategy.rule.fallback.count": fallbacks,
        "oracle.nodes": oracle_nodes,
        "oracle.memo.lookups": oracle_hits + oracle_misses,
        "oracle.memo.hit_ratio": _ratio(oracle_hits, oracle_hits + oracle_misses),
        "oracle.self_s": t.self_s("oracle.outcome"),
        "verifier.left_nodes": left_nodes,
        "verifier.right_nodes": right_nodes,
        "verifier.self_s": t.self_s("verifier.verify_start"),
        "verifier.right_moves": right_moves,
        "verifier.right_dedup_ratio": _ratio(right_children, right_moves),
        "cli.self_s": t.self_s("cli.run"),
    }
    for rule in RULE_IDS:
        m[f"strategy.rule.{rule}.count"] = t.rules[rule]
    m["strategy.rule.other.count"] = sum(
        n for rule, n in t.rules.items()
        if rule not in RULE_IDS and not rule.endswith("-fallback"))
    return m
