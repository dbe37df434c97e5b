"""Per-layer tracing from outside the program.

The tracer wraps every public function of each padquat layer module, plus
a few methods, at every place a caller looks it up: module attributes
(`padquat.verifier.qp_elements` as well as `padquat.quaternion.qp_elements`)
and values of module-level dicts (such as the CLI's command table).  Each
wrapper records a span; a layer's self time is the sum of its spans'
durations minus the time of the wrapped spans directly inside them.

A group (for example `quaternion.build`) counts calls and inclusive time
only for its outermost spans, so nested calls inside the same group are
not counted twice.  A function that a later change removes or renames is
skipped: its metrics read zero and the run goes on.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "padquat"
LAYERS = ("modular", "fibonacci", "sequences", "quaternion", "verifier", "cli")

# Methods traced besides the public module-level functions: "layer.Class.attr".
METHODS = (
    "fibonacci.FibProfile.of",
    "sequences.BiPoly.__str__",
    "sequences.SeqParams.twin_prime",
    "verifier.TheoremCase.build",
    "verifier.TheoremVerdict.to_dict",
)

# group -> the traced names it covers
GROUPS = {
    "modular.is_prime": ("modular.is_prime",),
    "modular.twin_primes": ("modular.twin_primes_upto",),
    "fibonacci.profile": ("fibonacci.FibProfile.of",),
    "fibonacci.fib_mod": ("fibonacci.fib_mod", "fibonacci.fib_pair"),
    "sequences.period": ("sequences.seq_period",),
    "sequences.mod_terms": ("sequences.padovan_mod", "sequences.perrin_mod"),
    "sequences.sym_terms": ("sequences.padovan_sym_terms", "sequences.perrin_sym_terms"),
    "sequences.sym_render": ("sequences.BiPoly.__str__",),
    "quaternion.build": ("quaternion.qp_elements", "quaternion.qr_elements"),
    "verifier.case": ("verifier.verify_case",),
    "verifier.oracle": ("verifier.brute_force_zero_divisors",),
    "verifier.reduced_norm": ("verifier.reduced_norm_value",),
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# Per-layer metrics: name -> (unit, better).  Every traced run reports all of them.
METRICS = {
    "modular.is_prime_calls": ("count", "lower"),
    "modular.is_prime_s": ("s", "lower"),
    "modular.twin_primes_s": ("s", "lower"),
    "modular.self_s": ("s", "lower"),
    "fibonacci.profile_calls": ("count", "lower"),
    "fibonacci.profile_s": ("s", "lower"),
    "fibonacci.fib_mod_calls": ("count", "lower"),
    "fibonacci.self_s": ("s", "lower"),
    "sequences.period_calls": ("count", "lower"),
    "sequences.period_s": ("s", "lower"),
    "sequences.mod_terms": ("count", "lower"),
    "sequences.mod_terms_s": ("s", "lower"),
    "sequences.sym_terms_s": ("s", "lower"),
    "sequences.sym_render_s": ("s", "lower"),
    "sequences.self_s": ("s", "lower"),
    "quaternion.build_calls": ("count", "lower"),
    "quaternion.build_s": ("s", "lower"),
    "quaternion.elements_built": ("count", "lower"),
    "quaternion.self_s": ("s", "lower"),
    "verifier.cases": ("count", "higher"),
    "verifier.hypothesis_indices": ("count", "higher"),
    "verifier.oracle_indices": ("count", "lower"),
    "verifier.counterexamples": ("count", "lower"),
    "verifier.useful_ratio": ("ratio", "higher"),
    "verifier.oracle_s": ("s", "lower"),
    "verifier.reduced_norm_s": ("s", "lower"),
    "verifier.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _hypothesis_indices(verdict) -> int:
    """Indices m < scan_limit with the case's parity and k = -3 mod z(p)."""
    case = verdict.case
    z = case.profile.entry_point
    k_count = (verdict.scan_limit - case.parity + 1) // 2
    return max(0, (k_count - case.hypothesis_class + z - 1) // z)


def _count_case(counts, bound, result) -> None:
    counts["verifier.hypothesis_indices"] += _hypothesis_indices(result)
    counts["verifier.counterexamples"] += len(result.counterexamples)


def _count_oracle(counts, bound, result) -> None:
    counts["verifier.oracle_indices"] += bound.arguments.get("scan_limit", 0)


def _count_elements(counts, bound, result) -> None:
    counts["quaternion.elements_built"] += len(result)


def _count_terms(counts, bound, result) -> None:
    counts["sequences.mod_terms"] += len(result)


# group -> hook(counts, bound arguments, result), run on outermost spans
_HOOKS = {
    "verifier.case": _count_case,
    "verifier.oracle": _count_oracle,
    "quaternion.build": _count_elements,
    "sequences.mod_terms": _count_terms,
}


class Tracer:
    """Wraps padquat's layers on install() and restores them on uninstall()."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.reset()
        self.patches = self._plan()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _targets(self):
        """(layer, traced name, original, how to put a replacement in place)."""
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    yield layer, f"{layer}.{name}", obj, None
        for traced in METHODS:
            layer, cls_name, attr = traced.split(".")
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if isinstance(raw, classmethod):
                yield layer, traced, raw.__func__, (cls, attr, classmethod)
            elif inspect.isfunction(raw):
                yield layer, traced, raw, (cls, attr, None)

    def _plan(self) -> list[tuple[object, object, object, object]]:
        """Every (container, key, original, wrapped) to swap on install."""
        wrapped_by_id = {}  # id(original function) -> its wrapper
        patches = []
        for layer, traced, original, method in self._targets():
            wrapped = self._wrap(original, layer, traced)
            if method is not None:
                cls, attr, kind = method
                raw = vars(cls)[attr]
                patches.append((cls, attr, raw, kind(wrapped) if kind else wrapped))
            else:
                wrapped_by_id[id(original)] = wrapped
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrapped_by_id:
                    patches.append((module, key, value, wrapped_by_id[id(value)]))
                elif isinstance(value, dict):
                    patches.extend((value, dkey, dvalue, wrapped_by_id[id(dvalue)])
                                   for dkey, dvalue in value.items()
                                   if id(dvalue) in wrapped_by_id)
        return patches

    def _wrap(self, fn, layer: str, traced: str):
        group = _GROUP_OF.get(traced)
        hook = _HOOKS.get(group)
        signature = inspect.signature(fn) if hook else None
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = group is not None and depth[group] == 0
            if group is not None:
                depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[layer] += elapsed - frame[0]
                if group is not None:
                    depth[group] -= 1
                    if outer:
                        self.calls[group] += 1
                        self.inclusive_s[group] += elapsed
            if outer and hook is not None:
                try:
                    hook(self.counts, signature.bind(*args, **kwargs), result)
                except (AttributeError, TypeError):
                    pass  # the traced API changed shape; the count reads zero
            return result

        return wrapper

    def install(self) -> None:
        for container, key, _, wrapped in self.patches:
            _put(container, key, wrapped)

    def uninstall(self) -> None:
        for container, key, original, _ in reversed(self.patches):
            _put(container, key, original)

    def metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer values for the spans recorded since reset()."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "modular.is_prime_calls": self.calls["modular.is_prime"],
            "modular.is_prime_s": self.inclusive_s["modular.is_prime"],
            "modular.twin_primes_s": self.inclusive_s["modular.twin_primes"],
            "fibonacci.profile_calls": self.calls["fibonacci.profile"],
            "fibonacci.profile_s": self.inclusive_s["fibonacci.profile"],
            "fibonacci.fib_mod_calls": self.calls["fibonacci.fib_mod"],
            "sequences.period_calls": self.calls["sequences.period"],
            "sequences.period_s": self.inclusive_s["sequences.period"],
            "sequences.mod_terms": self.counts["sequences.mod_terms"],
            "sequences.mod_terms_s": self.inclusive_s["sequences.mod_terms"],
            "sequences.sym_terms_s": self.inclusive_s["sequences.sym_terms"],
            "sequences.sym_render_s": self.inclusive_s["sequences.sym_render"],
            "quaternion.build_calls": self.calls["quaternion.build"],
            "quaternion.build_s": self.inclusive_s["quaternion.build"],
            "quaternion.elements_built": self.counts["quaternion.elements_built"],
            "verifier.cases": self.calls["verifier.case"],
            "verifier.hypothesis_indices": self.counts["verifier.hypothesis_indices"],
            "verifier.oracle_indices": self.counts["verifier.oracle_indices"],
            "verifier.counterexamples": self.counts["verifier.counterexamples"],
            "verifier.oracle_s": self.inclusive_s["verifier.oracle"],
            "verifier.reduced_norm_s": self.inclusive_s["verifier.reduced_norm"],
            "cli.output_bytes": output_bytes,
        })
        built = out["quaternion.elements_built"]
        out["verifier.useful_ratio"] = out["verifier.hypothesis_indices"] / built if built else 0.0
        return out


def _put(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)
