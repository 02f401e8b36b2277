"""Span tracing around calls into elicit's layers, from outside the package.

A ``Tracer`` patches the loaded program in place while it is installed:

- a function is replaced at every module attribute that binds it, so a
  caller that did ``from .contracts import coalition_totals`` sees the
  wrapper too;
- a method is replaced on the class that defines it;
- a generator function is wrapped so that each resumption is one span;
- ``Fraction`` construction is counted and charged to the innermost open
  span.

Every span records its name, start, end and parent.  A layer's self time is
its spans' durations minus the durations of their direct children.
``uninstall`` puts every original back and fails if any binding was left
wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter

# (span name, module, function or Class.method).  Several targets may share
# one span name; "cli" and "request" are opened by the benchmark itself.
LAYER_TARGETS = (
    ("simplex.replace", "elicit.simplex", "ReportProfile.replace"),
    ("simplex.profile_totals", "elicit.simplex", "ReportProfile.totals"),
    ("simplex.distribution_check", "elicit.simplex", "Distribution.__post_init__"),
    ("simplex.coalition_sums", "elicit.simplex", "coalition_sums"),
    ("simplex.leave_one_out_mean", "elicit.simplex", "leave_one_out_mean"),
    ("simplex.lattice", "elicit.simplex", "simplex_lattice"),
    ("sampling.random_distribution", "elicit.sampling", "random_distribution"),
    ("sampling.random_profile", "elicit.sampling", "random_profile"),
    ("sampling.random_coalition", "elicit.sampling", "random_coalition"),
    ("scoring.quadratic_score", "elicit.scoring", "quadratic_score"),
    ("scoring.expected_score", "elicit.scoring", "expected_score"),
    ("scoring.properness_probe", "elicit.scoring", "properness_probe"),
    ("contracts.validate_alpha", "elicit.contracts", "validate_alpha"),
    ("contracts.nr_evaluate", "elicit.contracts", "ArbitrageFreeContract.evaluate"),
    ("contracts.independent_evaluate", "elicit.contracts", "IndependentScoring.evaluate"),
    ("contracts.expert_view", "elicit.contracts", "ArbitrageFreeContract.expert_view"),
    ("contracts.coalition_total", "elicit.contracts", "coalition_total"),
    ("contracts.coalition_totals", "elicit.contracts", "coalition_totals"),
    ("arbitrage.ensure_agreement_outside", "elicit.arbitrage", "ensure_agreement_outside"),
    ("arbitrage.check_dominance", "elicit.arbitrage", "check_dominance"),
    ("arbitrage.search_arbitrage", "elicit.arbitrage", "search_arbitrage"),
    ("verification.form_residual", "elicit.verification", "general_form_residual"),
    ("verification.form_residual", "elicit.verification", "two_outcome_form_residual"),
    ("verification.identity_report", "elicit.verification", "general_identity_report"),
    ("verification.identity_report", "elicit.verification", "two_outcome_identity_report"),
    ("verification.hurting_outcome", "elicit.verification", "hurting_outcome"),
    ("suites", "elicit.suites", "run_suites"),
) + tuple(
    ("formats", "elicit.formats", name)
    for name in (
        "parse_rational",
        "parse_profile_json",
        "parse_inline_profile",
        "parse_coalition",
        "profile_to_obj",
        "fraction_str",
        "decimal_str",
        "dumps",
        "csv_text",
    )
)

REQUEST = "request"
CLI = "cli"
LATTICE = "simplex.lattice"


def span_names() -> tuple[str, ...]:
    """Every layer span the traced run reports, in a stable order."""
    names = [name for name, _, _ in LAYER_TARGETS] + [CLI]
    return tuple(dict.fromkeys(names))


# Fields of an open span record (a list, so counts update in place).
_NAME, _START, _PARENT, _FRACTIONS, _INDEX, _EXTRA = range(6)


class BindingError(RuntimeError):
    """A wrapper did not bind, or an original was not restored."""


class Tracer:
    """Records spans and Fraction constructions while installed."""

    def __init__(self) -> None:
        # Closed spans: (name, start, end, parent index, fractions).
        self.spans: list = []
        # Fractions built while no span was open.
        self._base = [None, 0.0, -1, 0, -1, None]
        self._stack: list = [self._base]
        self.counters = {
            "rewards_used": 0,
            "rewards_computed": 0,
            "baseline_evals": 0,
            "lattice_points": 0,
        }
        self._restore: list = []

    # -- span records -------------------------------------------------

    def _enter(self, name: str, extra=None) -> list:
        index = len(self.spans)
        self.spans.append(None)
        rec = [name, perf_counter(), self._stack[-1][_INDEX], 0, index, extra]
        self._stack.append(rec)
        return rec

    def _leave(self, rec: list) -> None:
        end = perf_counter()
        if self._stack.pop() is not rec:
            raise RuntimeError(f"span {rec[_NAME]} closed out of order")
        self.spans[rec[_INDEX]] = (
            rec[_NAME], rec[_START], end, rec[_PARENT], rec[_FRACTIONS]
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        rec = self._enter(name)
        try:
            yield
        finally:
            self._leave(rec)

    # -- wrappers -----------------------------------------------------

    def _wrap_call(self, name: str, fn, hook=None):
        enter, leave = self._enter, self._leave

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(rec)
        else:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                rec = enter(name, hook(bound))
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(rec)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        enter, leave, counters = self._enter, self._leave, self.counters

        def resume(iterator):
            while True:
                rec = enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave(rec)
                counters["lattice_points"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        return wrapper

    # Hooks run as a span opens; what they return is kept on the record.

    def _coalition_hook(self, per_outcome: bool):
        counters = self.counters

        def hook(bound):
            profile, coalition = bound["profile"], bound["coalition"]
            outcomes = profile.n if per_outcome else 1
            counters["rewards_used"] += outcomes * len(coalition)
            counters["rewards_computed"] += outcomes * profile.m
            parent = self._stack[-1]
            if (
                per_outcome
                and parent[_NAME] == "arbitrage.check_dominance"
                and parent[_EXTRA] is profile
            ):
                counters["baseline_evals"] += outcomes
            return None

        return hook

    @staticmethod
    def _dominance_hook(bound):
        return bound["baseline"]

    def _hooks(self) -> dict:
        return {
            "contracts.coalition_totals": self._coalition_hook(True),
            "contracts.coalition_total": self._coalition_hook(False),
            "arbitrage.check_dominance": self._dominance_hook,
        }

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        """Patch every target in the loaded ``elicit`` modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "elicit" or key.startswith("elicit."))
        ]
        hooks = self._hooks()
        try:
            for name, module_name, qualname in LAYER_TARGETS:
                module = sys.modules.get(module_name)
                if module is None:
                    raise BindingError(f"{module_name} is not imported")
                if "." in qualname:
                    self._patch_method(name, module, qualname, hooks.get(name))
                else:
                    self._patch_function(
                        name, module, qualname, modules, hooks.get(name)
                    )
            self._patch_fraction()
        except BaseException:
            self.uninstall()
            raise

    def _patch_method(self, name, module, qualname, hook) -> None:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__.get(attr)
        if not inspect.isfunction(original):
            raise BindingError(f"{module.__name__}.{qualname} is not a plain method")
        setattr(cls, attr, self._wrap_call(name, original, hook))
        self._restore.append((cls, attr, original))

    def _patch_function(self, name, module, attr, modules, hook) -> None:
        original = getattr(module, attr, None)
        if not inspect.isfunction(original):
            raise BindingError(f"{module.__name__}.{attr} is not a function")
        if inspect.isgeneratorfunction(original):
            wrapper = self._wrap_generator(name, original)
        else:
            wrapper = self._wrap_call(name, original, hook)
        sites = [
            (mod, key)
            for mod in modules
            for key, value in list(vars(mod).items())
            if value is original
        ]
        for mod, key in sites:
            setattr(mod, key, wrapper)
            self._restore.append((mod, key, original))

    def _patch_fraction(self) -> None:
        stack = self._stack
        original_new = Fraction.__dict__["__new__"]
        new = original_new.__func__

        def counting_new(cls, *args, **kwargs):
            stack[-1][_FRACTIONS] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._restore.append((Fraction, "__new__", original_new))
        # Newer Pythons build arithmetic results without calling __new__.
        original_coprime = Fraction.__dict__.get("_from_coprime_ints")
        if original_coprime is not None:
            coprime = original_coprime.__func__

            def counting_coprime(cls, numerator, denominator):
                stack[-1][_FRACTIONS] += 1
                return coprime(cls, numerator, denominator)

            Fraction._from_coprime_ints = classmethod(counting_coprime)
            self._restore.append((Fraction, "_from_coprime_ints", original_coprime))

    def uninstall(self) -> None:
        """Restore every original and check that none stayed wrapped."""
        restore, self._restore = self._restore, []
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
        for owner, attr, original in restore:
            current = (
                owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            )
            if current is not original:
                raise BindingError(f"{owner!r}.{attr} was not restored")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, self time and Fractions, plus the counters."""
        if len(self._stack) != 1:
            raise RuntimeError("summary taken while spans are open")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict = {}
        for index, (name, start, end, parent, fractions) in enumerate(self.spans):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "fractions": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["fractions"] += fractions
        roots = [end - start for name, start, end, parent, _ in self.spans if parent < 0]
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "outside_fractions": self._base[_FRACTIONS],
            "root_wall_s": sum(roots),
            "spans": len(self.spans),
        }
