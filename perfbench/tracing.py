"""Opt-in tracing for the traced benchmark run.

`instrument(tracer)` rebinds the public names that phekit's modules look up
(module attributes and the methods of the scheme and `PHE` classes) to
wrappers that record a span or bump a counter. Nothing here is imported by
the untraced run, which executes the package unmodified.

A span is `[name, start, end, parent, op]`; spans live in memory until the
run ends. `op` is the timed-op index, or "setup" / "check" outside the timed
loop. A span's *layer self time* is its duration minus the time covered by
descendant spans of other modules; nested spans of the same module count
toward it, so `algebra.phe` keeps the time its `cipher_*` calls spend in the
algebra layer.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

from phekit import algebra, bench, cli, ec, numtheory, schemes, serialization
from phekit.algebra import PHE
from phekit.numtheory import RandomSource
from phekit.schemes import SCHEME_CLASSES, Scheme
from workloads import ALGORITHMS, WITH_REGEN, WITH_SCALAR

CLI_COMMANDS = ("keygen", "encrypt", "add", "smul", "regen", "decrypt", "mul")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: object = "setup"

    def count(self, name: str) -> None:
        self.counts[name, self.op] += 1

    def wrap(self, fn, name, count_true: str = ""):
        """Wrap fn in a span; `name` is a string or a function of the args."""
        spans, stack = self.spans, self.stack
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            rec = [fixed or name(args), perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count_true and result:
                self.count(count_true)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name, self.op] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def counting_random_source(tracer: Tracer) -> type[RandomSource]:
    """A RandomSource subclass that counts every draw into `tracer`."""

    class CountingRandomSource(RandomSource):
        def getrandbits(self, k: int) -> int:
            tracer.count("numtheory.rng.draws")
            return super().getrandbits(k)

        def randrange(self, start, stop=None) -> int:
            tracer.count("numtheory.rng.draws")
            return super().randrange(start, stop)

    return CountingRandomSource


def _rebind(original, replacement) -> None:
    """Point every phekit module attribute bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("phekit") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(t: Tracer) -> None:
    """Install the wrappers for the rest of the process."""
    spans = {
        numtheory.discrete_log_bounded: "numtheory.discrete_log_bounded",
        ec.scalar_mul: "ec.scalar_mul",
        schemes.scheme_for: "schemes.scheme_for",
        serialization.key_fingerprint: "serialization.key_fingerprint",
        serialization.parse_key: "serialization.parse_key",
        serialization.serialize_key: "serialization.serialize_key",
        algebra.cipher_add: "algebra.add",
        algebra.cipher_scalar: "algebra.scalar",
        algebra.to_rational: "algebra.to_rational",
        algebra.parse_ciphertext: "algebra.parse_ciphertext",
        algebra.serialize_ciphertext: "algebra.serialize_ciphertext",
        bench.run_bench: "bench.run_bench",
        bench.emit_csv: "bench.emit_csv",
        bench.emit_radar_svg: "bench.emit_radar_svg",
    }
    for fn, name in spans.items():
        _rebind(fn, t.wrap(fn, name))
    _rebind(numtheory.is_probable_prime,
            t.wrap(numtheory.is_probable_prime, "numtheory.is_probable_prime",
                   count_true="numtheory.is_probable_prime.true"))
    _rebind(schemes.generate_keys,
            t.wrap(schemes.generate_keys, lambda a: f"schemes.{a[0]}.keygen"))
    _rebind(cli.run, t.wrap(cli.run, lambda a: f"cli.run.{a[0][0]}"))
    _rebind(ec.point_add, t.counting(ec.point_add, "ec.point_add"))
    # `phekit.capabilities` the attribute is the function; fetch the module
    matrix = importlib.import_module("phekit.capabilities")
    _rebind(matrix.ensure_supported,
            t.counting(matrix.ensure_supported, "capabilities.ensure_supported"))

    def scheme_name(op):
        return lambda a: f"schemes.{a[0].algorithm}.{op}"

    for op, label in (("add", "homop"), ("mul", "homop"), ("xor", "homop"),
                      ("scalar", "scalar"), ("regenerate", "regen")):
        setattr(Scheme, op, t.wrap(Scheme.__dict__[op], scheme_name(label)))
    for cls in SCHEME_CLASSES.values():
        for op in ("encrypt", "decrypt"):
            if op in cls.__dict__:
                setattr(cls, op, t.wrap(cls.__dict__[op], scheme_name(op)))
    for op in ("encrypt", "decrypt", "add", "mul", "xor", "scalar", "regenerate"):
        setattr(PHE, op, t.wrap(PHE.__dict__[op], "algebra.phe"))
    # the benchmark's own draws go through numtheory.RandomSource too
    _rebind(RandomSource, counting_random_source(t))


# -- turning spans into per-layer metrics --------------------------------------


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus time covered by other-module descendants."""
    other = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if parent < 0:
            continue
        if _module(name) != _module(spans[parent][0]):
            other[parent] += end - start
        else:
            other[parent] += other[i]
    return [s[2] - s[1] - other[i] for i, s in enumerate(spans)]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, extra: dict[str, float],
                      count_ops: int) -> dict[str, tuple]:
    """Every per-layer metric, in BENCHMARK.json order, as (value, unit).

    Times are medians over every call in the run (set-up, ops and checks).
    Counts depend only on the seed: per-op counts are the mean over the first
    `count_ops` timed ops, per-run counts cover set-up plus those ops. A
    metric whose layer the workload does not reach reads 0.
    """
    spans = tracer.spans
    selfs = layer_self_times(spans)
    durations: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    prefix_self: dict[str, float] = {}
    prefix = ("setup", *range(count_ops))
    for rec, self_time in zip(spans, selfs):
        name, start, end, _, op = rec
        durations.setdefault(name, []).append(end - start)
        self_by_name.setdefault(name, []).append(self_time)
        if op in prefix:
            prefix_self[name] = prefix_self.get(name, 0.0) + self_time

    counts = tracer.counts + Counter((s[0], s[4]) for s in spans)

    def per_op(name: str) -> float:
        return sum(counts[name, op] for op in range(count_ops)) / count_ops

    def run_count(name: str) -> int:
        return sum(counts[name, op] for op in prefix)

    def p50(name: str, scale: float) -> float:
        return _median(durations.get(name, ())) * scale

    def self_p50(name: str, scale: float) -> float:
        return _median(self_by_name.get(name, ())) * scale

    prime_calls = run_count("numtheory.is_probable_prime")
    primes = run_count("numtheory.is_probable_prime.true")
    m: dict[str, tuple] = {
        "numtheory.is_probable_prime.calls": (prime_calls, "count"),
        "numtheory.is_probable_prime.self_ms": (
            prefix_self.get("numtheory.is_probable_prime", 0.0) * 1e3, "ms"),
        "numtheory.rng.draws": (run_count("numtheory.rng.draws"), "count"),
        "numtheory.prime_yield": (primes / prime_calls if prime_calls else 0.0,
                                  "ratio"),
        "numtheory.discrete_log_bounded.calls": (
            per_op("numtheory.discrete_log_bounded"), "count"),
        "numtheory.discrete_log_bounded.p50_ms": (
            p50("numtheory.discrete_log_bounded", 1e3), "ms"),
        "ec.scalar_mul.calls": (per_op("ec.scalar_mul"), "count"),
        "ec.scalar_mul.p50_ms": (p50("ec.scalar_mul", 1e3), "ms"),
        "ec.point_add.calls": (per_op("ec.point_add"), "count"),
        "capabilities.ensure_supported.calls_per_op": (
            per_op("capabilities.ensure_supported"), "count"),
        "schemes.scheme_for.calls_per_op": (per_op("schemes.scheme_for"), "count"),
        "schemes.scheme_for.p50_us": (p50("schemes.scheme_for", 1e6), "us"),
    }
    for alg in ALGORITHMS:
        base = f"schemes.{alg}"
        m[f"{base}.keygen_s"] = (p50(f"{base}.keygen", 1.0), "s")
        m[f"{base}.encrypt_ms"] = (p50(f"{base}.encrypt", 1e3), "ms")
        m[f"{base}.decrypt_ms"] = (p50(f"{base}.decrypt", 1e3), "ms")
        m[f"{base}.homop_us"] = (p50(f"{base}.homop", 1e6), "us")
        if alg in WITH_SCALAR:
            m[f"{base}.scalar_ms"] = (p50(f"{base}.scalar", 1e3), "ms")
        if alg in WITH_REGEN:
            m[f"{base}.regen_ms"] = (p50(f"{base}.regen", 1e3), "ms")
    m.update({
        "serialization.key_fingerprint.calls_per_op": (
            per_op("serialization.key_fingerprint"), "count"),
        "serialization.key_fingerprint.p50_us": (
            p50("serialization.key_fingerprint", 1e6), "us"),
        "serialization.parse_key.ms": (p50("serialization.parse_key", 1e3), "ms"),
        "serialization.serialize_key.ms": (
            p50("serialization.serialize_key", 1e3), "ms"),
        "algebra.add.self_us": (self_p50("algebra.add", 1e6), "us"),
        "algebra.scalar.self_us": (self_p50("algebra.scalar", 1e6), "us"),
        "algebra.to_rational.p50_us": (p50("algebra.to_rational", 1e6), "us"),
        "algebra.phe.self_us": (self_p50("algebra.phe", 1e6), "us"),
        "algebra.parse_ciphertext.us": (p50("algebra.parse_ciphertext", 1e6), "us"),
        "algebra.serialize_ciphertext.us": (
            p50("algebra.serialize_ciphertext", 1e6), "us"),
        "bench.run_bench.s": (p50("bench.run_bench", 1.0), "s"),
        "bench.untimed_share": (extra.get("bench.untimed_share", 0.0), "ratio"),
        "bench.emit_csv.ms": (p50("bench.emit_csv", 1e3), "ms"),
        "bench.emit_radar_svg.ms": (p50("bench.emit_radar_svg", 1e3), "ms"),
        "cli.spawn_ms": (extra.get("cli.spawn_ms", 0.0), "ms"),
        "cli.import_ms": (extra.get("cli.import_ms", 0.0), "ms"),
    })
    for command in CLI_COMMANDS:
        m[f"cli.run.{command}_ms"] = (p50(f"cli.run.{command}", 1e3), "ms")
    return m
