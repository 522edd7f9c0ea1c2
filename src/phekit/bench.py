"""Timing harness: per-scheme, per-level means for keygen, encrypt, decrypt,
and each scheme's native homomorphic operation.

One loop, `_time_calls`, times every cell: it prepares each repetition's
arguments untimed (a plaintext draw, fresh ciphertexts), then times one call.

Two schemes (benaloh, naccache-stern) are excluded at production key sizes by
default and show up as skip rows at the nominal key size; pass toy mode to
time them at `TOY_MODULUS_BITS` instead. Output is a fixed-column CSV plus
optional radar charts.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Optional

from .capabilities import ALGORITHMS, OPERATIONS, capabilities
from .errors import DegenerateChartError, MathDomainError, ParseError
from .frozen import Frozen
from .numtheory import RandomSource
from .schemes import generate_keys, scheme_for

# NIST symmetric-equivalent level -> key sizes
LEVEL_TO_MODULUS_BITS = {80: 1024, 112: 2048, 128: 3072, 192: 7680}
LEVEL_TO_CURVE_BITS = {80: 160, 112: 224, 128: 256, 192: 384}

# parameter search at >= 1024-bit moduli is too slow to benchmark by default
SKIP_AT_SCALE = ("benaloh", "naccache-stern")
TOY_MODULUS_BITS = 256

# width of the random plaintexts each cell encrypts
PLAINTEXT_BITS = 18

OPERATION_ORDER = ("keygen", "encrypt", "decrypt", "homop", "skip")

CSV_HEADER = "algorithm,level,key_size,operation,repetitions,mean_seconds"


class BenchPlan(Frozen):
    """What `run_bench` times, checked when it is built."""

    __slots__ = _compared = ("levels", "algorithms", "repetitions", "toy")

    def __init__(self, levels: tuple[int, ...] = (80,), algorithms: tuple[str, ...] = ALGORITHMS,
                 repetitions: int = 5, toy: bool = False):
        if not levels or not set(levels) <= LEVEL_TO_MODULUS_BITS.keys():
            known = ", ".join(str(lv) for lv in sorted(LEVEL_TO_MODULUS_BITS))
            raise MathDomainError(f"levels must be a non-empty subset of {{{known}}}")
        if not algorithms:
            known = ", ".join(ALGORITHMS)
            raise MathDomainError(f"algorithms must be a non-empty subset of {{{known}}}")
        bad_algs = ", ".join(sorted(map(str, set(algorithms) - set(ALGORITHMS))))
        if bad_algs:
            raise MathDomainError(f"unknown algorithm(s): {bad_algs}")
        if repetitions < 1:
            raise MathDomainError("repetitions must be >= 1")
        self._set(levels, algorithms, repetitions, toy)


class BenchRecord(Frozen):
    """One CSV row: the mean seconds of one operation's cell."""

    __slots__ = _compared = (
        "algorithm", "level", "key_size", "operation", "repetitions", "mean_seconds")

    def __init__(self, algorithm: str, level: int, key_size: int, operation: str,
                 repetitions: int, mean_seconds: float):
        self._set(algorithm, level, key_size, operation, repetitions, mean_seconds)


def _native_operation(algorithm: str) -> str:
    cap = capabilities(algorithm)
    return next(op for op in ("add", "mul", "xor") if getattr(cap, OPERATIONS[op][0]))


def _key_size_for(algorithm: str, level: int) -> int:
    if algorithm == "ec-elgamal":
        return LEVEL_TO_CURVE_BITS[level]
    return LEVEL_TO_MODULUS_BITS[level]


def run_bench(plan: BenchPlan, rng: Optional[RandomSource] = None) -> list[BenchRecord]:
    rng = rng or RandomSource()
    records: list[BenchRecord] = []
    ordered = [a for a in ALGORITHMS if a in plan.algorithms]
    for algorithm in ordered:
        for level in sorted(plan.levels):
            key_size = _key_size_for(algorithm, level)
            if algorithm in SKIP_AT_SCALE:
                if not plan.toy:
                    records.append(BenchRecord(algorithm, level, key_size, "skip", 0, 0.0))
                    continue
                key_size = TOY_MODULUS_BITS
            records.extend(_measure_cell(algorithm, level, key_size, plan.repetitions, rng))
    return records


def _time_calls(reps: int, prepare: Callable[[], tuple], operation: Callable) -> list[float]:
    """Seconds of each of `reps` calls `operation(*prepare())`; `prepare` is untimed."""
    times = []
    for _ in range(reps):
        args = prepare()
        start = time.perf_counter()
        operation(*args)
        times.append(time.perf_counter() - start)
    return times


def _measure_cell(
    algorithm: str, level: int, key_size: int, reps: int, rng: RandomSource
) -> list[BenchRecord]:
    # keygen timing includes the scheme's full parameter search, retries and all;
    # every key pair is drawn before the other cells' plaintexts and nonces
    keys = []
    keygen_times = _time_calls(
        reps, lambda: (), lambda: keys.append(generate_keys(algorithm, key_size, None, rng))
    )
    scheme = scheme_for(keys[-1])
    bound = scheme.plaintext_bound()
    # one untimed encrypt and decrypt, on draws of their own, builds the
    # fixed-base and baby-step tables, so every timed call is a steady one
    scheme.decrypt(scheme.encrypt(0, RandomSource()))

    def draw() -> int:
        m = rng.getrandbits(PLAINTEXT_BITS)
        if bound is not None and m >= bound:
            m %= bound
        return m

    def fresh_cipher():
        if algorithm == "goldwasser-micali":
            return scheme.encrypt(draw(), rng, bits=PLAINTEXT_BITS)
        return scheme.encrypt(draw(), rng)

    # encrypt passes no `bits`: Goldwasser-Micali's cell times its minimal width
    timed = {
        "keygen": keygen_times,
        "encrypt": _time_calls(reps, lambda: (draw(), rng), scheme.encrypt),
        "decrypt": _time_calls(reps, lambda: (fresh_cipher(),), scheme.decrypt),
        "homop": _time_calls(
            reps,
            lambda: (fresh_cipher(), fresh_cipher()),
            getattr(scheme, _native_operation(algorithm)),
        ),
    }
    return [
        BenchRecord(algorithm, level, key_size, operation, reps, sum(times) / len(times))
        for operation, times in timed.items()
    ]


# -- CSV ----------------------------------------------------------------------


def _sort_key(record: BenchRecord) -> tuple[int, int, int]:
    return (
        ALGORITHMS.index(record.algorithm),
        record.level,
        OPERATION_ORDER.index(record.operation),
    )


def emit_csv(records: Iterable[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(records, key=_sort_key):
        lines.append(
            f"{r.algorithm},{r.level},{r.key_size},{r.operation},"
            f"{r.repetitions},{r.mean_seconds:.5e}"
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[BenchRecord]:
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(f"field '(header)': expected {CSV_HEADER!r}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"field '(line {i})': expected 6 columns")
        algorithm, level, key_size, operation, reps, mean = parts
        if algorithm not in ALGORITHMS:
            raise ParseError(f"field 'algorithm' (line {i}): unknown {algorithm!r}")
        if operation not in OPERATION_ORDER:
            raise ParseError(f"field 'operation' (line {i}): unknown {operation!r}")
        try:
            records.append(
                BenchRecord(
                    algorithm, int(level), int(key_size), operation,
                    int(reps), float(mean),
                )
            )
        except ValueError as exc:
            raise ParseError(f"field '(line {i})': {exc}") from None
    return records


# -- radar charts ---------------------------------------------------------------


_PALETTE = ("#2563eb", "#dc2626", "#059669", "#d97706")


def emit_radar_svg(records: Iterable[BenchRecord], operation: str) -> str:
    """One polygon per level, one axis per algorithm, log-scaled radii."""
    rows = [r for r in records if r.operation == operation and r.mean_seconds > 0]
    axes = [a for a in ALGORITHMS if any(r.algorithm == a for r in rows)]
    if len(axes) < 3:
        raise DegenerateChartError(
            f"radar chart needs at least 3 algorithms with {operation} data, "
            f"got {len(axes)}"
        )
    levels = sorted({r.level for r in rows})
    values = {(r.algorithm, r.level): r.mean_seconds for r in rows}

    size = 640
    cx = cy = size // 2
    r_outer = 240.0
    r_inner = 40.0
    logs = [math.log10(v) for v in values.values()]
    lo, hi = min(logs), max(logs)

    def radius(v: float) -> float:
        if hi == lo:
            return r_outer
        return r_inner + (math.log10(v) - lo) / (hi - lo) * (r_outer - r_inner)

    def point(i: int, r: float) -> tuple[float, float]:
        angle = -math.pi / 2 + 2 * math.pi * i / len(axes)
        return (cx + r * math.cos(angle), cy + r * math.sin(angle))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif" font-size="12">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{cx}" y="24" text-anchor="middle" font-size="16">'
        f"{operation} time, log scale</text>",
    ]
    for ring in (1 / 3, 2 / 3, 1.0):
        ring_points = " ".join(
            f"{x:.1f},{y:.1f}" for x, y in
            (point(i, r_inner + ring * (r_outer - r_inner)) for i in range(len(axes)))
        )
        parts.append(
            f'<polygon points="{ring_points}" fill="none" stroke="#ccc" '
            'stroke-dasharray="3,3"/>'
        )
    for i, axis in enumerate(axes):
        x, y = point(i, r_outer)
        lx, ly = point(i, r_outer + 18)
        anchor = "middle" if abs(lx - cx) < 30 else ("start" if lx > cx else "end")
        parts.append(
            f'<line x1="{cx}" y1="{cy}" x2="{x:.1f}" y2="{y:.1f}" stroke="#999"/>'
        )
        parts.append(
            f'<text x="{lx:.1f}" y="{ly:.1f}" text-anchor="{anchor}">{axis}</text>'
        )
    for li, level in enumerate(levels):
        color = _PALETTE[li % len(_PALETTE)]
        poly = []
        for i, axis in enumerate(axes):
            v = values.get((axis, level))
            if v is None:
                continue
            x, y = point(i, radius(v))
            poly.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polygon points="{" ".join(poly)}" fill="{color}" fill-opacity="0.15" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<rect x="20" y="{40 + 20 * li}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="38" y="{51 + 20 * li}">level {level}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
