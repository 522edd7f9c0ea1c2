"""Timing harness: per-scheme, per-level means for keygen, encrypt, decrypt,
and each scheme's native homomorphic operation.

Two schemes (benaloh, naccache-stern) are excluded at production key sizes by
default and show up as skip rows; pass toy mode to time them at a small
modulus instead. Output is a fixed-column CSV plus optional radar charts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .capabilities import ALGORITHMS, capabilities
from .errors import DegenerateChartError, MathDomainError, ParseError
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


@dataclass(frozen=True)
class BenchPlan:
    levels: tuple[int, ...] = (80,)
    algorithms: tuple[str, ...] = ALGORITHMS
    repetitions: int = 5
    toy: bool = False

    def __post_init__(self):
        bad_levels = set(self.levels) - set(LEVEL_TO_MODULUS_BITS)
        if bad_levels or not self.levels:
            known = ", ".join(str(lv) for lv in sorted(LEVEL_TO_MODULUS_BITS))
            raise MathDomainError(f"levels must be a non-empty subset of {{{known}}}")
        bad_algs = set(self.algorithms) - set(ALGORITHMS)
        if bad_algs or not self.algorithms:
            raise MathDomainError(
                f"unknown algorithm(s): {', '.join(sorted(map(str, bad_algs)))}"
            )
        if self.repetitions < 1:
            raise MathDomainError("repetitions must be >= 1")


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    level: int
    key_size: int
    operation: str
    repetitions: int
    mean_seconds: float
    # not a CSV column: carries skip reasons and toy-size markers
    note: str = field(default="", compare=False)


def _native_operation(algorithm: str) -> str:
    cap = capabilities(algorithm)
    if cap.hom_add:
        return "add"
    if cap.hom_mul:
        return "mul"
    return "xor"


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
            nominal_size = _key_size_for(algorithm, level)
            if algorithm in SKIP_AT_SCALE and not plan.toy:
                records.append(
                    BenchRecord(
                        algorithm, level, nominal_size, "skip", 0, 0.0,
                        note="parameter search impractical at this key size",
                    )
                )
                continue
            if algorithm in SKIP_AT_SCALE:
                key_size = TOY_MODULUS_BITS
                note = f"toy run at {TOY_MODULUS_BITS}-bit modulus"
            else:
                key_size = nominal_size
                note = ""
            records.extend(
                _measure_cell(algorithm, level, key_size, note, plan, rng)
            )
    return records


def _measure_cell(
    algorithm: str,
    level: int,
    key_size: int,
    note: str,
    plan: BenchPlan,
    rng: RandomSource,
) -> list[BenchRecord]:
    reps = plan.repetitions
    is_gm = algorithm == "goldwasser-micali"

    # keygen timing includes the scheme's full parameter search, retries and all
    keygen_times = []
    keys = None
    for _ in range(reps):
        start = time.perf_counter()
        keys = generate_keys(algorithm, key_size, None, rng)
        keygen_times.append(time.perf_counter() - start)
    scheme = scheme_for(keys)
    bound = scheme.plaintext_bound()

    def draw() -> int:
        m = rng.getrandbits(PLAINTEXT_BITS)
        if bound is not None and m >= bound:
            m %= bound
        return m

    def fresh_cipher():
        if is_gm:
            return scheme.encrypt(draw(), rng, bits=PLAINTEXT_BITS)
        return scheme.encrypt(draw(), rng)

    encrypt_times = []
    for _ in range(reps):
        m = draw()
        start = time.perf_counter()
        scheme.encrypt(m, rng)
        encrypt_times.append(time.perf_counter() - start)

    decrypt_times = []
    for _ in range(reps):
        c = fresh_cipher()
        start = time.perf_counter()
        scheme.decrypt(c)
        decrypt_times.append(time.perf_counter() - start)

    op_name = _native_operation(algorithm)
    combine = {"add": scheme.add, "mul": scheme.mul, "xor": scheme.xor}[op_name]
    homop_times = []
    for _ in range(reps):
        c1, c2 = fresh_cipher(), fresh_cipher()
        start = time.perf_counter()
        combine(c1, c2)
        homop_times.append(time.perf_counter() - start)

    def record(operation: str, times: list[float]) -> BenchRecord:
        return BenchRecord(
            algorithm, level, key_size, operation, reps, sum(times) / len(times), note
        )

    return [
        record("keygen", keygen_times),
        record("encrypt", encrypt_times),
        record("decrypt", decrypt_times),
        record("homop", homop_times),
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
