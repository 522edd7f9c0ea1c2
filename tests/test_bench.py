import random
import re
import xml.etree.ElementTree as ET

import pytest

from phekit import RandomSource, bench
from phekit.bench import (
    CSV_HEADER,
    LEVEL_TO_CURVE_BITS,
    LEVEL_TO_MODULUS_BITS,
    OPERATION_ORDER,
    PLAINTEXT_BITS,
    SKIP_AT_SCALE,
    TOY_MODULUS_BITS,
    BenchPlan,
    BenchRecord,
    emit_csv,
    emit_radar_svg,
    parse_csv,
    run_bench,
)
from phekit.capabilities import ALGORITHMS
from phekit.errors import DegenerateChartError, MathDomainError, ParseError

ROW_PATTERN = re.compile(
    r"^[a-z-]+,\d+,\d+,(keygen|encrypt|decrypt|homop|skip),\d+,\d\.\d{5}e[+-]\d{2}$"
)


def test_nist_level_maps():
    assert LEVEL_TO_MODULUS_BITS == {80: 1024, 112: 2048, 128: 3072, 192: 7680}
    assert LEVEL_TO_CURVE_BITS == {80: 160, 112: 224, 128: 256, 192: 384}


def test_plan_validation():
    BenchPlan()  # defaults are valid
    levels = r"levels must be a non-empty subset of \{80, 112, 128, 192\}$"
    with pytest.raises(MathDomainError, match=levels):
        BenchPlan(levels=(81,))
    with pytest.raises(MathDomainError, match=levels):
        BenchPlan(levels=())
    with pytest.raises(MathDomainError, match=r"unknown algorithm\(s\): rot13$"):
        BenchPlan(algorithms=("rot13",))
    names = ", ".join(ALGORITHMS)
    with pytest.raises(MathDomainError,
                       match=re.escape(f"algorithms must be a non-empty subset of {{{names}}}")):
        BenchPlan(algorithms=())
    with pytest.raises(MathDomainError, match="repetitions must be >= 1"):
        BenchPlan(repetitions=0)


def test_plan_defaults():
    plan = BenchPlan()
    assert plan.levels == (80,)
    assert plan.algorithms == ALGORITHMS
    assert plan.repetitions == 5
    assert PLAINTEXT_BITS == 18
    assert plan.toy is False


def test_run_bench_smoke():
    plan = BenchPlan(algorithms=("rsa", "paillier"), repetitions=1)
    records = run_bench(plan, RandomSource(3))
    assert len(records) == 8
    by_alg = {r.algorithm for r in records}
    assert by_alg == {"rsa", "paillier"}
    for r in records:
        assert r.level == 80
        assert r.key_size == 1024
        assert r.repetitions == 1
        assert r.mean_seconds > 0
        assert r.operation in ("keygen", "encrypt", "decrypt", "homop")


def test_skip_rows_at_scale():
    plan = BenchPlan(algorithms=SKIP_AT_SCALE, repetitions=1)
    records = run_bench(plan, RandomSource(3))
    assert len(records) == 2
    for r in records:
        assert r.operation == "skip"
        assert r.repetitions == 0
        assert r.mean_seconds == 0.0
        assert r.key_size == 1024  # the size that was skipped, not the toy size


def test_toy_mode_measures_the_slow_pair():
    plan = BenchPlan(algorithms=("benaloh",), repetitions=1, toy=True)
    records = run_bench(plan, RandomSource(3))
    assert len(records) == 4
    for r in records:
        assert r.operation != "skip"
        assert r.key_size == TOY_MODULUS_BITS


def test_ec_uses_curve_sizes():
    plan = BenchPlan(algorithms=("ec-elgamal",), repetitions=1)
    records = run_bench(plan, RandomSource(3))
    assert all(r.key_size == 160 for r in records)


@pytest.mark.parametrize(
    "algorithm, key_size, tables",
    [
        ("elgamal", 64, {"_fixed_bases"}),
        ("exp-elgamal", 64, {"_fixed_bases", "_baby_steps"}),
        ("ec-elgamal", 160, {"_fixed_bases", "_baby_steps"}),
        ("naccache-stern", TOY_MODULUS_BITS, {"_baby_steps"}),
    ],
)
def test_tables_exist_before_the_first_timed_call(monkeypatch, algorithm, key_size, tables):
    """The cell's untimed warm-up builds the one-off tables, so no timed
    repetition pays for them."""
    built = []
    time_calls = bench._time_calls

    def spy(reps, prepare, operation):
        scheme = getattr(operation, "__self__", None)  # None for keygen
        if scheme is not None:
            built.append(tables & set(vars(scheme)))
        return time_calls(reps, prepare, operation)

    monkeypatch.setattr(bench, "_time_calls", spy)
    bench._measure_cell(algorithm, 80, key_size, 1, RandomSource(5))
    assert built == [tables] * 3  # encrypt, decrypt, homop


def test_csv_golden_shape():
    records = [
        BenchRecord("paillier", 80, 1024, "keygen", 5, 0.123456),
        BenchRecord("paillier", 80, 1024, "encrypt", 5, 0.000123456),
    ]
    text = emit_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "paillier,80,1024,keygen,5,1.23456e-01"
    assert lines[2] == "paillier,80,1024,encrypt,5,1.23456e-04"
    assert text.endswith("\n")


def test_csv_empty_is_header_only():
    assert emit_csv([]) == CSV_HEADER + "\n"


def test_csv_single_record_is_two_lines():
    text = emit_csv([BenchRecord("rsa", 80, 1024, "keygen", 1, 0.5)])
    assert len(text.splitlines()) == 2


def test_csv_rows_match_format(tmp_path):
    records = run_bench(
        BenchPlan(algorithms=("rsa", "benaloh"), repetitions=1), RandomSource(3)
    )
    for line in emit_csv(records).splitlines()[1:]:
        assert ROW_PATTERN.match(line), line


def test_csv_ordering_is_canonical():
    records = [
        BenchRecord(a, lv, 1024, op, 1, 0.001)
        for a in ("paillier", "rsa")
        for lv in (112, 80)
        for op in ("homop", "keygen")
    ]
    random.Random(0).shuffle(records)
    lines = emit_csv(records).splitlines()[1:]
    keys = [
        (ALGORITHMS.index(line.split(",")[0]),
         int(line.split(",")[1]),
         OPERATION_ORDER.index(line.split(",")[3]))
        for line in lines
    ]
    assert keys == sorted(keys)
    assert lines[0].startswith("rsa,80,")  # presentation order, not alphabetical


def test_csv_roundtrip_is_stable():
    records = run_bench(
        BenchPlan(algorithms=("rsa", "naccache-stern"), repetitions=1),
        RandomSource(3),
    )
    text = emit_csv(records)
    assert emit_csv(parse_csv(text)) == text


def test_parse_csv_errors():
    with pytest.raises(ParseError, match="header"):
        parse_csv("algorithm,level\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_csv(CSV_HEADER + "\nrsa,80,1024,keygen,5\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_csv(
            CSV_HEADER
            + "\nrsa,80,1024,keygen,5,1.00000e-01"
            + "\nrot13,80,1024,keygen,5,1.00000e-01\n"
        )
    with pytest.raises(ParseError, match="operation"):
        parse_csv(CSV_HEADER + "\nrsa,80,1024,sing,5,1.00000e-01\n")
    with pytest.raises(ParseError):
        parse_csv(CSV_HEADER + "\nrsa,80,1024,keygen,five,1.00000e-01\n")


def _records_for_chart():
    return [
        BenchRecord(algorithm, level, 1024, "keygen", 5, mean)
        for level, scale in ((80, 1.0), (112, 8.0))
        for algorithm, mean in (
            ("rsa", 0.1 * scale),
            ("paillier", 0.2 * scale),
            ("elgamal", 0.8 * scale),
            ("okamoto-uchiyama", 0.05 * scale),
        )
    ]


def test_radar_svg_structure():
    svg = emit_radar_svg(_records_for_chart(), "keygen")
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    assert root.attrib["width"] == "640"
    assert svg.count("<polygon") == 3 + 2  # three grid rings + two level polygons
    for name in ("rsa", "paillier", "elgamal", "okamoto-uchiyama"):
        assert name in svg
    assert "level 80" in svg and "level 112" in svg
    assert "keygen" in svg


def test_radar_ignores_other_operations_and_skips():
    records = _records_for_chart() + [
        BenchRecord("benaloh", 80, 1024, "skip", 0, 0.0),
        BenchRecord("rsa", 80, 1024, "encrypt", 5, 0.001),
    ]
    svg = emit_radar_svg(records, "keygen")
    assert "benaloh" not in svg


def test_radar_needs_three_axes():
    records = [
        BenchRecord("rsa", 80, 1024, "keygen", 5, 0.1),
        BenchRecord("paillier", 80, 1024, "keygen", 5, 0.2),
    ]
    with pytest.raises(DegenerateChartError, match="3"):
        emit_radar_svg(records, "keygen")
    with pytest.raises(DegenerateChartError):
        emit_radar_svg([], "decrypt")


def test_radar_constant_values_still_render():
    records = [
        BenchRecord(a, 80, 1024, "keygen", 5, 0.25)
        for a in ("rsa", "paillier", "elgamal")
    ]
    ET.fromstring(emit_radar_svg(records, "keygen"))
