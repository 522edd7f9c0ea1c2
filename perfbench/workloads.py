"""The benchmark's four workloads.

Each is a closed loop with one client and no threads: the next op starts
when the previous one has returned. Keys and encryption randomness come from
`RandomSource(seed)`; plaintexts, weights and picks come from a separate
`random.Random` stream, so the package only ever sees generated inputs.

A workload builds its state in `build(index)`. The harness times every build
and reports the median as `setup_s`; build 0 uses the workload seed and its
state is the one the timed ops run on, later builds use derived seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from phekit import bench, cli, numtheory
from phekit.algebra import PHE
from phekit.errors import CapabilityError, DegenerateChartError, MathDomainError

# The capability table and the frozen denial wording, restated from the
# README so a change to the package cannot silently move the expectations.
ALGORITHMS = (
    "rsa", "goldwasser-micali", "elgamal", "exp-elgamal", "benaloh",
    "ec-elgamal", "naccache-stern", "okamoto-uchiyama", "paillier",
    "damgard-jurik",
)
DISPLAY = {
    "rsa": "RSA", "goldwasser-micali": "Goldwasser-Micali",
    "elgamal": "ElGamal", "exp-elgamal": "Exponential-ElGamal",
    "benaloh": "Benaloh", "ec-elgamal": "EllipticCurve-ElGamal",
    "naccache-stern": "Naccache-Stern", "okamoto-uchiyama": "Okamoto-Uchiyama",
    "paillier": "Paillier", "damgard-jurik": "Damgard-Jurik",
}
NATIVE = {alg: "add" for alg in ALGORITHMS}
NATIVE.update({"rsa": "mul", "elgamal": "mul", "goldwasser-micali": "xor"})
WITH_SCALAR = ("exp-elgamal", "benaloh", "ec-elgamal", "naccache-stern",
               "okamoto-uchiyama", "paillier", "damgard-jurik")
WITH_REGEN = ("exp-elgamal", "benaloh", "naccache-stern", "okamoto-uchiyama",
              "paillier", "damgard-jurik")
PHRASE = {"add": "the addition", "mul": "the multiplication",
          "xor": "the exclusive or"}

# Security level 80 as phekit.bench sizes it: 1024-bit moduli, secp160r1, and
# the harness's 256-bit toy modulus for Benaloh and Naccache-Stern.
LEVEL_80_BITS = {alg: 1024 for alg in ALGORITHMS}
LEVEL_80_BITS.update({"ec-elgamal": 160, "benaloh": 256, "naccache-stern": 256})
GM_BITS = 16
SMALL_PLAINTEXT = 1 << 10  # keeps k * (m1 + m2) under the 2^20 discrete-log bound
CHART_OPERATIONS = ("keygen", "encrypt", "decrypt", "homop")


def expect_error(action, error: type, message: str) -> bool:
    """True when `action` raises `error` with exactly `message`."""
    try:
        action()
    except error as exc:
        return str(exc) == message
    return False


def inputs_for(seed: int, index: int) -> random.Random:
    return random.Random(f"perfbench-inputs-{seed}-{index}")


class Workload:
    name = ""
    setups = 5  # builds per untraced run
    count_ops = 1  # leading ops the traced run's per-op counts average over
    min_ops = 1  # the loop runs past --seconds until this many ops are done

    def __init__(self, root: Path, workdir: Path, seed: int, traced: bool):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.traced = traced
        self.state = None
        self.setup_checks: list[tuple[str, bool]] = []

    def derived_seed(self, index: int) -> int:
        return self.seed if index == 0 else self.seed * 1000 + index

    def build(self, index: int):
        raise NotImplementedError

    def op(self, i: int) -> bool:
        raise NotImplementedError

    def after_op(self, i: int) -> bool:
        """Untimed follow-up to op `i`; its time is left out of every metric."""
        return True

    def checks(self) -> list[tuple[str, object]]:
        """(name, zero-argument callable returning bool), run after the loop."""
        return []

    def params(self) -> dict:
        return {}

    def info(self, scaled) -> dict[str, tuple[float, str, int]]:
        """Workload-specific figures printed beside the end-to-end metrics;
        `scaled(start, end)` converts a wall-clock interval as the harness does."""
        return {}

    def trace_extra(self) -> dict[str, float]:
        """Per-layer values the workload measures itself in the traced run."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally(Workload):
    """Encrypted weighted tally through the ciphertext operators."""

    name = "tally"
    POOL = 16

    def build(self, index):
        phe = PHE("paillier", key_size=1024,
                  rng=numtheory.RandomSource(self.derived_seed(index)))
        inputs = inputs_for(self.seed, index)
        values = [inputs.randrange(1000) for _ in range(self.POOL)]
        return {
            "phe": phe,
            "inputs": inputs,
            "values": values,
            "pool": [phe.encrypt(v) for v in values],
            "total": phe.encrypt(0),
            "expected": 0,
        }

    def op(self, i):
        s = self.state
        w = s["inputs"].randrange(1, 10)
        j = s["inputs"].randrange(self.POOL)
        s["total"] = s["total"] + w * s["pool"][j]
        s["expected"] += w * s["values"][j]
        return True

    def checks(self):
        s = self.state
        phe, total, expected = s["phe"], s["total"], s["expected"]
        return [
            ("decrypt(total)", lambda: phe.decrypt(total) == expected),
            ("decrypt('1.05' * total, rational=True)",
             lambda: phe.decrypt("1.05" * total, rational=True)
             == Fraction(21, 20) * expected),
            ("denied total * total",
             lambda: expect_error(lambda: total * total, CapabilityError,
                                  "Paillier is not homomorphic with respect "
                                  "to the multiplication")),
            ("denied total ^ total",
             lambda: expect_error(lambda: total ^ total, CapabilityError,
                                  "Paillier is not homomorphic with respect "
                                  "to the exclusive or")),
        ]

    def params(self):
        return {"algorithm": "paillier", "key_bits": 1024, "pool": self.POOL,
                "weights": "1..9", "ballot_values": "0..999"}


class Roundtrip(Workload):
    """One op is one cycle over all ten schemes through the PHE methods."""

    name = "roundtrip"
    setups = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.scheme_times: dict[str, list[tuple]] = {alg: [] for alg in ALGORITHMS}

    def build(self, index):
        rng = numtheory.RandomSource(self.derived_seed(index))
        state = {
            "phes": {alg: PHE(alg, key_size=LEVEL_80_BITS[alg], rng=rng)
                     for alg in ALGORITHMS},
            "inputs": inputs_for(self.seed, index),
        }
        # one untimed cycle fills per-instance caches (the EC baby-step table)
        # so every timed cycle does the same counted work
        self.setup_checks.append((f"warm-up cycle {index}", self._cycle(state, None)))
        return state

    def op(self, i):
        return self._cycle(self.state, self.scheme_times)

    def _cycle(self, state, times) -> bool:
        ok = True
        for alg, phe in state["phes"].items():
            start = time.perf_counter()
            ok &= self._scheme_round(alg, phe, state["inputs"])
            if times is not None:
                times[alg].append((start, time.perf_counter()))
        return ok

    @staticmethod
    def _scheme_round(alg: str, phe: PHE, inputs: random.Random) -> bool:
        name, native = DISPLAY[alg], NATIVE[alg]
        bound = phe.scheme.plaintext_bound()
        if alg == "goldwasser-micali":
            m1, m2 = inputs.getrandbits(GM_BITS), inputs.getrandbits(GM_BITS)
            c1, c2 = phe.encrypt(m1, bits=GM_BITS), phe.encrypt(m2, bits=GM_BITS)
        else:
            limit = min(bound, SMALL_PLAINTEXT)
            m1, m2 = inputs.randrange(limit), inputs.randrange(limit)
            c1, c2 = phe.encrypt(m1), phe.encrypt(m2)
        c = getattr(phe, native)(c1, c2)
        expected = {"add": m1 + m2, "mul": m1 * m2, "xor": m1 ^ m2}[native]
        denied = "mul" if native == "add" else "add"
        ok = expect_error(lambda: getattr(phe, denied)(c1, c2), CapabilityError,
                          f"{name} is not homomorphic with respect to "
                          f"{PHRASE[denied]}")
        if alg in WITH_SCALAR:
            k = inputs.randrange(1, 16)
            c = phe.scalar(k, c)
            expected *= k
        else:
            ok &= expect_error(lambda: phe.scalar(2, c), CapabilityError,
                               f"{name} does not support scalar multiplication")
        if alg in WITH_REGEN:
            fresh = phe.regenerate(c)
            ok &= fresh.payload != c.payload
            c = fresh
        else:
            ok &= expect_error(lambda: phe.regenerate(c), CapabilityError,
                               f"{name} does not support ciphertext regeneration")
        if native == "add":
            expected %= bound  # Benaloh's r = 257 wraps; the others never do
        return ok and phe.decrypt(c) == expected

    def params(self):
        return {"key_bits": LEVEL_80_BITS, "curve": "secp160r1",
                "goldwasser_micali_bits": GM_BITS,
                "plaintexts": f"below min(bound, {SMALL_PLAINTEXT})",
                "scalars": "1..15"}

    def info(self, scaled):
        medians = [statistics.median(scaled(*i) for i in t)
                   for t in self.scheme_times.values()]
        geomean = math.exp(sum(math.log(v) for v in medians) / len(medians))
        return {"scheme_geomean_ms": (geomean * 1e3, "ms", len(self.scheme_times["rsa"]))}


class Sweep(Workload):
    """One op is `phekit bench --levels 80 --toy --svg-dir`, in process."""

    name = "sweep"
    setups = 9  # one build is a ~0.1 s child interpreter, so take more of them
    # one sweep takes about 15 s and its key generation time varies with the
    # seed by about 15%, so a run needs several sweeps for a steady median
    min_ops = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.walls: list[float] = []  # run_bench wall time, for the untimed share
        self.timed: list[float] = []

    def build(self, index):
        # the sweep makes its keys inside the op; its set-up is a fresh
        # interpreter loading the harness
        run_python(self.root, ["-c", "import phekit.bench"], check=True)
        return numtheory.RandomSource(self.derived_seed(index))

    def op(self, i):
        start = time.perf_counter()
        records = bench.run_bench(bench.BenchPlan(levels=(80,), toy=True), self.state)
        self.walls.append(time.perf_counter() - start)
        self.timed.append(sum(r.mean_seconds * r.repetitions for r in records))
        csv = bench.emit_csv(records)
        charts = [bench.emit_radar_svg(records, op) for op in CHART_OPERATIONS]
        return (
            bench.emit_csv(bench.parse_csv(csv)) == csv
            and self._records_ok(records)
            and all(self._chart_ok(svg) for svg in charts)
        )

    @staticmethod
    def _records_ok(records) -> bool:
        cells = {(r.algorithm, r.operation): r for r in records}
        return len(records) == 4 * len(ALGORITHMS) and all(
            (alg, op) in cells
            and cells[alg, op].key_size == LEVEL_80_BITS[alg]
            and cells[alg, op].repetitions == 5
            and cells[alg, op].mean_seconds > 0
            for alg in ALGORITHMS for op in CHART_OPERATIONS
        )

    @staticmethod
    def _chart_ok(svg: str) -> bool:
        return (svg.startswith("<svg ") and svg.endswith("</svg>\n")
                and all(f">{alg}</text>" in svg for alg in ALGORITHMS))

    def checks(self):
        return [
            ("denied BenchPlan(levels=(81,))",
             lambda: expect_error(lambda: bench.BenchPlan(levels=(81,)),
                                  MathDomainError,
                                  "levels must be a non-empty subset of "
                                  "{80, 112, 128, 192}")),
            ("refused chart without data",
             lambda: expect_error(lambda: bench.emit_radar_svg([], "keygen"),
                                  DegenerateChartError,
                                  "radar chart needs at least 3 algorithms "
                                  "with keygen data, got 0")),
        ]

    def params(self):
        return {"plan": "BenchPlan(levels=(80,), toy=True)", "repetitions": 5,
                "plaintext_bits": 18, "key_bits": LEVEL_80_BITS,
                "charts": list(CHART_OPERATIONS)}

    def _untimed_share(self) -> float:
        return 1 - sum(self.timed) / sum(self.walls)

    def info(self, scaled):
        return {"bench.untimed_share": (self._untimed_share(), "ratio",
                                        len(self.walls))}

    def trace_extra(self):
        return {"bench.untimed_share": self._untimed_share()}


class Cli(Workload):
    """The README workflow, one `python -m phekit` process per op."""

    name = "cli"
    setups = 9  # one build is a ~0.2 s child interpreter, so take more of them
    STEPS = 7
    count_ops = STEPS  # one full command cycle
    DENIED = "error: Paillier is not homomorphic with respect to the multiplication"

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = inputs_for(self.seed, 0)
        self.expected = Fraction(0)

    def build(self, index):
        keydir = self.workdir / f"keys{index}"
        keydir.mkdir(parents=True)
        argv = ["keygen", "--algorithm", "paillier", "--key-size", "1024",
                "--out", str(keydir / "keys.json"),
                "--public-out", str(keydir / "keys.pub.json")]
        run_python(self.root, ["-m", "phekit", *argv],
                   seed=self.derived_seed(index), check=True)
        if self.traced:
            traced = keydir / "traced"
            traced.mkdir()
            argv[argv.index("--out") + 1] = str(traced / "keys.json")
            argv[argv.index("--public-out") + 1] = str(traced / "keys.pub.json")
            code, _, _ = self._in_process(argv)
            self.setup_checks.append(("in-process keygen matches", code == 0 and all(
                (keydir / f).read_bytes() == (traced / f).read_bytes()
                for f in ("keys.json", "keys.pub.json"))))
        return keydir

    def _paths(self, base: Path) -> dict[str, str]:
        keys = self.state
        names = ("a", "b", "sum", "scaled", "fresh", "product")
        return {"pub": str(keys / "keys.pub.json"), "priv": str(keys / "keys.json"),
                **{n: str(base / f"{n}.json") for n in names}}

    def _argv(self, step: int, p: dict[str, str]) -> list[str]:
        return [
            ["encrypt", "--keys", p["pub"], "--plaintext", str(self.a), "--out", p["a"]],
            ["encrypt", "--keys", p["pub"], "--plaintext", str(self.b), "--out", p["b"]],
            ["add", "--keys", p["pub"], "--left", p["a"], "--right", p["b"],
             "--out", p["sum"]],
            ["smul", "--keys", p["pub"], "--in", p["sum"], "--scalar", "1.05",
             "--out", p["scaled"]],
            ["regen", "--keys", p["pub"], "--in", p["scaled"], "--out", p["fresh"]],
            ["decrypt", "--keys", p["priv"], "--in", p["fresh"], "--rational"],
            ["mul", "--keys", p["pub"], "--left", p["a"], "--right", p["b"],
             "--out", p["product"]],
        ][step]

    def op(self, i):
        step = i % self.STEPS
        if step == 0:
            self.a, self.b = self.inputs.randrange(100_000), self.inputs.randrange(100_000)
            self.expected = Fraction(21, 20) * (self.a + self.b)
        base = self.workdir / "ops"
        base.mkdir(exist_ok=True)
        paths = self._paths(base)
        argv = self._argv(step, paths)
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out:
            Path(out).unlink(missing_ok=True)
        proc = run_python(self.root, ["-m", "phekit", *argv], seed=self.seed)
        self.last = (out, proc)
        return self._outcome_ok(step, proc.returncode, proc.stdout, proc.stderr,
                                out, paths)

    def after_op(self, i):
        """In the traced run, replay op `i` in process to trace its layers;
        the replayed files must be byte-identical to the child's."""
        if not self.traced:
            return True
        out, proc = self.last
        traced_base = self.workdir / "traced"
        traced_base.mkdir(exist_ok=True)
        traced_argv = self._argv(i % self.STEPS, self._paths(traced_base))
        code, stdout, _ = self._in_process(traced_argv)
        # PHE_TEST_SEED makes the in-process run byte-identical to the child
        ok = (code, stdout) == (proc.returncode, proc.stdout)
        if code == 0 and out:
            ok &= Path(out).read_bytes() == Path(
                traced_argv[traced_argv.index("--out") + 1]).read_bytes()
        return ok

    def _outcome_ok(self, step, code, stdout, stderr, out, paths) -> bool:
        if step == 6:
            return (code == 3 and self.DENIED in stderr.splitlines()
                    and not Path(out).exists())
        if code != 0:
            return False
        if step == 5:
            return stdout.strip() == str(self.expected)
        if step == 4:
            fresh = json.loads(Path(out).read_text())["payload"]
            return fresh != json.loads(Path(paths["scaled"]).read_text())["payload"]
        return Path(out).is_file()

    def _in_process(self, argv: list[str]) -> tuple[int, str, str]:
        """Run phekit.cli.run(argv) here, as the traced run's per-layer probe."""
        stdout, stderr = io.StringIO(), io.StringIO()
        os.environ["PHE_TEST_SEED"] = str(self.seed)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
        finally:
            del os.environ["PHE_TEST_SEED"]
        return code, stdout.getvalue(), stderr.getvalue()

    def params(self):
        return {"algorithm": "paillier", "key_bits": 1024,
                "commands": ["encrypt", "encrypt", "add", "smul --scalar 1.05",
                             "regen", "decrypt --rational", "mul (denied)"],
                "plaintexts": "0..99999", "env": "PHE_TEST_SEED=<seed>"}

    def trace_extra(self):
        spawn = statistics.median(
            timed_python(self.root, ["-c", "pass"]) for _ in range(5))
        imported = statistics.median(
            timed_python(self.root, ["-c", "import phekit.cli"]) for _ in range(5))
        return {"cli.spawn_ms": spawn * 1e3, "cli.import_ms": (imported - spawn) * 1e3}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_python(root: Path, args: list[str], seed: int | None = None,
               check: bool = False) -> subprocess.CompletedProcess:
    """Run the checkout's phekit in a child interpreter and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.pop("PHE_TEST_SEED", None)
    # children import from cached bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if seed is not None:
        env["PHE_TEST_SEED"] = str(seed)
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    if check and proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def timed_python(root: Path, args: list[str]) -> float:
    start = time.perf_counter()
    run_python(root, args, check=True)
    return time.perf_counter() - start


WORKLOADS = {cls.name: cls for cls in (Tally, Roundtrip, Sweep, Cli)}
