"""Command-line front end.

Values go to standard output, diagnostics to standard error. Exit codes:
0 success, 2 usage error, 3 capability violation, 4 cryptographic or
parse error. Only `decrypt` ever needs the private half of a key file;
everything else runs fine on a public-only file.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from .algebra import PHE, excerpt, parse_ciphertext, serialize_ciphertext
from .capabilities import ALGORITHMS, OPERATIONS, capabilities
from .errors import CapabilityError, PheError
from .frozen import from_decimal, to_decimal
from .numtheory import RandomSource
from .schemes import KeyPair, generate_keys
from .serialization import MAX_DIGITS, parse_key, serialize_key

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_CRYPTO = 4

# a decimal seed here makes every random draw reproducible: for tests only
TEST_SEED_ENV = "PHE_TEST_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phekit",
        description="Partially homomorphic encryption: keys, encrypted "
        "arithmetic, benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--key-size", type=partial(_integer, name="--key-size"),
                   help="modulus bits, or curve bits for ec-elgamal")
    p.add_argument("--curve", help="named curve (ec-elgamal only)")
    p.add_argument("--s", type=partial(_integer, name="--s"), help="damgard-jurik exponent s")
    p.add_argument("--dlp-bound", type=partial(_integer, name="--dlp-bound"),
                   help="plaintext bound for discrete-log decryption")
    p.add_argument("--out", required=True, help="key file to write (full key pair)")
    p.add_argument("--public-out", help="also write a public-only key file")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt an integer")
    p.add_argument("--keys", required=True, help="key file (public part suffices)")
    p.add_argument("--plaintext", required=True, type=partial(_integer, name="--plaintext"))
    p.add_argument("--out", required=True, help="ciphertext file to write")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--keys", required=True, help="key file with the private part")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rational", action="store_true",
                   help="print p/q instead of requiring an exact integer")
    p.set_defaults(func=_cmd_decrypt)

    for name, flag_help in (
        ("add", "homomorphic addition"),
        ("mul", "homomorphic multiplication"),
        ("xor", "homomorphic exclusive or"),
    ):
        p = sub.add_parser(name, help=flag_help)
        p.add_argument("--keys", required=True)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_binary)

    p = sub.add_parser("smul", help="multiply a ciphertext by a cleartext scalar")
    p.add_argument("--keys", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--scalar", required=True, help="decimal, possibly fractional (e.g. 1.05)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_smul)

    p = sub.add_parser("regen", help="re-randomize a ciphertext")
    p.add_argument("--keys", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_regen)

    p = sub.add_parser("capabilities", help="show an algorithm's capability row")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.set_defaults(func=_cmd_capabilities)

    p = sub.add_parser("bench", help="run the timing harness")
    p.add_argument("--levels", default="80", type=_levels,
                   help="comma-separated security levels (80,112,128,192)")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS),
                   help="comma-separated algorithm subset")
    p.add_argument("--repetitions", type=partial(_integer, name="--repetitions"), default=5)
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--svg-dir", help="also write one radar chart per operation")
    p.add_argument("--toy", action="store_true",
                   help="run benaloh and naccache-stern at a small modulus "
                        "instead of skipping them")
    p.set_defaults(func=_cmd_bench)
    return parser


def _integer(text: str, name: str) -> int:
    """An integer the command line takes as text: surrounding whitespace, one
    optional sign and at most MAX_DIGITS ASCII digits, read the same whatever
    the interpreter's int/str digit limit. Anything else, an underscore or a
    non-ASCII digit included, is a usage error naming `name`, with a bounded
    excerpt of the text. As an option's `type=`, it raises through argparse
    to `run` (see UsageError)."""
    stripped = text.strip()
    digits = stripped[1:] if stripped[:1] in ("+", "-") else stripped
    if not (digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS):
        raise UsageError(f"{name} must be a decimal integer, got {excerpt(repr(text), 34)}")
    return -from_decimal(digits) if stripped[:1] == "-" else from_decimal(digits)


def _levels(text: str) -> tuple[int, ...]:
    return tuple(_integer(part, "--levels") for part in text.split(",") if part)


def _rng_from_env() -> RandomSource:
    raw = os.environ.get(TEST_SEED_ENV)
    if raw is None:
        return RandomSource()
    seed = _integer(raw, TEST_SEED_ENV)
    print(
        f"warning: {TEST_SEED_ENV} is set; keys are deterministic and "
        "unfit for real use",
        file=sys.stderr,
    )
    return RandomSource(seed)


def _load_keys(path: str) -> KeyPair:
    return parse_key(Path(path).read_text())


def _load_cipher(path: str):
    return parse_ciphertext(Path(path).read_text())


def _write(path: str, text: str, private: bool = False) -> None:
    target = Path(path)
    if private:  # owner-only before a byte is written, whether or not it existed
        target.touch(0o600)
        target.chmod(0o600)
    target.write_text(text)


def _cmd_keygen(args: argparse.Namespace) -> int:
    params = {}
    if args.curve is not None:
        params["curve"] = args.curve
    if args.s is not None:
        params["s"] = args.s
    if args.dlp_bound is not None:
        params["dlp_bound"] = args.dlp_bound
    if args.key_size is None and args.curve is None:
        raise UsageError("--key-size is required (unless --curve picks the size)")
    # with --curve and no --key-size, 0 lets the curve pick the size
    keys = generate_keys(args.algorithm, args.key_size or 0, params or None, _rng_from_env())
    _write(args.out, serialize_key(keys), private=True)
    if args.public_out:
        _write(args.public_out, serialize_key(keys, include_private=False))
    print(f"wrote {args.algorithm} key pair to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_encrypt(args: argparse.Namespace) -> int:
    phe = PHE(keys=_load_keys(args.keys), rng=_rng_from_env())
    _write(args.out, serialize_ciphertext(phe.encrypt(args.plaintext)))
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    phe = PHE(keys=_load_keys(args.keys))
    value = phe.decrypt(_load_cipher(args.infile), rational=args.rational)
    # an int or a Fraction, written as str writes it: "p/q", or "p" when q is 1
    denominator = "" if value.denominator == 1 else f"/{to_decimal(value.denominator)}"
    print(to_decimal(value.numerator) + denominator)
    return EXIT_OK


def _cmd_binary(args: argparse.Namespace) -> int:
    phe = PHE(keys=_load_keys(args.keys))
    combine = getattr(phe, args.subcommand)
    result = combine(_load_cipher(args.left), _load_cipher(args.right))
    _write(args.out, serialize_ciphertext(result))
    return EXIT_OK


def _cmd_smul(args: argparse.Namespace) -> int:
    phe = PHE(keys=_load_keys(args.keys))
    result = phe.scalar(args.scalar, _load_cipher(args.infile))
    _write(args.out, serialize_ciphertext(result))
    return EXIT_OK


def _cmd_regen(args: argparse.Namespace) -> int:
    keys = _load_keys(args.keys)
    c = _load_cipher(args.infile)
    # the seed warning comes only once both files have parsed
    phe = PHE(keys=keys, rng=_rng_from_env())
    _write(args.out, serialize_ciphertext(phe.regenerate(c)))
    return EXIT_OK


def _cmd_capabilities(args: argparse.Namespace) -> int:
    cap = capabilities(args.algorithm)
    flags = " ".join(
        f"{op}={'yes' if getattr(cap, flag) else 'no'}"
        for op, (flag, _) in OPERATIONS.items()
    )
    print(f"{args.algorithm}: {flags}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod  # only this command needs it

    algorithms = tuple(part for part in args.algorithms.split(",") if part)
    plan = bench_mod.BenchPlan(
        levels=args.levels,
        algorithms=algorithms,
        repetitions=args.repetitions,
        toy=args.toy,
    )
    print(
        f"benchmarking {len(algorithms)} algorithm(s) at level(s) "
        f"{','.join(map(str, sorted(args.levels)))}, {to_decimal(args.repetitions)} repetitions",
        file=sys.stderr,
    )
    records = bench_mod.run_bench(plan, _rng_from_env())
    _write(args.out, bench_mod.emit_csv(records))
    print(f"wrote {args.out}", file=sys.stderr)
    if args.svg_dir:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        for operation in ("keygen", "encrypt", "decrypt", "homop"):
            svg = bench_mod.emit_radar_svg(records, operation)
            (svg_dir / f"radar_{operation}.svg").write_text(svg)
        print(f"wrote radar charts to {svg_dir}", file=sys.stderr)
    return EXIT_OK


class UsageError(Exception):
    """A usage error, exit 2. It is no ValueError, so that argparse passes one
    raised by a `type=` reader on to `run` instead of reporting its own
    "invalid value" with the whole text."""


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        raise AssertionError("unreachable")
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (PheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CRYPTO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
