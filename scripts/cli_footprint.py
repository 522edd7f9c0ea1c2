"""Print the peak RSS and CPU time of each command in README's workflow.

Each command runs as its own `python -m phekit` child of this process, in
the given directory (default: the current one), and is read back with
`os.wait4`. A child's `ru_maxrss` starts from its parent's resident memory
before the `exec`, so this script stays small and prints its own peak last:
the child figures are the children's own while that last one is below
them. It prints and gates nothing.

    python -S scripts/cli_footprint.py [directory]
"""

import os
import resource
import sys

# README's "Command line" block, in order, with the same files
STEPS = [
    "keygen --algorithm paillier --key-size 1024 --out keys.json --public-out keys.pub.json",
    "encrypt --keys keys.pub.json --plaintext 10000 --out a.json",
    "encrypt --keys keys.pub.json --plaintext 500 --out b.json",
    "add --keys keys.pub.json --left a.json --right b.json --out sum.json",
    "decrypt --keys keys.json --in sum.json",
    "smul --keys keys.pub.json --in a.json --scalar 1.05 --out scaled.json",
    "decrypt --keys keys.json --in scaled.json",
    "regen --keys keys.pub.json --in a.json --out fresh.json",
    "capabilities --algorithm paillier",
]


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if len(sys.argv) > 1:
        os.chdir(sys.argv[1])
    env = dict(os.environ, PYTHONPATH=src)
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    print(f"{'exit':>4} {'peak_rss_mb':>11} {'cpu_ms':>7}  command")
    for step in STEPS:
        argv = [sys.executable, "-m", "phekit", *step.split()]
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        cpu_ms = (usage.ru_utime + usage.ru_stime) * 1e3
        print(f"{os.waitstatus_to_exitcode(status):>4} {usage.ru_maxrss / 1024:>11.2f} "
              f"{cpu_ms:>7.1f}  phekit {step}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'':>4} {own:>11.2f} {'':>7}  (this process)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
