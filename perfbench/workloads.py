"""The four workloads: which CLI commands run, on which inputs, in what order.

Each workload is a closed loop with one client: a pass runs its commands
one after another, each in a fresh process, and the next command starts
when the previous one has exited.
"""

from inputs import (
    SplitMix64, atomic_algebra, binomial, fixture, number_field,
    random_eisenstein, random_roots, reference_binomial_constant,
    split_algebra,
)

# Median seconds of one untraced pass at the seed commit, scaled to the
# reference host's speed (see HostSpeed in run.py).  A run makes
# round(--seconds / PASS_SECONDS) passes, so it measures about --seconds.
# The count is fixed rather than timed so that how many commands a run
# attempts, and how many of them fail, depends on the seed and not on how
# fast the host was.
PASS_SECONDS = {
    "full-complex": 9.0,
    "restricted": 24.0,
    "chain-audit": 11.0,
    "many-small": 8.7,
}


class Command:
    """One CLI invocation and the facts its output check needs."""

    def __init__(self, op: str, alg, *options: str):
        self.op = op
        self.alg = alg
        self.options = options

    @property
    def argv(self) -> list:
        return [self.op, self.alg.path, *self.options]

    @property
    def label(self) -> str:
        """Identifies the command and its input contents, not its file path."""
        return " ".join([self.op, self.alg.label, *self.options])

    def option(self, flag: str, default=None):
        opts = list(self.options)
        return opts[opts.index(flag) + 1] if flag in opts else default


def full_complex(seed: int, workdir: str) -> list:
    rng = SplitMix64(seed)
    quartic = number_field("quartic", workdir,
                           binomial(4, reference_binomial_constant(rng, seed)))
    quintic = number_field("quintic", workdir,
                           binomial(5, reference_binomial_constant(rng, seed)))
    cubic2 = fixture("cubic2")
    return [
        Command("cohomology", quartic, "--degree", "0"),
        Command("cohomology", quartic, "--degree", "1"),
        Command("cohomology", quartic, "--degree", "2"),
        Command("cohomology", cubic2, "--degree", "3"),
        Command("verify-complex", quartic, "--max-degree", "3"),
        Command("verify-complex", quintic, "--max-degree", "2"),
    ]


def restricted(seed: int, workdir: str) -> list:
    # atomic algebras have no parameters, so the seed changes nothing here
    atomic4 = fixture("atomic4")
    return [
        Command("verify-complex", atomic4, "--complex", "band", "--max-degree", "3"),
        Command("cohomology", atomic4, "--degree", "3", "--complex", "band"),
    ]


def chain_audit(seed: int, workdir: str) -> list:
    # fixed inputs, so that every verdict can be pinned
    quartic = number_field("quartic", workdir, binomial(4, -2))
    qsqrt2 = fixture("qsqrt2")
    return [
        Command("audit", quartic, "--map", "K"),
        Command("audit", quartic, "--map", "J"),
        Command("audit", quartic, "--map", "Jeven", "--n", "1"),
        Command("audit", qsqrt2, "--map", "Jodd", "--n", "2"),
    ]


def many_small(seed: int, workdir: str) -> list:
    rng = SplitMix64(seed)
    algebras = [fixture(key) for key in
                ("q", "qsqrt2", "cubic2", "atomic2", "atomic3", "atomic4")]
    algebras += [number_field(f"eis{d}", workdir, random_eisenstein(rng, d))
                 for d in (2, 3, 4)]
    algebras += [split_algebra(f"split{k}", workdir, random_roots(rng, k))
                 for k in (2, 3)]
    algebras.append(atomic_algebra(5, workdir))
    commands = []
    for alg in algebras:
        commands += [
            Command("validate", alg),
            Command("classify", alg),
            Command("cohomology", alg, "--degree", "0"),
            Command("cohomology", alg, "--degree", "1"),
        ]
    return rng.shuffle(commands)


WORKLOADS = {
    "full-complex": full_complex,
    "restricted": restricted,
    "chain-audit": chain_audit,
    "many-small": many_small,
}
