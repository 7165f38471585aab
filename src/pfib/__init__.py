"""Prime Fibonacci sequences: generation, extension, search, diagnostics.

The forward recurrence takes two odd primes and repeatedly appends the
smallest odd prime divisor of the last pairwise sum, stopping when that sum
is a power of two.  This package generates such sequences, extends them to
the left (congruence-based and minimal variants), reproduces the reversed
sequence OEIS A255562 with one bounded, checkpoint-resumable search (a step
starts a process pool only once it has run for 0.1 s), builds
length-k sequences from prime arithmetic progressions, and reports growth
diagnostics.
"""

from .arith import (
    CrtSystem,
    crt_solve,
    ensure_odd_prime,
    is_prime,
    odd_part,
    sieve_primes,
    smallest_odd_prime_divisor,
)
from .searchctl import (
    Checkpoint,
    CheckpointError,
    SearchResult,
    SearchTask,
    load_checkpoint,
    run_search,
    save_checkpoint,
)
from .seqcore import (
    ForwardStatus,
    GROWTH_ROOT,
    GrowthReport,
    PfibSequence,
    PrimeAp,
    ReversedSequence,
    ReversedStatus,
    Seed,
    TripleCheck,
    extend_left_crt,
    extend_left_minimal,
    find_prime_ap,
    generate_forward,
    generate_reversed,
    green_tao_sequence,
    growth_diagnostics,
    index_recurrence,
)

__version__ = "0.1.0"
