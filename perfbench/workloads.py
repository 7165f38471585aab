"""The four benchmark workloads: inputs from the seed, then the timed calls.

Each workload takes the imported package, a `random.Random` seeded from
--seed, a clock that times the calls, and a scratch directory inside the
checkout.  It returns (outputs, extra): JSON-ready outputs that run.py checks
outside the timed region, and per-iteration facts such as step times.  Calls
look functions up on their module when they are made, so the tracer's
wrappers apply.  Why each workload exists is written in DESIGN.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

FORWARD_PRIME_LIMIT = 1000
FORWARD_MAX_TERMS = 1000
# extend_left_crt pairs: p1 fixed, p2 the largest prime of each band of
# width 200.  The seed only orders the calls: seeded p1 or p2 would change
# the cost by the geometric count of composite candidates the progression
# scan tests before its prime, which swamps run-to-run noise.
CRT_P1 = 3
CRT_BAND_TOPS = (200, 400, 600, 800, 1000)
AP_KS = (3, 4, 5)
AP_SEARCH_LIMIT = 1000
# The paper's fixed instance: 19 terms at a bound that reaches a16..a19,
# then the 2*10^9 exhaustion of term 16.
SERIAL_RUNS = ((19, 2 * 10**13), (16, 2 * 10**9))
CLI_RUNS = (("fresh", 10**12), ("exhaust", 2 * 10**9), ("resume", 10**12))
# Step 16 searches for the term left of (406507, 67); the resume run picks
# up a checkpoint suspended after this many of its 38 shards at 10^12.
STEP16_CONSTRAINT, STEP16_PARTNER = 406507, 67
RESUME_SHARDS = 6
RESUME_FILE = "resume-step16.json"


def odd_primes_below(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(3, limit) if flags[p]]


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes an error record that the checks count."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # one failed operation must not stop the rest
        return {"error": f"{type(exc).__name__}: {exc}"}


def _failed(value) -> bool:
    return isinstance(value, dict) and "error" in value


def forward_sweep(pfib, rng, clock, work_dir):
    primes = odd_primes_below(FORWARD_PRIME_LIMIT)
    pairs = [(a, b) for a in primes for b in primes]
    rng.shuffle(pairs)
    seed_cls, seqcore = pfib.Seed, pfib.seqcore

    def one(a, b):
        return seqcore.generate_forward(seed_cls(a, b), FORWARD_MAX_TERMS)

    with clock:
        results = [attempt(one, a, b) for a, b in pairs]
    outputs = []
    for (a, b), seq in zip(pairs, results):
        if _failed(seq):
            outputs.append({"op": "generate_forward", "pair": [a, b], **seq})
        else:
            outputs.append([a, b, list(seq.terms), seq.status.value, seq.final_sum])
    return outputs, {}


def constructions(pfib, rng, clock, work_dir):
    tops = [max(odd_primes_below(top)) for top in CRT_BAND_TOPS]
    units = [("crt", p2) for p2 in tops] + [("ap", k) for k in AP_KS]
    rng.shuffle(units)
    seqcore = pfib.seqcore
    outputs = []
    for kind, arg in units:
        if kind == "crt":
            with clock:
                result = attempt(seqcore.extend_left_crt, CRT_P1, arg)
            out = {"op": "extend_left_crt", "p1": CRT_P1, "p2": arg}
            if _failed(result):
                out.update(result)
            else:
                p0, system = result
                out.update(p0=p0, solution=system.solution,
                           modulus=system.combined_modulus)
            outputs.append(out)
            continue
        length = (1 << (arg - 2)) + 1
        with clock:
            ap = attempt(seqcore.find_prime_ap, length, AP_SEARCH_LIMIT)
            built = isinstance(ap, pfib.PrimeAp)
            seq = attempt(seqcore.green_tao_sequence, arg, ap) if built else None
        out = {"op": "find_prime_ap", "length": length, "search_limit": AP_SEARCH_LIMIT}
        if built:
            out.update(first=ap.first, difference=ap.difference, ap_length=ap.length)
        else:
            out.update(ap or {"error": "no progression found"})
        outputs.append(out)
        out = {"op": "green_tao_sequence", "k": arg}
        if not built:
            out["error"] = "no progression to build from"
        elif _failed(seq):
            out.update(seq)
        else:
            out.update(terms=list(seq.terms), status=seq.status.value,
                       final_sum=seq.final_sum)
        outputs.append(out)
    return outputs, {}


def _reversed_record(num_terms, bound, seq):
    out = {"op": "generate_reversed", "num_terms": num_terms, "bound": bound}
    if _failed(seq):
        out.update(seq)
    else:
        out.update(terms=list(seq.terms), status=seq.status.value,
                   at_index=seq.at_index, exhausted_bound=seq.bound)
    return out


def reversed_serial(pfib, rng, clock, work_dir):
    seqcore, seed = pfib.seqcore, pfib.Seed(3, 5)
    known_at: dict[int, float] = {}

    def on_term(index, value):
        known_at[index] = time.perf_counter()

    outputs = []
    with clock:
        for i, (num_terms, bound) in enumerate(SERIAL_RUNS):
            hook = on_term if i == 0 else None
            seq = attempt(seqcore.generate_reversed, seed, num_terms, bound,
                          workers=1, on_term=hook)
            outputs.append((num_terms, bound, seq))
    # step time of term N (1-based) is the gap between terms N-1 and N
    step_s = {f"t{i + 1}": known_at[i] - known_at[i - 1]
              for i in sorted(known_at) if i >= 2 and i - 1 in known_at}
    return [_reversed_record(*out) for out in outputs], {"step_s": step_s}


def reversed_cli(pfib, rng, clock, work_dir):
    checkpoint = os.path.join(work_dir, "reversed.ckpt")
    with open(os.path.join(work_dir, RESUME_FILE), "rb") as handle:
        resume_bytes = handle.read()
    outputs = []
    for run, bound in CLI_RUNS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(checkpoint)
        if run == "resume":
            with open(checkpoint, "wb") as handle:
                handle.write(resume_bytes)
        argv = ["reversed", "3", "5", "--terms", "16", "--bound", str(bound),
                "--checkpoint", checkpoint, "--format", "records"]
        captured = io.StringIO()
        with clock, contextlib.redirect_stdout(captured):
            code = attempt(pfib.cli.main, argv)
        outputs.append({"op": "cli.main", "run": run, "bound": bound, "exit": code,
                        "stdout": captured.getvalue(),
                        "checkpoint_left": os.path.exists(checkpoint)})
    return outputs, {}


def prepare_reversed_cli(pfib, work_dir) -> None:
    """Leave a step-16 checkpoint suspended after RESUME_SHARDS shards."""
    path = os.path.join(work_dir, RESUME_FILE)
    task = pfib.SearchTask(STEP16_CONSTRAINT, STEP16_PARTNER, CLI_RUNS[-1][1])
    result = pfib.run_search(task, workers=1, checkpoint_path=path,
                             max_shards=RESUME_SHARDS)
    if result.completed:
        raise RuntimeError("step-16 search finished before the suspension point")


WORKLOADS = {
    "forward_sweep": forward_sweep,
    "constructions": constructions,
    "reversed_serial": reversed_serial,
    "reversed_cli": reversed_cli,
}
PREPARE = {"reversed_cli": prepare_reversed_cli}
