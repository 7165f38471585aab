"""Result checks against data that is not pfib's own.

The references are the bundled OEIS b-file for A255562, the terms a16..a19
listed in ROADMAP.md, and sympy, which shares no code with pfib.  Every
reversed-sequence term is proved minimal with sympy, and every exhaustion
is proved empty, by the multiplier argument or by a direct prime scan,
whichever is shorter.  `check` returns the operations attempted and one
message per failed operation.
"""

from __future__ import annotations

import json
import math

import sympy

A255562_BEYOND_BFILE = (330515394367, 967, 10576492618777, 116041)  # a16..a19
FORWARD_PAIRS = 27889  # ordered pairs of odd primes below 1000
FORWARD_TOTAL_TERMS = 173641
OPS_PER_ITERATION = {
    "forward_sweep": FORWARD_PAIRS,
    "constructions": 11,
    "reversed_serial": 2,
    "reversed_cli": 3,
}
_SMALL_LIMIT = 1 << 13
_SCAN_CEILING = 10**7  # the most candidates or multipliers one proof may walk


def read_bfile(path: str) -> list[int]:
    values = []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                values.append(int(fields[1]))
    return values


def _odd_part(n: int) -> int:
    return n >> ((n & -n).bit_length() - 1)


def _is_power_of_two(n) -> bool:
    return isinstance(n, int) and n > 0 and n & (n - 1) == 0


class Oracle:
    def __init__(self, bfile_path: str):
        self.a255562 = read_bfile(bfile_path) + list(A255562_BEYOND_BFILE)
        self._least_factor = [0] * (_SMALL_LIMIT + 1)
        for p in sympy.primerange(3, _SMALL_LIMIT + 1):
            for m in range(p, _SMALL_LIMIT + 1, p):
                if not self._least_factor[m]:
                    self._least_factor[m] = p
        self._first_valid: dict[tuple[int, int, int], int | None] = {}
        self._crt_verdicts: dict[tuple, bool] = {}

    def spod(self, n: int) -> int | None:
        """Smallest odd prime divisor, or None for a power of two."""
        u = _odd_part(n)
        if u == 1:
            return None
        if u <= _SMALL_LIMIT:
            return self._least_factor[u]
        return min(sympy.factorint(u))

    # -- reversed steps -------------------------------------------------

    def first_valid(self, c: int, p: int, limit: int) -> int | None:
        """Least odd prime r <= limit with spod(p + r) == c, or None."""
        key = (c, p, limit)
        if key not in self._first_valid:
            self._first_valid[key] = self._search(c, p, limit)
        return self._first_valid[key]

    def _search(self, c: int, p: int, limit: int) -> int | None:
        # r = c*m - p with m even; spod(c*m) == c iff no odd prime below c
        # divides m, because c is prime.
        m_lo = (p + 3 + c - 1) // c
        m_lo += m_lo % 2
        m_hi = (limit + p) // c
        multipliers = max(0, (m_hi - m_lo) // 2 + 1)
        if multipliers * 10 < limit:
            if multipliers > _SCAN_CEILING:
                raise ValueError(f"step ({c}, {p}) needs {multipliers} multipliers")
            for m in range(m_lo, m_hi + 1, 2):
                u = _odd_part(m)
                if u != 1 and (u < c or min(sympy.factorint(u)) < c):
                    continue
                if sympy.isprime(c * m - p):
                    return c * m - p
            return None
        if limit > _SCAN_CEILING:
            raise ValueError(f"step ({c}, {p}) needs a prime scan to {limit}")
        for r in sympy.primerange(3, limit + 1):
            if (p + r) % c == 0 and self.spod(p + r) == c:
                return r
        return None

    def _reversed_terms(self, terms, status, at_index, exhausted_bound, num_terms,
                        bound) -> list[str]:
        try:
            return self._reversed_problems(terms, status, at_index, exhausted_bound,
                                           num_terms, bound)
        except ValueError as exc:  # a proof too long to run is a failed check
            return [str(exc)]

    def _reversed_problems(self, terms, status, at_index, exhausted_bound, num_terms,
                           bound) -> list[str]:
        problems = []
        if terms != self.a255562[: len(terms)]:
            problems.append(f"terms {terms} differ from A255562")
        for i in range(2, len(terms)):
            if self.first_valid(terms[i - 2], terms[i - 1], terms[i]) != terms[i]:
                problems.append(f"term {i + 1} = {terms[i]} is not the least extension")
        if status == "complete":
            if len(terms) != num_terms:
                problems.append(f"complete with {len(terms)} of {num_terms} terms")
        elif status == "bound_exhausted":
            if at_index != len(terms) or exhausted_bound != bound:
                problems.append(f"exhaustion reported at {at_index}, {exhausted_bound}")
            elif self.first_valid(terms[-2], terms[-1], bound) is not None:
                problems.append(f"term {len(terms) + 1} exists below {bound}")
        else:
            problems.append(f"unexpected status {status!r}")
        return problems

    # -- per workload ---------------------------------------------------

    def check(self, workload: str, outputs: list) -> tuple[int, list[str], dict]:
        return getattr(self, f"_check_{workload}")(outputs)

    def _check_forward_sweep(self, outputs):
        failures = []
        primes = list(sympy.primerange(3, 1000))
        expected = {(a, b) for a in primes for b in primes}
        seen = set()
        total = 0
        for entry in outputs:
            if isinstance(entry, dict):
                failures.append(f"generate_forward{tuple(entry['pair'])}: {entry['error']}")
                continue
            a, b, terms, status, final_sum = entry
            seen.add((a, b))
            total += len(terms)
            if self._forward_problem(a, b, terms, status, final_sum, 1000):
                failures.append(f"generate_forward({a}, {b}) gave {terms} {status}")
        if seen != expected or len(outputs) != len(expected):
            failures.append("the sweep did not cover every ordered pair exactly once")
        if total != FORWARD_TOTAL_TERMS:
            failures.append(f"{total} terms in total, expected {FORWARD_TOTAL_TERMS}")
        return len(outputs), failures, {}

    def _forward_problem(self, a, b, terms, status, final_sum, max_terms) -> bool:
        if terms[:2] != [a, b] or len(terms) > max_terms:
            return True
        for i in range(2, len(terms)):
            if terms[i] != self.spod(terms[i - 2] + terms[i - 1]):
                return True
        if terms[-1] == terms[-2]:
            return status != "constant" or len(terms) != 2
        last_sum = terms[-2] + terms[-1]
        return not (status == "terminated" and final_sum == last_sum
                    and _is_power_of_two(final_sum))

    def _check_constructions(self, outputs):
        failures = []
        aps = {}
        for out in outputs:
            op = out["op"]
            if "error" in out:
                failures.append(f"{op}: {out['error']}")
            elif op == "extend_left_crt":
                if not self._crt_ok(out):
                    failures.append(f"extend_left_crt({out['p1']}, {out['p2']}) is wrong")
            elif op == "find_prime_ap":
                aps[out["length"]] = (out["first"], out["difference"])
                if not self._ap_ok(out):
                    failures.append(f"find_prime_ap({out['length']}) is wrong")
            elif not self._green_tao_ok(out, aps.get((1 << (out["k"] - 2)) + 1)):
                failures.append(f"green_tao_sequence(k={out['k']}) is wrong")
        return len(outputs), failures, {}

    def _crt_ok(self, out) -> bool:
        key = (out["p1"], out["p2"], out["p0"], out["solution"], out["modulus"])
        if key not in self._crt_verdicts:
            self._crt_verdicts[key] = self._crt_verdict(*key)
        return self._crt_verdicts[key]

    @staticmethod
    def _crt_verdict(p1, p2, p0, solution, modulus) -> bool:
        total = p0 + p1
        if not (
            modulus == math.prod(sympy.primerange(3, p2 + 1))
            and 0 <= solution < modulus
            and p0 % modulus == solution
            and sympy.isprime(p0)
            and total % p2 == 0
            and all(total % q for q in sympy.primerange(3, p2))
        ):
            return False
        # p0 must be the first odd prime of solution + j*modulus
        for value in range(solution, p0, modulus):
            if value >= 3 and value % 2 and sympy.isprime(value):
                return False
        return True

    def _ap_ok(self, out) -> bool:
        length, limit = out["length"], out["search_limit"]
        first, difference = out["first"], out["difference"]
        if out["ap_length"] != length or first > limit or difference > limit:
            return False
        primes = set(sympy.primerange(2, limit * length + 1))

        def is_ap(f, d):
            return all(f + j * d in primes for j in range(length))

        if not is_ap(first, difference):
            return False
        # pfib promises the least (first, difference) in that order
        for f in sympy.primerange(2, first + 1):
            for d in range(1, (difference if f == first else limit + 1)):
                if is_ap(f, d):
                    return False
        return True

    def _green_tao_ok(self, out, ap) -> bool:
        k, terms = out["k"], out["terms"]
        if ap is None or len(terms) < k:
            return False
        first, difference = ap
        indices = [0, 1 << (k - 2)]
        while len(indices) < k:
            indices.append((indices[-2] + indices[-1]) // 2)
        if terms[:k] != [first + b * difference for b in indices]:
            return False
        return not self._forward_problem(
            terms[0], terms[1], terms, out["status"], out["final_sum"], len(terms)
        )

    def _check_reversed_serial(self, outputs):
        failures = []
        for out in outputs:
            label = f"generate_reversed({out['num_terms']}, {out['bound']})"
            if "error" in out:
                failures.append(f"{label}: {out['error']}")
                continue
            problems = self._reversed_terms(
                out["terms"], out["status"], out["at_index"], out["exhausted_bound"],
                out["num_terms"], out["bound"],
            )
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
        return len(outputs), failures, {}

    def _check_reversed_cli(self, outputs):
        failures = []
        workers = set()
        for out in outputs:
            label = f"cli reversed --bound {out['bound']} ({out['run']})"
            if isinstance(out["exit"], dict):
                failures.append(f"{label}: {out['exit']['error']}")
                continue
            problems = []
            try:
                records = [json.loads(line) for line in out["stdout"].splitlines()]
                events = [int(r["value"]) for r in records if r.get("event") == "term"]
                final = records[-1]
                result = final["result"]
                workers.add(int(final["inputs"]["workers"]))
                terms = [int(t) for t in result["terms"]]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                failures.append(f"{label}: unreadable records ({exc!r})")
                continue
            if events != terms:
                problems.append("streamed terms differ from the summary")
            exhausted = result["status"] == "bound_exhausted"
            at_index = result.get("at_term", 0) - 1 if exhausted else None
            bound = int(result["bound"]) if exhausted else None
            problems += self._reversed_terms(
                terms, result["status"], at_index, bound, 16, out["bound"]
            )
            if out["exit"] != (3 if exhausted else 0):
                problems.append(f"exit code {out['exit']}")
            if out["checkpoint_left"]:
                problems.append("the step checkpoint was not removed")
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
        return len(outputs), failures, {"cli_workers": sorted(workers)}
