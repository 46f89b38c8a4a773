"""Seeded inputs of the three workloads.

Every input derives from the benchmark's ``--seed`` argument through
``numpy.random.default_rng([seed, stream])``, one stream per input, so the
same seed always gives byte-identical inputs and changing one input does not
shift the others.  The program only ever receives these generated inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.job import AlignmentJob
from repro.data.datasets import ECOLI_LIKE, load_dataset
from repro.workloads import WorkloadSpec, generate_workload

#: The bank profiles the serving workloads draw their pairs from.
SERVE_PROFILES = ("pacbio", "ont", "length_skew")
PAIR_MIN_LENGTH = 200
PAIR_MAX_LENGTH = 900
XDROP = 50

#: Scale of the ECOLI_LIKE preset: 35 reads of ~3 kb whose ~500 candidate
#: alignments run as one align_batch of ~1 000 extensions.  Smaller read
#: sets are cheaper but narrower: at scale 0.04 the candidates per second
#: spread three times as much across seeds as at 0.05.
BELLA_SCALE = 0.05
#: Candidate alignments re-checked against the scalar reference engine,
#: spread over the run's read sets.
BELLA_ORACLE_SAMPLE = 8

#: Closed-loop requests per second of ``--seconds`` (sized so the timed
#: phase takes about ``--seconds`` while giving at least 100 samples).
SOCKET_REQUESTS_PER_SECOND = 5
SOCKET_PAIRS_PER_REQUEST = 6
#: Requests after the first repeat 2, 1, 2, 1, ... earlier pairs (a quarter
#: of all pairs): one from the last few requests, still in the memory cache,
#: and every other request one older pair, mostly evicted by then and so
#: answered by the durable store.
SOCKET_RECENT_REQUESTS = 3
SOCKET_CACHE_CAPACITY = 64

#: Open-loop Poisson arrival rate (pairs/s): about 40 % busy at the seed
#: commit, so arrivals queue behind batches without the service self-clocking.
OPEN_RATE = 5.0

# Stream ids: one per generated input.
_BELLA, _WARMUP, _SOCKET, _SOCKET_REPEATS, _OPEN, _OPEN_SCHEDULE, _LADDER = range(7)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def signature(items) -> str:
    """Digest of exact inputs: jobs (sequences and seed) or reads."""
    digest = hashlib.sha1()
    for item in items:
        if isinstance(item, AlignmentJob):
            seed = item.seed
            digest.update(item.query.tobytes() + b"|" + item.target.tobytes())
            digest.update(f"|{seed.query_pos},{seed.target_pos},{seed.length}".encode())
        else:
            digest.update(item.sequence.tobytes())
        digest.update(b";")
    return digest.hexdigest()[:16]


def bella_reads(seed: int, index: int = 0):
    """Read set ``index`` of the seed: a seeded ECOLI_LIKE sample.

    ``rng=`` is passed explicitly: without it ``load_dataset`` seeds from
    ``hash(preset.name)``, which differs between interpreters.
    """
    rng = np.random.default_rng([int(seed), _BELLA, index])
    return load_dataset(ECOLI_LIKE, rng=rng, scale=BELLA_SCALE).reads


def serve_pairs(seed: int, stream: int, count: int) -> list:
    """``count`` distinct pairs from the serving profiles, in seeded order.

    The profiles take equal shares, and within each profile the template
    lengths are stratified over 200-900 bp (one jittered draw per stratum),
    so every seed offers the same mix of pair sizes; the seed decides the
    sequences, the errors and the order.
    """
    rng = _rng(seed, stream)
    cases = []
    for index, profile in enumerate(SERVE_PROFILES):
        n = len(range(index, count, len(SERVE_PROFILES)))
        strata = (np.arange(n) + rng.random(n)) / max(n, 1)
        span = PAIR_MAX_LENGTH - PAIR_MIN_LENGTH + 1
        cases += [(profile, PAIR_MIN_LENGTH + int(u * span)) for u in strata]
    pairs = []
    for i in rng.permutation(len(cases)):
        profile, length = cases[i]
        spec = WorkloadSpec(
            count=1,
            seed=int(rng.integers(2**31)),
            min_length=length,
            max_length=length,
            xdrop=XDROP,
        )
        pairs.append(generate_workload(profile, spec).jobs[0])
    return pairs


def warmup_pairs(seed: int, count: int) -> list:
    """Pairs for warm-up requests, disjoint from every timed input."""
    return serve_pairs(seed, _WARMUP, count)


def ladder_pairs(seed: int, count: int) -> list:
    """Pairs of the traced run's kernel-cost ladder."""
    return serve_pairs(seed, _LADDER, count)


def socket_requests(seed: int, seconds: float) -> list[list]:
    """The closed-loop request list: new pairs plus a quarter repeats.

    No request is all repeats, and no pair repeats inside one request.
    """
    n_requests = max(1, int(round(SOCKET_REQUESTS_PER_SECOND * seconds)))
    repeats = [1 + (k % 2) if k else 0 for k in range(n_requests)]
    fresh = serve_pairs(
        seed,
        _SOCKET,
        sum(SOCKET_PAIRS_PER_REQUEST - r for r in repeats),
    )
    rng = _rng(seed, _SOCKET_REPEATS)
    requests: list[list] = []
    sent: list[list] = []  # per request, the fresh pairs it introduced
    cursor = 0
    for k, n_repeat in enumerate(repeats):
        n_new = SOCKET_PAIRS_PER_REQUEST - n_repeat
        new = fresh[cursor : cursor + n_new]
        cursor += n_new
        recent = [p for r in sent[-SOCKET_RECENT_REQUESTS:] for p in r]
        older = [p for r in sent[:-SOCKET_RECENT_REQUESTS] for p in r] or recent
        chosen: list = []
        for source in (recent, older)[:n_repeat]:
            options = [p for p in source if all(p is not c for c in chosen)]
            chosen.append(options[int(rng.integers(len(options)))])
        request = new + chosen
        order = rng.permutation(len(request))
        requests.append([request[i] for i in order])
        sent.append(new)
    return requests


@dataclass
class OpenSchedule:
    """Seeded Poisson arrivals: ``due[i]`` seconds after start, ``pairs[i]``."""

    due: list[float]
    pairs: list


def open_schedule(seed: int, seconds: float) -> OpenSchedule:
    """``OPEN_RATE * seconds`` Poisson arrivals over exactly ``seconds``.

    A Poisson process conditioned on its count places the arrivals as
    sorted uniform times, so every seed offers the same rate over the same
    span while the bursts differ.
    """
    count = max(1, int(round(OPEN_RATE * seconds)))
    due = np.sort(_rng(seed, _OPEN_SCHEDULE).uniform(0.0, seconds, size=count))
    return OpenSchedule(
        due=[float(t) for t in due],
        pairs=serve_pairs(seed, _OPEN, count),
    )
