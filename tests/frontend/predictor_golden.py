"""Golden digests of the direction and indirect-target predictors.

Each digest is the SHA-256 of a predictor's full prediction sequence
over one seeded update stream, followed by its ``state(0)`` (tagged
entries, base tables, history and, for :class:`TageLite`, the
allocator's RNG state).  A rewrite of ``update`` must reproduce every
prediction, every allocation choice and every RNG draw.

The streams mix the behaviours each update path needs:

* strongly biased sites (the bimodal path and long-lived providers);
* fixed-trip loops and history-correlated sites (tagged providers,
  allocation on mispredict);
* coin-flip sites (weak, freshly allocated providers, so the
  use-alt-on-weak rule decides; repeated mispredicts with every
  candidate useful, so usefulness decays);
* indirect sites with one, a few and many targets, some chosen by path
  history, and sites cycling through their targets in runs (ITTAGE
  confidence gain up to saturation, loss, target replacement and
  allocation).

Run ``python -m tests.frontend.predictor_golden`` to print the table.
"""

from __future__ import annotations

import hashlib
import random

from repro.frontend.predictor import ITTageLite, TageLite

#: Updates per stream.
STREAM_LENGTH = 24_000


def _direction_stream(seed: int, sites: int,
                      length: int = STREAM_LENGTH) -> list[tuple[int, bool]]:
    rng = random.Random(seed)
    pcs = [0x400000 + (rng.getrandbits(18) << 2) for _ in range(sites)]
    trips = [3 + rng.getrandbits(4) for _ in range(sites)]
    counts = [0] * sites
    last = False
    stream = []
    for _ in range(length):
        site = rng.getrandbits(16) % sites
        style = site % 4
        if style == 0:  # biased
            taken = rng.random() < (0.95 if site % 8 == 0 else 0.1)
        elif style == 1:  # fixed-trip loop back-edge
            counts[site] += 1
            taken = counts[site] % trips[site] != 0
        elif style == 2:  # correlated with the previous outcome
            taken = not last if site % 8 == 2 else last
        else:  # coin flip
            taken = rng.random() < 0.5
        stream.append((pcs[site], taken))
        last = taken
    return stream


def _indirect_stream(seed: int, sites: int,
                     length: int = STREAM_LENGTH) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pcs = [0x500000 + (rng.getrandbits(18) << 2) for _ in range(sites)]
    targets = [[0x600000 + (rng.getrandbits(16) << 4)
                for _ in range(1 + (site % 5) * 3)]
               for site in range(sites)]
    previous = 0
    stream = []
    for _ in range(length):
        site = rng.getrandbits(16) % sites
        options = targets[site]
        if site % 3 == 0:  # chosen by the previous target (path history)
            target = options[previous % len(options)]
        elif site % 3 == 1:  # mostly the first target
            target = (options[0] if rng.random() < 0.8
                      else options[rng.getrandbits(8) % len(options)])
        else:  # uniform among the targets
            target = options[rng.getrandbits(8) % len(options)]
        stream.append((pcs[site], target))
        previous = target >> 4
    return stream


def _rotating_stream(seed: int, sites: int,
                     length: int = STREAM_LENGTH) -> list[tuple[int, int]]:
    """Runs of visits to one site, each cycling through its own 2-4
    targets: the last-target base is always wrong there, so
    history-indexed entries climb to full confidence."""
    rng = random.Random(seed)
    pcs = [0x500000 + (rng.getrandbits(18) << 2) for _ in range(sites)]
    targets = [[0x600000 + (rng.getrandbits(16) << 4)
                for _ in range(2 + site % 3)]
               for site in range(sites)]
    visits = [0] * sites
    stream = []
    while len(stream) < length:
        site = rng.getrandbits(16) % sites
        for _ in range(4 + rng.getrandbits(3)):
            options = targets[site]
            stream.append((pcs[site], options[visits[site] % len(options)]))
            visits[site] += 1
    return stream[:length]


def _digest(predictions: list, state: tuple) -> str:
    hasher = hashlib.sha256()
    hasher.update(repr(predictions).encode())
    hasher.update(repr(state).encode())
    return hasher.hexdigest()


def tage_digest(label: str) -> str:
    """Digest of one :class:`TageLite` configuration in :data:`TAGE_CASES`."""
    kwargs, seed, sites = TAGE_CASES[label]
    tage = TageLite(**kwargs)
    predictions = [tage.update(pc, taken)
                   for pc, taken in _direction_stream(seed, sites)]
    return _digest(predictions, tage.state(0))


def ittage_digest(label: str) -> str:
    """Digest of one :class:`ITTageLite` configuration in
    :data:`ITTAGE_CASES`."""
    kwargs, seed, sites, stream = ITTAGE_CASES[label]
    ittage = ITTageLite(**kwargs)
    predictions = [ittage.update(pc, target)
                   for pc, target in stream(seed, sites)]
    return _digest(predictions, ittage.state(0))


#: label -> (constructor kwargs, stream seed, distinct sites).
TAGE_CASES = {
    "default": ({}, 1, 150),
    "default-seed7": ({"seed": 7}, 2, 40),
    "history-1-2": ({"history_lengths": (1, 2)}, 3, 3000),
    "history-1-2-small": ({"history_lengths": (1, 2), "table_bits": 6,
                           "tag_bits": 5, "seed": 3}, 4, 400),
}

#: label -> (constructor kwargs, stream seed, distinct sites, stream).
ITTAGE_CASES = {
    "default": ({}, 11, 60, _indirect_stream),
    "small": ({"table_bits": 5, "history_lengths": (2, 8),
               "tag_bits": 4}, 12, 200, _indirect_stream),
    "rotating": ({}, 13, 12, _rotating_stream),
}

GOLDEN_TAGE = {
    "default": "a3ce11b2267364de35bc96bf270d676c56c45559bb7fed2c343b1e9fcc9868c1",
    "default-seed7": "857934d09377b6f5f5e2cfbebba122698e12e91f8dd3109be9184addc4dd0cb9",
    "history-1-2": "aa5c4f619f291364079ce8bce55f32bedd9c4fad72125f3df88c58914115bb88",
    "history-1-2-small": "c7a6feca7477d3aabb7499375ace3e4afa5cb04b5a52507b0409d664d37aff68",
}

GOLDEN_ITTAGE = {
    "default": "523150081acb251c180d21ea1bb6f082e83c58b9c80bbf8c6853ccf2e84c5846",
    "small": "558fbe486812337d82f2747a485a64656cfbeb533afe7341fa3236fc32e294cd",
    "rotating": "f30200e7787949f64dd395b70c5028921f2ae4c7adef79455392b15051ad7059",
}


if __name__ == "__main__":
    print("GOLDEN_TAGE = {")
    for label in TAGE_CASES:
        print(f'    "{label}": "{tage_digest(label)}",')
    print("}")
    print("\nGOLDEN_ITTAGE = {")
    for label in ITTAGE_CASES:
        print(f'    "{label}": "{ittage_digest(label)}",')
    print("}")
