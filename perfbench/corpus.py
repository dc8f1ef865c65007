"""Paper-shaped synthetic corpus: 31 labels, 2583/729/688 splits, CJK text.

The generator is a pure function of its seed (it draws only from
``random.Random(seed)``), so the same seed always yields the same records.

Only the per-label counts follow the paper's corpus:

- Per-label counts come from ``data.REFERENCE_COUNTS``. The table's test
  cells add up to 667, not the published 688; the 21 missing test records
  are placed by scaling the test column to 688 with the largest-remainder
  method (``TEST_EXTRA`` maps each label that gains records to how many).

The text itself is assumed, not fitted: no published SMP2017-ECDT figure
for utterance length or character frequency was at hand, so every value
below is an unverified guess at what short Chinese queries look like. The
LSTM's step count, and with it every timing, scales with utterance length,
so a fitted length distribution may move absolute figures; it does not
change which layer a workload exercises.

- Characters come from a Zipf-weighted inventory of CJK unified ideographs
  (exponent ``ZIPF_S`` over ``INVENTORY_SIZE`` codepoints). Each label owns
  a disjoint set of ``KEYWORDS_PER_LABEL`` indicative characters that
  appear with probability ``KEYWORD_PROB`` per position. With these values
  the training vocabulary has 2611 to 2722 entries over seeds 0..9; the
  embedding gradient and the Adam step scale with that size.
- Lengths: most lie in 3..30 with weight L^2 exp(-L/3) (mode 6, mean about
  10), ``SHORT_FRAC`` are 1 or 2 characters (below ``MIN_ENCODED_LEN``) and
  ``LONG_FRAC`` are 31..45 characters (truncated at ``max_len`` 30).
- Dev and test text also draws, with probability ``RARE_PROB`` per
  position, from a set of ``RARE_SIZE`` codepoints that training text never
  uses, so every evaluation split contains out-of-vocabulary characters on
  top of the Zipf tail that training happens not to cover.
"""

from __future__ import annotations

import itertools
import math
import random

from intentnet.data import LABELS, REFERENCE_COUNTS, REFERENCE_TOTALS, SPLITS, Utterance

CJK_BASE = 0x4E00
INVENTORY_SIZE = 4000
ZIPF_S = 1.0
KEYWORDS_PER_LABEL = 12
KEYWORD_PROB = 0.35
RARE_SIZE = 400
RARE_PROB = 0.02
SHORT_FRAC = 0.04
LONG_FRAC = 0.04


def _test_column() -> dict[str, int]:
    """Test counts scaled from the table's 667 to the published 688."""
    want = REFERENCE_TOTALS["test"]
    cells = {label: REFERENCE_COUNTS[label][2] for label in LABELS}
    total = sum(cells.values())
    exact = {label: n * want / total for label, n in cells.items()}
    counts = {label: math.floor(x) for label, x in exact.items()}
    # largest remainder first; LABELS order breaks ties
    by_remainder = sorted(LABELS, key=lambda lab: -(exact[lab] - counts[lab]))
    for label in by_remainder[:want - sum(counts.values())]:
        counts[label] += 1
    return counts


TEST_COUNTS = _test_column()
TEST_EXTRA = {lab: TEST_COUNTS[lab] - REFERENCE_COUNTS[lab][2]
              for lab in LABELS if TEST_COUNTS[lab] != REFERENCE_COUNTS[lab][2]}
SPLIT_COUNTS: dict[str, dict[str, int]] = {
    "train": {lab: REFERENCE_COUNTS[lab][0] for lab in LABELS},
    "dev": {lab: REFERENCE_COUNTS[lab][1] for lab in LABELS},
    "test": TEST_COUNTS,
}

# Query lengths 3..30: weight L^2 * exp(-L / 3), mode 6.
_MID_LENGTHS = list(range(3, 31))
_MID_WEIGHTS = list(itertools.accumulate(L * L * math.exp(-L / 3) for L in _MID_LENGTHS))


def _length(rng: random.Random) -> int:
    u = rng.random()
    if u < SHORT_FRAC:
        return rng.randint(1, 2)
    if u < SHORT_FRAC + LONG_FRAC:
        return rng.randint(31, 45)
    return rng.choices(_MID_LENGTHS, cum_weights=_MID_WEIGHTS)[0]


def paper_corpus(seed: int) -> dict[str, list[Utterance]]:
    """Train/dev/test splits with the paper's per-label counts and totals."""
    rng = random.Random(seed)
    codepoints = [chr(CJK_BASE + i) for i in range(INVENTORY_SIZE + RARE_SIZE)]
    rng.shuffle(codepoints)
    inventory, rare = codepoints[:INVENTORY_SIZE], codepoints[INVENTORY_SIZE:]
    cum_zipf = list(itertools.accumulate((r + 1) ** -ZIPF_S for r in range(INVENTORY_SIZE)))

    # Keywords come from the inventory's middle ranks, so they are frequent
    # enough to be learnt but are not the most common background characters.
    pool = inventory[50:50 + KEYWORDS_PER_LABEL * len(LABELS) * 2]
    picked = rng.sample(pool, KEYWORDS_PER_LABEL * len(LABELS))
    keywords = {label: picked[i * KEYWORDS_PER_LABEL:(i + 1) * KEYWORDS_PER_LABEL]
                for i, label in enumerate(LABELS)}

    splits: dict[str, list[Utterance]] = {}
    uid = 0
    for split in SPLITS:
        rare_prob = 0.0 if split == "train" else RARE_PROB
        records = []
        for label in LABELS:
            own = keywords[label]
            for _ in range(SPLIT_COUNTS[split][label]):
                chars = []
                for _ in range(_length(rng)):
                    u = rng.random()
                    if u < rare_prob:
                        chars.append(rng.choice(rare))
                    elif u < rare_prob + KEYWORD_PROB:
                        chars.append(rng.choice(own))
                    else:
                        chars.append(rng.choices(inventory, cum_weights=cum_zipf)[0])
                records.append(Utterance(id=uid, text="".join(chars), label=label))
                uid += 1
        rng.shuffle(records)
        splits[split] = records
    return splits
