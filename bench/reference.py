"""Reference computations written from the README's definitions.

Nothing here imports tagstab: the benchmark checks the program's printed
output against these functions, so a fault shared by the program and its
check cannot hide.  Everything is plain Python over tag-count dicts and is
meant for a sample of points, not for whole outputs.
"""

from __future__ import annotations

import math
from collections import Counter

VARIANTS = ("plain", "tie_aware", "tie_corrected")


def competition_ranks(counts: dict[str, int]) -> dict[str, int]:
    """Rank of each tag: 1 + the number of tags with a larger count
    (tied counts share the minimal rank: 1, 2, 2, 4)."""
    first_position: dict[int, int] = {}
    for position, count in enumerate(sorted(counts.values(), reverse=True), start=1):
        first_position.setdefault(count, position)
    return {tag: first_position[count] for tag, count in counts.items()}


def rbo(counts1: dict[str, int], counts2: dict[str, int], p: float, variant: str) -> float:
    """Truncated rank-biased overlap of two count dicts.

    The prefix at depth d is the set of tags ranked at most d; the sum runs
    over d = 1 .. the largest rank in either list with weight (1-p) p^(d-1).
    ``plain`` scores |overlap| / d, ``tie_aware`` 2 |overlap| / (|P1| + |P2|),
    and ``tie_corrected`` is tie_aware summed only over depths that occur as
    a rank value in either list.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    ranks1 = competition_ranks(counts1)
    ranks2 = competition_ranks(counts2)
    depth = max(max(ranks1.values()), max(ranks2.values()))
    joins1 = Counter(ranks1.values())
    joins2 = Counter(ranks2.values())
    # A tag is in both prefixes from the depth where the later list reaches it.
    joins_both = Counter(
        max(rank1, ranks2[tag]) for tag, rank1 in ranks1.items() if tag in ranks2
    )
    occurring = set(joins1) | set(joins2)
    total = 0.0
    size1 = size2 = overlap = 0
    for d in range(1, depth + 1):
        size1 += joins1.get(d, 0)
        size2 += joins2.get(d, 0)
        overlap += joins_both.get(d, 0)
        if variant == "tie_corrected" and d not in occurring:
            continue
        agreement = overlap / d if variant == "plain" else 2.0 * overlap / (size1 + size2)
        total += (1.0 - p) * p ** (d - 1) * agreement
    return total


def prefix_counts(tags: list[str], n: int) -> dict[str, int]:
    return dict(Counter(tags[:n]))


def window_rbo(tags: list[str], t: int, window: int, p: float, variant: str) -> float:
    """RBO between the rankings after t - window and after t assignments."""
    return rbo(prefix_counts(tags, t - window), prefix_counts(tags, t), p, variant)


def kl_topk(tags: list[str], n: int, window: int, top_k: int) -> float:
    """KL(P || Q) of the normalized top-K' count vectors at n + window (P)
    and at n (Q), K' = min(top_k, distinct tags at n, distinct at n + window)."""
    earlier = sorted(Counter(tags[:n]).values(), reverse=True)
    later = sorted(Counter(tags[: n + window]).values(), reverse=True)
    k = min(top_k, len(earlier), len(later))
    q = earlier[:k]
    p = later[:k]
    q_total, p_total = sum(q), sum(p)
    return sum(
        (pi / p_total) * math.log((pi / p_total) / (qi / q_total))
        for pi, qi in zip(p, q)
    )


def power_law_alpha(sample: list[int], xmin: float) -> tuple[float, int]:
    """Exponent 1 + n / sum(ln(x / (xmin - 0.5))) over the values >= xmin,
    and that n."""
    tail = [x for x in sample if x >= xmin]
    return 1.0 + len(tail) / sum(math.log(x / (xmin - 0.5)) for x in tail), len(tail)


def worked_examples() -> list[str]:
    """A1's worked examples; returns the ones the reference gets wrong."""
    left = {"a": 4, "b": 3, "c": 2, "d": 1}
    right = {"c": 4, "b": 3, "a": 2, "d": 1}
    tied = {"a": 5, "b": 5, "c": 5, "d": 1}
    expected = [(f"{v}(left, right)", rbo(left, right, 0.9, v), 0.1989) for v in VARIANTS]
    expected.append(("tie_aware(tied, tied)", rbo(tied, tied, 0.9, "tie_aware"), 0.3439))
    expected.append(("tie_corrected(tied, tied)", rbo(tied, tied, 0.9, "tie_corrected"), 0.1729))
    return [
        f"{name} = {got:.6f}, expected {want}"
        for name, got, want in expected
        if abs(got - want) > 1e-9
    ]
