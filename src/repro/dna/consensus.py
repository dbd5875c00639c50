"""Per-cluster consensus reconstruction (paper Fig. 6b, "decoding" stage).

Given the noisy reads of one cluster, the decoder must reconstruct the
stored oligo.  We use iterative alignment-and-vote: every read is aligned
to the current template with the standard edit-distance traceback, votes
are tallied per template position (including an explicit deletion vote
and the majority insertion after each position), and the template is
re-estimated; a couple of iterations converge for the error rates DNA
channels exhibit.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple


def align_to_template(read: str, template: str) -> List[Tuple[int, str]]:
    """Align *read* against *template*, returning per-template-position
    events.

    Each element is ``(position, symbol)`` where *symbol* is the read
    base matched/substituted at that template position, ``""`` for a
    deletion, and insertions are attached to the *preceding* template
    position as ``(position, "+X")``.
    """
    n, m = len(template), len(read)
    # Full DP with traceback.
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        row = dp[i]
        prev = dp[i - 1]
        tc = template[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j] + 1,
                row[j - 1] + 1,
                prev[j - 1] + (tc != read[j - 1]),
            )
    events: List[Tuple[int, str]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if (
            i > 0
            and j > 0
            and dp[i][j] == dp[i - 1][j - 1] + (template[i - 1] != read[j - 1])
        ):
            events.append((i - 1, read[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            events.append((i - 1, ""))  # deletion: template pos unmatched
            i -= 1
        else:
            events.append((i - 1, "+" + read[j - 1]))  # insertion after i-1
            j -= 1
    events.reverse()
    return events


def consensus_sequence(
    reads: List[str],
    template: Optional[str] = None,
    iterations: int = 2,
    length: Optional[int] = None,
) -> str:
    """Majority-vote consensus of *reads*.

    *template* defaults to the first read of the expected strand
    *length* if one was given and some read has it, otherwise to the
    most common read length's first representative.  Returns the
    refined consensus string.
    """
    if not reads:
        raise ValueError("need at least one read")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if template is None:
        lengths = Counter(len(r) for r in reads)
        target_len = length if length in lengths else lengths.most_common(1)[0][0]
        template = next(r for r in reads if len(r) == target_len)
    for _ in range(iterations):
        new_template = _vote_once(reads, template)
        if new_template == template:
            break
        template = new_template
    return template


def _vote_once(reads: List[str], template: str) -> str:
    """One alignment-and-vote pass against *template*."""
    position_votes: List[Counter] = [Counter() for _ in template]
    insertion_votes: List[Counter] = [Counter() for _ in range(len(template) + 1)]
    for read in reads:
        for position, symbol in align_to_template(read, template):
            if symbol.startswith("+"):
                insertion_votes[position + 1][symbol[1:]] += 1
            else:
                position_votes[position][symbol] += 1
    out: List[str] = []
    half = len(reads) / 2.0
    # Leading insertions are attached to slot 0 via position -1 + 1.
    for base, count in insertion_votes[0].most_common(1):
        if count > half:
            out.append(base)
    for pos, votes in enumerate(position_votes):
        if votes:
            symbol, _ = votes.most_common(1)[0]
            if symbol:  # "" means majority deletion -> drop the position
                out.append(symbol)
        else:
            out.append(template[pos])
        for base, count in insertion_votes[pos + 1].most_common(1):
            if count > half:
                out.append(base)
    return "".join(out)
