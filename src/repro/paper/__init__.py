"""Machine-readable registry of the paper's quantitative claims.

Every number or ordering the paper states is encoded as a
:class:`~repro.paper.claims.Claim` that reads its value from
:func:`~repro.paper.claims.paper_values`; :func:`~repro.paper.claims.audit`
replays them all and reports pass/fail — the reproduction's
self-verifying scorecard (also reachable via ``python -m repro claims``).
"""

from repro.paper.claims import (
    ALL_CLAIMS, Claim, ClaimResult, audit, claim_by_id, paper_values,
)

__all__ = ["ALL_CLAIMS", "Claim", "ClaimResult", "audit", "claim_by_id",
           "paper_values"]
