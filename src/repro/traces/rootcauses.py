"""Root causes of DIP additions and removals (Fig 3).

Each change a cluster's service-management log would record carries a root
cause drawn from the paper's measured mix (82.7 % service upgrades, the
rest split across testing / failure / preemption / provisioning /
removal); Figure 4's downtimes are ``DOWNTIME_BY_CAUSE``'s own.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..netsim.cluster import ClusterType
from ..netsim.updates import ROOT_CAUSE_SHARES, RootCause


#: Causes only observed in Backends (§3.1: upgrades and testing are
#: Backend service-lifecycle operations).
BACKEND_ONLY_CAUSES = {RootCause.UPGRADE, RootCause.TESTING}


def cause_mix_for(kind: ClusterType) -> Dict[RootCause, float]:
    """Root-cause shares for a cluster type, renormalized.

    PoPs/Frontends see no upgrade/testing events; their churn comes from
    failures, preemption, and capacity changes.
    """
    if kind is ClusterType.BACKEND:
        return dict(ROOT_CAUSE_SHARES)
    mix = {
        cause: share
        for cause, share in ROOT_CAUSE_SHARES.items()
        if cause not in BACKEND_ONLY_CAUSES
    }
    total = sum(mix.values())
    return {cause: share / total for cause, share in mix.items()}


def sample_causes(
    rng: np.random.Generator, count: int, kind: ClusterType = ClusterType.BACKEND
) -> List[RootCause]:
    """Draw root causes for ``count`` changes in a cluster of ``kind``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    mix = cause_mix_for(kind)
    causes = list(mix)
    p = np.array([mix[c] for c in causes])
    p = p / p.sum()
    picks = rng.choice(len(causes), size=count, p=p)
    return [causes[i] for i in picks]


def cause_shares(causes: List[RootCause]) -> Dict[RootCause, float]:
    """Empirical root-cause shares of a log's changes (Fig 3's bars)."""
    if not causes:
        return {}
    counts: Dict[RootCause, int] = {}
    for cause in causes:
        counts[cause] = counts.get(cause, 0) + 1
    total = len(causes)
    return {cause: count / total for cause, count in counts.items()}
