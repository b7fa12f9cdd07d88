"""Client-side phishing-prevention add-on (the paper's companion [3]).

The paper emphasises that the detector admits "a client-side-only
implementation that offers (a) better privacy, (b) real-time protection
and (c) resilience to phishing webpages that return different contents
to different clients", and ships a proof-of-concept browser add-on.
This subpackage simulates that add-on around the library:

* :class:`~repro.addon.policy.WarningPolicy` — allow/warn/block decisions
  with a user-managed trust list and override tracking;
* :class:`~repro.addon.addon.PhishingPreventionAddon` — the
  per-navigation hook gluing browser, pipeline, policy and a URL-keyed
  :class:`~repro.parallel.cache.TtlCache` of verdicts (phishing sites
  live hours, so verdicts expire), with usage statistics.
"""

from repro.addon.addon import NavigationResult, PhishingPreventionAddon
from repro.addon.policy import Action, WarningPolicy

__all__ = [
    "Action",
    "NavigationResult",
    "PhishingPreventionAddon",
    "WarningPolicy",
]
