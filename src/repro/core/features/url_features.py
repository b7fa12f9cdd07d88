"""Feature set f1: 106 URL statistical features (Table IV).

Nine lexical features per URL:

1. protocol used (https = 1)
2. count of dots in the FreeURL
3. count of level domains
4. length of the URL
5. length of the FQDN
6. length of the mld
7. count of terms in the URL
8. count of terms in the mld
9. Alexa ranking of the RDN (default 1,000,001 when unranked)

Layout (9 + 9 + 4 * (7*3 + 1) = 106):

* the full nine for the starting URL and the landing URL;
* for each of the four link sets (internal/external x logged/HREF):
  the https ratio (feature 1 as a ratio) plus mean, median and standard
  deviation of features 3-9.  Feature 2 is computed only on the starting
  and landing URLs since obfuscation matters only where the user sees
  the URL.

Empty link sets yield all-zero statistics.  This module holds the
layout; :func:`repro.core.features.batch.f1_block` computes the values.
"""

from __future__ import annotations

#: Names of the per-URL statistical features 3-9 of Table IV.
STAT_FEATURES = (
    "level_domains", "url_length", "fqdn_length", "mld_length",
    "url_terms", "mld_terms", "alexa_rank",
)
LINK_SETS = ("intlog", "extlog", "intlink", "extlink")

N_FEATURES = 9 + 9 + len(LINK_SETS) * (len(STAT_FEATURES) * 3 + 1)


def feature_names() -> list[str]:
    """Stable names for the 106 f1 features."""
    single = ("https", "freeurl_dots") + STAT_FEATURES
    names = [f"f1.start.{name}" for name in single]
    names += [f"f1.land.{name}" for name in single]
    for set_name in LINK_SETS:
        names.append(f"f1.{set_name}.https_ratio")
        for stat_name in STAT_FEATURES:
            for agg in ("mean", "median", "std"):
                names.append(f"f1.{set_name}.{stat_name}.{agg}")
    return names
