"""Ma et al.-style baseline: URL-lexical bag-of-words + linear model.

"Beyond Blacklists" [Ma, Saul, Savage, Voelker — KDD'09] classifies URLs
from lexical tokens alone (hostname and path tokens as sparse binary
features) with an online linear learner.  We reproduce the lexical part
with feature hashing into a fixed-width vector plus a handful of the
numeric URL statistics they report, trained by logistic regression.

Only the URL is consulted — no page content — which is why this family
cannot model term-usage consistency.  That same property makes it the
serving tier's **triage** model (see :mod:`repro.serve.triage`): it
scores a URL before any page load, one request at a time.  Training,
batch scoring and single-URL scoring share one featuriser, which parses
each URL once and hashes each token with ``zlib.crc32`` into a dense
row.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.ml.linear import LogisticRegression
from repro.urls.parsing import UrlParseError, parse_url
from repro.web.page import PageSnapshot


#: The separators that split a URL's path and query into tokens.
_SEPARATORS = str.maketrans("/?.=&-_", " " * 7)


class UrlLexicalClassifier:
    """Hashed URL-token features + logistic regression.

    Parameters
    ----------
    n_hash_features:
        Width of the hashed bag-of-words vector.
    threshold:
        Decision threshold on the predicted probability.
    """

    def __init__(
        self,
        n_hash_features: int = 1024,
        threshold: float = 0.5,
        epochs: int = 40,
        random_state: int | None = 0,
    ):
        self.n_hash_features = n_hash_features
        self.threshold = threshold
        self.model = LogisticRegression(
            epochs=epochs, random_state=random_state
        )

    # ------------------------------------------------------------------
    def _fill_row(self, url: str, row: np.ndarray) -> None:
        """Write the features of ``url`` into the zeroed ``row``.

        The tokens are the hostname labels plus the path and query
        split on ``/?.=&-_`` and whitespace; each sets the cell its
        CRC-32 hashes to.  The four trailing cells hold numeric URL
        statistics.  An unparsable URL is the one token
        ``<unparsable>`` with a zero tail.  Tokens encode with
        ``surrogatepass``: a URL holding a lone surrogate hashes like
        any other, and every other token encodes as plain UTF-8.
        """
        width = self.n_hash_features
        try:
            parsed = parse_url(url)
        except UrlParseError:
            row[zlib.crc32(b"<unparsable>") % width] = 1.0
            return
        tokens = parsed.fqdn.split(".")
        tokens += f"{parsed.path} {parsed.query}".translate(_SEPARATORS).split()
        for token in tokens:
            index = zlib.crc32(token.encode("utf-8", "surrogatepass")) % width
            row[index] = 1.0
        row[-4] = len(url) / 100.0
        row[-3] = parsed.level_domain_count
        row[-2] = url.count(".") / 10.0
        row[-1] = 1.0 if parsed.is_ip else 0.0

    def featurize_url(self, url: str) -> np.ndarray:
        """The feature vector of one URL."""
        vector = np.zeros(self.n_hash_features + 4)
        self._fill_row(url, vector)
        return vector

    def featurize_urls(self, urls) -> np.ndarray:
        """Feature matrix of a URL batch, one :meth:`featurize_url` row each."""
        urls = list(urls)
        matrix = np.zeros((len(urls), self.n_hash_features + 4))
        for url, row in zip(urls, matrix):
            self._fill_row(url, row)
        return matrix

    def featurize_snapshot(self, snapshot: PageSnapshot) -> np.ndarray:
        """Features of a page = features of its starting URL."""
        return self.featurize_url(snapshot.starting_url)

    # ------------------------------------------------------------------
    def fit_urls(self, urls, labels) -> "UrlLexicalClassifier":
        """Train on raw URLs — no page snapshots required."""
        X = self.featurize_urls(urls)
        self.model.fit(X, np.asarray(labels))
        return self

    def predict_proba_urls(self, urls) -> np.ndarray:
        """Phishing probability per URL, in one vectorised pass."""
        return self.model.predict_proba(self.featurize_urls(urls))

    def predict_urls(self, urls) -> np.ndarray:
        """Hard 0/1 predictions per URL."""
        return (self.predict_proba_urls(urls) >= self.threshold).astype(
            np.int64
        )

    def score_url(self, url: str) -> float:
        """Phishing probability of a single URL."""
        return float(self.predict_proba_urls([url])[0])

    # ------------------------------------------------------------------
    def fit_snapshots(self, snapshots, labels) -> "UrlLexicalClassifier":
        """Train on page snapshots (their starting URLs)."""
        return self.fit_urls(
            [snapshot.starting_url for snapshot in snapshots], labels
        )

    def predict_proba_snapshots(self, snapshots) -> np.ndarray:
        """Phishing probability per snapshot."""
        return self.predict_proba_urls(
            [snapshot.starting_url for snapshot in snapshots]
        )

    def predict_snapshots(self, snapshots) -> np.ndarray:
        """Hard 0/1 predictions per snapshot."""
        return (
            self.predict_proba_snapshots(snapshots) >= self.threshold
        ).astype(np.int64)
