"""The experiment runner: one method per paper table/figure.

:class:`Lab` builds the synthetic world once, caches feature matrices and
trained models, and exposes the experiments of Section VI:

=====================  =================================================
method                 paper artefact
=====================  =================================================
``table5_rows``        Table V   — dataset description
``table6_rows``        Table VI  — accuracy across six languages
``table7_rows``        Table VII / Fig. 2 — accuracy per feature set
``fig3_curves``        Fig. 3    — precision vs recall per language
``fig4_curves``        Fig. 4    — ROC per language
``fig5_curves``        Fig. 5    — ROC per feature set (CV + English)
``fig6_curve``         Fig. 6    — performance vs test-set scale
``table8_timing``      Table VIII — processing time per stage
``table9_target_id``   Table IX  — target identification success
``table10_rows``       Table X   — comparison with baselines
``sec6d_fp_filtering`` §VI-D     — false-positive filtering
``sec7_ip_recall``     §VII-B    — IP-URL limitation
``sec7_evasion``       §VII-C    — evasion techniques
=====================  =================================================

Scenario terminology follows the paper: *scenario1* is 5-fold
cross-validation on legTrain+phishTrain; *scenario2* trains on those
(oldest) sets and predicts on phishTest plus a per-language legitimate
test set.
"""

from __future__ import annotations

import gc
import time
from functools import partial

import numpy as np

from repro.baselines import (
    BagOfWordsClassifier,
    CantinaClassifier,
    UrlLexicalClassifier,
)
from repro.core.detector import PhishingDetector
from repro.core.features import FeatureExtractor
from repro.core.target import TargetIdentifier
from repro.corpus.datasets import CorpusConfig, Dataset, World, build_world
from repro.corpus.phishing import PhishingSiteGenerator
from repro.corpus.wordlists import LANGUAGES
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.metrics import binary_metrics, precision_recall_curve, roc_auc, roc_curve
from repro.ml.validation import cross_validate_scores
from repro.parallel import AnalysisCache, WorkerPool
from repro.web.ocr import SimulatedOcr
from repro.web.page import PageSnapshot

FEATURE_SETS = ("f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall")


def _timed_call(fn):
    """``(seconds, result)`` of one call to ``fn``: the one wall-clock timer."""
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _timed_round(fn):
    """:func:`_timed_call` of ``fn`` with the collector paused.

    The heap is collected first, so a round never pays for garbage an
    earlier round (or the other side of a comparison) left: with the
    Lab's world in memory a full collection takes about a tenth of a
    second, and it would otherwise land in whichever round happened to
    trigger it.
    """
    gc.collect()
    gc.disable()
    try:
        return _timed_call(fn)
    finally:
        gc.enable()


def _millisecond_stats(seconds) -> dict[str, float]:
    """Median, average and standard deviation of ``seconds``, in ms."""
    millis = np.asarray(seconds) * 1000.0
    return {
        "median": float(np.median(millis)),
        "average": float(millis.mean()),
        "std": float(millis.std()),
    }


class Lab:
    """Builds the world once; runs and caches every experiment.

    Parameters
    ----------
    config:
        Corpus sizes; defaults to the scaled-down Table V shape.
    threshold:
        Discrimination threshold (paper: 0.7).
    n_estimators:
        Boosting stages for every trained detector.
    ocr_error_rate:
        Character error rate of the simulated OCR.
    workers:
        Worker count for batch feature extraction, analysis and
        cross-validation folds; ``None`` or ``1`` keeps everything
        serial.  Parallel runs produce results bit-identical to serial
        runs (ordered pool maps, serial loads, schedule-independent
        fold seeds).
    pool_backend:
        Pool backend (``"thread"`` or ``"process"``) when ``workers``
        is set.  Threads share this Lab's analysis cache; processes
        work on copies of it.
    cache:
        Whether to memoize feature vectors by snapshot content hash
        (default on), so experiments that extract the same pages share
        one extraction.
    """

    def __init__(
        self,
        config: CorpusConfig | None = None,
        threshold: float = 0.7,
        n_estimators: int = 120,
        ocr_error_rate: float = 0.02,
        workers: int | None = None,
        pool_backend: str = "thread",
        cache: bool = True,
    ):
        self.config = config or CorpusConfig()
        self.threshold = threshold
        self.n_estimators = n_estimators
        self.world: World = build_world(self.config)
        self.cache: AnalysisCache | None = (
            AnalysisCache(max_entries=16384) if cache else None
        )
        self.extractor = FeatureExtractor(
            alexa=self.world.alexa, cache=self.cache
        )
        self.pool: WorkerPool | None = (
            WorkerPool(workers=workers, backend=pool_backend)
            if workers and workers > 1 else None
        )
        self.ocr = SimulatedOcr(error_rate=ocr_error_rate)
        self._features: dict[str, np.ndarray] = {}
        self._detectors: dict[str, PhishingDetector] = {}
        self._scenario1_cache: dict[tuple, tuple] = {}
        self._quality_ref = None

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def dataset(self, name: str) -> Dataset:
        """Dataset lookup by Table V name."""
        return self.world.dataset(name)

    def features(self, name: str) -> np.ndarray:
        """Cached full 212-column feature matrix of a dataset."""
        if name not in self._features:
            pages = self.world.dataset(name)
            self._features[name] = self.extractor.extract_many(
                (page.snapshot for page in pages), pool=self.pool
            )
        return self._features[name]

    def train_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Training features and labels (legTrain + phishTrain)."""
        X = np.vstack([self.features("legTrain"), self.features("phishTrain")])
        y = np.concatenate([
            self.dataset("legTrain").labels(),
            self.dataset("phishTrain").labels(),
        ])
        return X, y

    def detector(self, feature_set: str = "fall") -> PhishingDetector:
        """A detector trained on scenario2's training data (cached)."""
        if feature_set not in self._detectors:
            X, y = self.train_matrix()
            model = PhishingDetector(
                self.extractor,
                feature_set=feature_set,
                threshold=self.threshold,
                n_estimators=self.n_estimators,
            )
            model.fit(X, y)
            self._detectors[feature_set] = model
        return self._detectors[feature_set]

    def scenario2_scores(
        self, language: str, feature_set: str = "fall"
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(y_true, scores)`` for phishTest + one language test set."""
        X = np.vstack([self.features(language), self.features("phishTest")])
        y = np.concatenate([
            self.dataset(language).labels(),
            self.dataset("phishTest").labels(),
        ])
        return y, self.detector(feature_set).predict_proba(X)

    def scenario1_scores(
        self, feature_set: str = "fall", n_splits: int = 5
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pooled out-of-fold ``(y_true, scores)`` for scenario1 (CV).

        Cached per (feature_set, n_splits): Table VII and Fig. 5 share
        the same cross-validation runs.  Folds fan out over this Lab's
        worker pool when one is configured; results are identical to
        the serial run (the fold split is drawn before dispatch and the
        pool map preserves input order).
        """
        key = (feature_set, n_splits)
        if key in self._scenario1_cache:
            return self._scenario1_cache[key]
        X, y = self.train_matrix()
        # A partial, not a closure over the Lab, so the process pool
        # backend can ship it to workers.  Folds fit precomputed feature
        # matrices, so each fold's detector keeps a default extractor.
        factory = partial(
            PhishingDetector,
            feature_set=feature_set,
            threshold=self.threshold,
            n_estimators=self.n_estimators,
        )
        result = cross_validate_scores(
            factory, X, y, n_splits=n_splits,
            random_state=self.config.seed, pool=self.pool,
        )
        self._scenario1_cache[key] = result
        return result

    def _metric_row(self, y: np.ndarray, scores: np.ndarray) -> dict[str, float]:
        metrics = binary_metrics(y, (scores >= self.threshold).astype(int))
        row = metrics.as_dict()
        row["auc"] = roc_auc(y, scores)
        return row

    # ------------------------------------------------------------------
    # Table V
    # ------------------------------------------------------------------
    def table5_rows(self) -> list[dict]:
        """Dataset description: initial and cleaned sizes."""
        rows = []
        order = ("phishTrain", "phishTest", "phishBrand", "legTrain",
                 *LANGUAGES)
        for name in order:
            dataset = self.dataset(name)
            rows.append({
                "set": "Phish" if name.startswith("phish") else "Leg",
                "name": name,
                "initial": dataset.initial_count or len(dataset),
                "clean": len(dataset),
            })
        return rows

    # ------------------------------------------------------------------
    # Table VI / Figs. 3-4
    # ------------------------------------------------------------------
    def table6_rows(self) -> list[dict]:
        """Accuracy across six languages (scenario2, fall, θ=0.7)."""
        rows = []
        for language in LANGUAGES:
            y, scores = self.scenario2_scores(language)
            row = {"language": language}
            row.update(self._metric_row(y, scores))
            rows.append(row)
        return rows

    def fig3_curves(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Precision-recall curves per language: ``{lang: (prec, rec)}``."""
        curves = {}
        for language in LANGUAGES:
            y, scores = self.scenario2_scores(language)
            precision, recall, _ = precision_recall_curve(y, scores)
            curves[language] = (precision, recall)
        return curves

    def fig4_curves(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """ROC curves per language: ``{lang: (fpr, tpr)}``."""
        curves = {}
        for language in LANGUAGES:
            y, scores = self.scenario2_scores(language)
            fpr, tpr, _ = roc_curve(y, scores)
            curves[language] = (fpr, tpr)
        return curves

    # ------------------------------------------------------------------
    # Table VII / Figs. 2 and 5
    # ------------------------------------------------------------------
    def table7_rows(self) -> list[dict]:
        """Accuracy per feature set under both scenarios."""
        rows = []
        for scenario in ("cross-validation", "english"):
            for feature_set in FEATURE_SETS:
                if scenario == "cross-validation":
                    y, scores = self.scenario1_scores(feature_set)
                else:
                    y, scores = self.scenario2_scores("english", feature_set)
                row = {"scenario": scenario, "feature_set": feature_set}
                row.update(self._metric_row(y, scores))
                rows.append(row)
        return rows

    def fig5_curves(self) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
        """ROC per feature set: ``{(set, scenario): (fpr, tpr)}``."""
        curves = {}
        for feature_set in FEATURE_SETS:
            y, scores = self.scenario1_scores(feature_set)
            curves[(feature_set, "cross-validation")] = roc_curve(y, scores)[:2]
            y, scores = self.scenario2_scores("english", feature_set)
            curves[(feature_set, "english")] = roc_curve(y, scores)[:2]
        return curves

    # ------------------------------------------------------------------
    # Fig. 6 — scalability
    # ------------------------------------------------------------------
    def fig6_curve(self, steps: int = 10) -> list[dict]:
        """Precision/recall/FPR as the test set grows step by step.

        Mirrors the paper: start with 1/steps of the English legitimate
        set and of phishTest, then add equal increments (the paper uses
        10k legitimate + 100 phish per step at full scale).
        """
        rng = np.random.default_rng(self.config.seed)
        legit_X = self.features("english")
        phish_X = self.features("phishTest")
        legit_order = rng.permutation(len(legit_X))
        phish_order = rng.permutation(len(phish_X))
        detector = self.detector("fall")

        legit_scores = detector.predict_proba(legit_X)
        phish_scores = detector.predict_proba(phish_X)

        rows = []
        for step in range(1, steps + 1):
            n_legit = int(len(legit_X) * step / steps)
            n_phish = max(1, int(len(phish_X) * step / steps))
            scores = np.concatenate([
                legit_scores[legit_order[:n_legit]],
                phish_scores[phish_order[:n_phish]],
            ])
            y = np.concatenate([
                np.zeros(n_legit, dtype=int), np.ones(n_phish, dtype=int)
            ])
            row = {"sample_size": n_legit + n_phish}
            row.update(self._metric_row(y, scores))
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Table VIII — processing time
    # ------------------------------------------------------------------
    def table8_timing(self, sample_size: int = 100) -> dict[str, dict[str, float]]:
        """Per-stage processing times in milliseconds.

        Stages mirror the paper's Table VIII: webpage scraping, loading
        the saved data, feature extraction and classification, each
        timed on the first ``sample_size`` English pages, and
        ``total_no_scraping``, the sum of the three stages after
        scraping.  The feature stage times the batch-of-one
        ``extract_batch`` call that ``KnowYourPhish.analyze`` makes on a
        page it has not seen, so it uses an extractor without the Lab's
        cache, where an earlier experiment may have left the page's
        vector.  ``target_identification`` times
        :meth:`~repro.core.target.TargetIdentifier.identify` on the
        first ``sample_size`` phishTest pages; only flagged pages pay
        it, so it stays out of the total.
        """
        detector = self.detector("fall")
        extractor = FeatureExtractor(alexa=self.world.alexa)
        timings: dict[str, list[float]] = {
            "scraping": [], "loading": [], "features": [], "classification": [],
        }
        for page in list(self.dataset("english"))[:sample_size]:
            seconds, snapshot = _timed_call(
                partial(self.world.browser.load, page.snapshot.starting_url)
            )
            timings["scraping"].append(seconds)

            payload = snapshot.to_dict()
            seconds, snapshot = _timed_call(
                partial(PageSnapshot.from_dict, payload)
            )
            timings["loading"].append(seconds)

            seconds, matrix = _timed_call(
                partial(extractor.extract_batch, [snapshot])
            )
            timings["features"].append(seconds)

            seconds, _ = _timed_call(partial(detector.predict_proba, matrix))
            timings["classification"].append(seconds)

        result = {
            stage: _millisecond_stats(values)
            for stage, values in timings.items()
        }
        result["total_no_scraping"] = _millisecond_stats(
            np.asarray(timings["loading"])
            + np.asarray(timings["features"])
            + np.asarray(timings["classification"])
        )
        identifier = self.target_identifier()
        result["target_identification"] = _millisecond_stats([
            _timed_call(partial(identifier.identify, page.snapshot))[0]
            for page in list(self.dataset("phishTest"))[:sample_size]
        ])
        return result

    # ------------------------------------------------------------------
    # Table IX — target identification
    # ------------------------------------------------------------------
    def target_identifier(self) -> TargetIdentifier:
        """A target identifier bound to the world's search engine."""
        return TargetIdentifier(self.world.search, ocr=self.ocr)

    def table9_target_id(self) -> dict:
        """Target identification on phishBrand: top-1/2/3 success."""
        identifier = self.target_identifier()
        counts = {1: 0, 2: 0, 3: 0}
        unknown = 0
        total = len(self.dataset("phishBrand"))
        for page in self.dataset("phishBrand"):
            if page.target_mld is None:
                unknown += 1
                continue
            result = identifier.identify(page.snapshot)
            for k in counts:
                if result.target_in_top(page.target_mld, k):
                    counts[k] += 1
        rows = {}
        for k, identified in counts.items():
            missed = total - unknown - identified
            rows[f"top-{k}"] = {
                "identified": identified,
                "unknown": unknown,
                "missed": missed,
                "success_rate": identified / total if total else 0.0,
            }
        return rows

    # ------------------------------------------------------------------
    # §VI-D — false-positive filtering
    # ------------------------------------------------------------------
    def sec6d_fp_filtering(self) -> dict:
        """Run misclassified legitimate pages through target identification.

        Returns the verdict breakdown of the detector's English false
        positives and the before/after false positive rates.
        """
        y, scores = self.scenario2_scores("english")
        english = self.dataset("english")
        n_legit = len(english)
        predictions = (scores >= self.threshold).astype(int)
        fp_indices = [
            index for index in range(n_legit) if predictions[index] == 1
        ]

        identifier = self.target_identifier()
        breakdown = {"phish": 0, "suspicious": 0, "legitimate": 0}
        for index in fp_indices:
            result = identifier.identify(english[index].snapshot)
            breakdown[result.verdict] += 1

        fpr_before = len(fp_indices) / n_legit if n_legit else 0.0
        remaining = breakdown["phish"] + breakdown["suspicious"]
        fpr_after = remaining / n_legit if n_legit else 0.0
        return {
            "false_positives": len(fp_indices),
            "breakdown": breakdown,
            "fpr_before": fpr_before,
            "fpr_after": fpr_after,
        }

    # ------------------------------------------------------------------
    # Table X — baseline comparison
    # ------------------------------------------------------------------
    def table10_rows(self) -> list[dict]:
        """Our method vs re-implemented baselines on shared data."""
        rows = []

        # Ours: English scenario2, multilingual scenario2, CV.
        y, scores = self.scenario2_scores("english")
        rows.append({"technique": "our method (english)",
                     **self._metric_row(y, scores)})
        ys, all_scores = [], []
        for language in LANGUAGES:
            y, scores = self.scenario2_scores(language)
            mask_phish = y == 1
            if language != "english":
                # Count the shared phishTest only once across languages.
                y, scores = y[~mask_phish], scores[~mask_phish]
            ys.append(y)
            all_scores.append(scores)
        y_all, scores_all = np.concatenate(ys), np.concatenate(all_scores)
        rows.append({"technique": "our method (multilingual)",
                     **self._metric_row(y_all, scores_all)})
        y, scores = self.scenario1_scores("fall")
        rows.append({"technique": "our method (cross-validation)",
                     **self._metric_row(y, scores)})

        # Baselines are evaluated on the *multilingual* scenario2 test set
        # (all six legitimate language sets + phishTest): the paper's
        # comparison argues precisely that static-term methods break
        # outside the training language/brand distribution.
        train = self.dataset("legTrain") + self.dataset("phishTrain")
        test = self.dataset("english")
        for language in LANGUAGES:
            if language != "english":
                test = test + self.dataset(language)
        test = test + self.dataset("phishTest")
        test_snapshots = [page.snapshot for page in test]
        y_test = test.labels()

        cantina = CantinaClassifier(self.world.search)
        cantina.fit_idf(page.snapshot for page in self.dataset("legTrain"))
        predictions = cantina.predict_snapshots(test_snapshots)
        metrics = binary_metrics(y_test, predictions)
        rows.append({"technique": "cantina (tf-idf + search)",
                     **metrics.as_dict(), "auc": float("nan")})

        url_model = UrlLexicalClassifier()
        url_model.fit_snapshots([p.snapshot for p in train], train.labels())
        scores = url_model.predict_proba_snapshots(test_snapshots)
        row = binary_metrics(
            y_test, (scores >= url_model.threshold).astype(int)
        ).as_dict()
        row["auc"] = roc_auc(y_test, scores)
        rows.append({"technique": "url lexical (ma et al. style)", **row})

        bow = BagOfWordsClassifier()
        bow.fit_snapshots([p.snapshot for p in train], train.labels())
        scores = bow.predict_proba_snapshots(test_snapshots)
        row = binary_metrics(
            y_test, (scores >= bow.threshold).astype(int)
        ).as_dict()
        row["auc"] = roc_auc(y_test, scores)
        rows.append({"technique": "bag-of-words (whittaker style)", **row})
        return rows

    # ------------------------------------------------------------------
    # §VII-B and §VII-C — limitations and evasion
    # ------------------------------------------------------------------
    def _fresh_phish_batch(
        self, count: int, seed_offset: int, **generate_kwargs
    ) -> list:
        """Generate and scrape a fresh batch of phishing pages."""
        rng = np.random.default_rng(self.config.seed + seed_offset)
        generator = PhishingSiteGenerator(
            self.world.web, rng, self.world.brands
        )
        snapshots = []
        for _ in range(count):
            phish = generator.generate(**generate_kwargs)
            snapshots.append(self.world.browser.load(phish.starting_url))
        return snapshots

    def sec7_ip_recall(self, count: int = 30) -> dict[str, float]:
        """Recall on IP-based phishing URLs vs the global recall."""
        detector = self.detector("fall")
        snapshots = self._fresh_phish_batch(count, seed_offset=101,
                                            hosting="ip")
        X = self.extractor.extract_many(snapshots)
        recall_ip = float(
            (detector.predict_proba(X) >= self.threshold).mean()
        )
        y, scores = self.scenario2_scores("english")
        phish_mask = y == 1
        recall_global = float(
            (scores[phish_mask] >= self.threshold).mean()
        )
        return {"ip_recall": recall_ip, "global_recall": recall_global}

    # ------------------------------------------------------------------
    # extensions beyond the paper's tables
    # ------------------------------------------------------------------
    def sec8_blacklist_exposure(
        self, campaigns: int = 400, propagation_delay: float = 6.0
    ) -> dict[str, float]:
        """§VIII deployment argument: blacklist delay vs phish lifetime.

        Quantifies the victim-exposure window of an offline blacklist
        pipeline against the client-side detector's first-load recall.
        """
        from repro.baselines.blacklist import (
            BlacklistDefense,
            exposure_analysis,
            generate_campaign_timeline,
        )

        timeline = generate_campaign_timeline(
            campaigns, median_lifetime=9.0, seed=self.config.seed
        )
        blacklist = BlacklistDefense(
            propagation_delay=propagation_delay, coverage=0.9,
            seed=self.config.seed,
        )
        y, scores = self.scenario2_scores("english")
        recall = float((scores[y == 1] >= self.threshold).mean())
        return exposure_analysis(timeline, blacklist,
                                 client_side_recall=recall)

    def model_choice_ablation(self) -> dict[str, float]:
        """Gradient boosting vs a linear model on the same 212 features.

        The paper selects boosting for its feature-selection ability and
        overfitting robustness (Section IV-C); this quantifies the gap.
        """
        from repro.ml.linear import LogisticRegression
        from repro.ml.metrics import roc_auc as auc_of

        X_train, y_train = self.train_matrix()
        X_test = np.vstack([
            self.features("english"), self.features("phishTest")
        ])
        y_test = np.concatenate([
            self.dataset("english").labels(),
            self.dataset("phishTest").labels(),
        ])

        results = {}
        y, scores = self.scenario2_scores("english")
        results["gradient_boosting"] = auc_of(y, scores)

        # Linear model needs feature standardisation to converge.
        mean = X_train.mean(axis=0)
        std = X_train.std(axis=0)
        std[std == 0] = 1.0
        linear = LogisticRegression(epochs=60, random_state=0)
        linear.fit((X_train - mean) / std, y_train)
        results["logistic_regression"] = auc_of(
            y_test, linear.predict_proba((X_test - mean) / std)
        )
        return results

    def _drifted_snapshots(
        self, count: int, seed_offset: int = 999
    ) -> tuple[list, int]:
        """Loaded snapshots of a drifted future campaign wave.

        The drift recipe shared by :meth:`temporal_drift` and the
        quality drift scenario: later campaigns prefer free hosting
        and compromised servers, use HTTPS-grade clone kits and hit
        brands unseen in training.  Returns ``(snapshots,
        skipped_urls)`` — unparsable compromised-pool URLs are
        counted, not silently dropped.
        """
        from repro.urls.parsing import UrlParseError, parse_url

        rng = np.random.default_rng(self.config.seed + seed_offset)
        compromised_pool = []
        skipped_urls = 0
        for page in self.dataset("legTrain")[:60]:
            try:
                rdn = parse_url(page.snapshot.landing_url).rdn
            except UrlParseError:
                skipped_urls += 1
                continue
            if rdn:
                compromised_pool.append(rdn)
        generator = PhishingSiteGenerator(
            self.world.web, rng, self.world.brands,
            compromised_pool=compromised_pool[:30],
        )
        drifted_hosting = ("hosting_provider", "hosting_provider",
                           "compromised", "deceptive", "random")
        unseen_brands = list(self.world.brands)[
            int(len(self.world.brands) * self.config.train_brand_share):
        ]
        snapshots = []
        for _ in range(count):
            hosting = drifted_hosting[int(rng.integers(len(drifted_hosting)))]
            target = (
                unseen_brands[int(rng.integers(len(unseen_brands)))]
                if unseen_brands else None
            )
            phish = generator.generate(
                target=target, hosting=hosting, quality="high"
            )
            snapshots.append(self.world.browser.load(phish.starting_url))
        return snapshots, skipped_urls

    def temporal_drift(self, count: int = 60) -> dict[str, float]:
        """Recall on a drifted future campaign wave.

        Simulates the ecosystem moving on after training: the trained
        model is evaluated unchanged on the
        :meth:`_drifted_snapshots` wave.
        """
        detector = self.detector("fall")
        snapshots, skipped_urls = self._drifted_snapshots(count)
        X = self.extractor.extract_many(snapshots)
        drifted_recall = float(
            (detector.predict_proba(X) >= self.threshold).mean()
        )
        y, scores = self.scenario2_scores("english")
        baseline_recall = float(
            (scores[y == 1] >= self.threshold).mean()
        )
        return {
            "baseline_recall": baseline_recall,
            "drifted_recall": drifted_recall,
            # Unparsable URLs are counted, not silently dropped: a run
            # summary hiding skips would overstate pool coverage.
            "skipped_urls": float(skipped_urls),
        }

    def sec7_evasion(self, count: int = 30) -> dict[str, float]:
        """Detection recall under each single evasion technique."""
        detector = self.detector("fall")
        techniques = (
            "none", "minimal_text", "no_external_links",
            "no_external_resources", "image_based", "misspell_terms",
            "short_url",
        )
        results = {}
        for offset, technique in enumerate(techniques):
            if technique == "none":
                snapshots = self._fresh_phish_batch(count, seed_offset=200)
            else:
                rng = np.random.default_rng(self.config.seed + 200 + offset)
                generator = PhishingSiteGenerator(
                    self.world.web, rng, self.world.brands
                )
                snapshots = []
                for _ in range(count):
                    phish = generator.generate_with_evasion(technique)
                    snapshots.append(
                        self.world.browser.load(phish.starting_url)
                    )
            X = self.extractor.extract_many(snapshots)
            results[technique] = float(
                (detector.predict_proba(X) >= self.threshold).mean()
            )
        return results

    # ------------------------------------------------------------------
    # robustness: fault injection + graceful degradation
    # ------------------------------------------------------------------
    def _robustness_workload(
        self, pages_per_class: int
    ) -> tuple[list[str], dict[str, int]]:
        """Starting URLs + ground-truth labels for the robustness runs."""
        urls: list[str] = []
        labels: dict[str, int] = {}
        for name, label in (("english", 0), ("phishTest", 1)):
            for page in list(self.dataset(name))[:pages_per_class]:
                url = page.snapshot.starting_url
                urls.append(url)
                labels[url] = label
        return urls, labels

    def _resilient_pipeline(self, search=None, ocr=None) -> "KnowYourPhish":
        """The full pipeline over a (possibly wrapped) search engine."""
        from repro.core.pipeline import KnowYourPhish

        identifier = TargetIdentifier(
            search if search is not None else self.world.search,
            ocr=ocr if ocr is not None else self.ocr,
        )
        return KnowYourPhish(self.detector("fall"), identifier)

    def _batch_accuracy(self, pipeline, report, labels) -> float:
        """Blocking accuracy over the analyzed pages of a batch report."""
        if not report.analyzed:
            return 0.0
        correct = sum(
            1 for page in report.analyzed
            if int(pipeline.is_blocked(page.verdict)) == labels[page.url]
        )
        return correct / len(report.analyzed)

    def robustness_curve(
        self,
        fault_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
        pages_per_class: int = 40,
        max_attempts: int = 20,
    ) -> list[dict]:
        """Completion and accuracy vs injected transient-fault rate.

        For each rate the synthetic web is wrapped in a seeded
        :class:`~repro.web.faults.FlakyWeb` injecting timeouts, resets
        and 5xx responses; a
        :class:`~repro.resilience.browser.ResilientBrowser` retries with
        exponential backoff over a virtual clock (instant, deterministic)
        and failures are quarantined by ``analyze_many`` instead of
        aborting.  Transient faults leave content untouched, so retried
        pages must reproduce the fault-free verdicts exactly — the
        experiment measures that the resilience layer preserves both
        completion (100%) and accuracy under fire.
        """
        from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
        from repro.web.faults import FaultPlan, FlakyWeb

        urls, labels = self._robustness_workload(pages_per_class)
        rows = []
        for rate in fault_rates:
            clock = ManualClock()
            plan = FaultPlan.transient(
                rate, seed=self.config.seed + int(rate * 1000)
            )
            flaky = FlakyWeb(self.world.web, plan, clock=clock)
            browser = ResilientBrowser(
                flaky,
                policy=RetryPolicy(
                    max_attempts=max_attempts, base_delay=0.05,
                    clock=clock, seed=self.config.seed,
                ),
                page_budget=120.0,
                clock=clock,
            )
            pipeline = self._resilient_pipeline()
            report = pipeline.analyze_many(urls, browser, pool=self.pool)
            summary = report.summary()
            faults_injected = int(sum(
                flaky.stats[kind] for kind in ("timeout", "reset",
                                               "server_error")
            ))
            rows.append({
                "fault_rate": rate,
                "pages": summary["total"],
                "completed": summary["analyzed"],
                "quarantined": summary["quarantined"],
                "completion_rate": summary["completion_rate"],
                "retried_pages": summary["retried"],
                "faults_injected": faults_injected,
                "accuracy": self._batch_accuracy(pipeline, report, labels),
            })
        return rows

    def throughput_benchmark(
        self,
        pages_per_class: int = 40,
        workers: int = 4,
        backend: str = "thread",
        repeats: int = 7,
    ) -> list[dict]:
        """Batch-analysis throughput: serial vs parallel, cold vs warm cache.

        Runs the full pipeline over the ``ext-robustness`` workload
        (English legitimate + phishTest starting URLs) in four
        configurations — {serial, ``workers``-worker pool} × {cold
        cache, warm cache} — and reports pages/sec for each plus the
        speedup over the serial cold run.  Every configuration is
        checked to produce verdicts identical to the serial cold run
        (the throughput layer's core guarantee).

        Cold runs use a fresh :class:`~repro.parallel.AnalysisCache`;
        warm runs reuse one filled by a priming pass over the same
        workload.  The configurations run in ``repeats`` interleaved
        rounds (cold modes rebuild their cache every round); each row
        keeps every round's seconds in ``round_seconds``, in round
        order, so two modes compare round by round, and reports its
        rate and speedup from the fastest round.
        """
        from repro.core.pipeline import KnowYourPhish
        from repro.web.browser import Browser as PlainBrowser

        urls, _labels = self._robustness_workload(pages_per_class)
        base = self.detector("fall")

        def _pipeline(cache: AnalysisCache | None) -> KnowYourPhish:
            detector = PhishingDetector(
                extractor=FeatureExtractor(
                    alexa=self.world.alexa, cache=cache
                ),
                feature_set=base.feature_set,
                threshold=base.threshold,
            )
            detector.model = base.model
            identifier = TargetIdentifier(self.world.search, ocr=self.ocr)
            return KnowYourPhish(detector, identifier)

        def _verdict_key(report) -> list[tuple]:
            return [
                (page.url, page.verdict.verdict, page.verdict.confidence,
                 tuple(page.verdict.targets))
                for page in report.analyzed
            ]

        warm_cache = AnalysisCache(max_entries=16384)
        _pipeline(warm_cache).analyze_many(urls, PlainBrowser(self.world.web))

        runs = (
            ("serial/cold", None, None),
            (f"parallel{workers}/cold", workers, None),
            ("serial/warm", None, warm_cache),
            (f"parallel{workers}/warm", workers, warm_cache),
        )
        pools = {
            mode: WorkerPool(workers=run_workers, backend=backend)
            for mode, run_workers, _cache in runs if run_workers
        }
        rounds: dict[str, list[float]] = {mode: [] for mode, _w, _c in runs}
        keys: dict[str, list[tuple]] = {}
        try:
            # Interleave the rounds: the machine's speed drifts over a
            # benchmark's lifetime, and timing each mode's rounds
            # back-to-back would let that drift masquerade as a
            # mode-vs-mode difference.  One round of every mode per
            # pass, so each round pairs the modes under like load.
            for _ in range(repeats):
                for mode, _run_workers, cache in runs:
                    pipeline = _pipeline(
                        cache if cache is not None
                        else AnalysisCache(max_entries=16384)
                    )
                    browser = PlainBrowser(self.world.web)
                    pool = pools.get(mode)
                    seconds, report = _timed_round(
                        lambda: pipeline.analyze_many(urls, browser, pool=pool)
                    )
                    rounds[mode].append(seconds)
                    keys[mode] = _verdict_key(report)
        finally:
            for pool in pools.values():
                pool.close()
        rows = []
        reference: list[tuple] | None = None
        baseline_rate: float | None = None
        for mode, run_workers, cache in runs:
            if reference is None:
                reference = keys[mode]
            best = min(rounds[mode])
            rate = len(urls) / best if best else float("inf")
            if baseline_rate is None:
                baseline_rate = rate
            rows.append({
                "mode": mode,
                "workers": run_workers or 1,
                "warm_cache": cache is not None,
                "pages": len(urls),
                "seconds": best,
                "round_seconds": rounds[mode],
                "pages_per_sec": rate,
                "speedup": rate / baseline_rate if baseline_rate else 0.0,
                "verdicts_match": keys[mode] == reference,
            })
        return rows

    def extraction_benchmark(
        self,
        pages_per_class: int = 40,
        repeats: int = 7,
    ) -> list[dict]:
        """Feature-extraction stage in isolation: per-page vs columnar.

        The end-to-end pipeline rate is floored by serial page loads
        and per-page target identification, which no extraction rewrite
        can touch — so the columnar path's real effect is measured at
        the stage level.  Three configurations over the robustness
        workload's snapshots: the per-page ``extract`` loop, a cold
        ``extract_batch`` pass, and a warm (cache-hit) ``extract_batch``
        pass.  They run in ``repeats`` interleaved rounds; each row keeps
        every round's seconds in ``round_seconds``, in round order, and
        reports pages/sec and the speedup over the per-page loop from
        the fastest round.  ``bit_identical`` re-checks the
        differential guarantee — batch cells equal serial cells to the
        last bit — on live corpus data.
        """
        snapshots = [
            page.snapshot
            for name in ("english", "phishTest")
            for page in list(self.dataset(name))[:pages_per_class]
        ]

        per_page = FeatureExtractor(alexa=self.world.alexa)
        warm_extractor = FeatureExtractor(
            alexa=self.world.alexa,
            cache=AnalysisCache(max_entries=16384),
        )
        warm_extractor.extract_batch(snapshots)  # priming pass
        configs = (
            ("per_page/cold", lambda: np.vstack(
                [per_page.extract(snapshot) for snapshot in snapshots]
            )),
            # a fresh extractor per round keeps this pass genuinely cold
            ("batch/cold", lambda: FeatureExtractor(
                alexa=self.world.alexa
            ).extract_batch(snapshots)),
            ("batch/warm", lambda: warm_extractor.extract_batch(snapshots)),
        )
        rounds: dict[str, list[float]] = {mode: [] for mode, _fn in configs}
        matrices = {}
        # Interleaved rounds, for the same reason as in
        # :meth:`throughput_benchmark`: machine-speed drift must hit
        # every configuration, not whichever happened to run last.
        for _ in range(repeats):
            for mode, fn in configs:
                seconds, matrices[mode] = _timed_round(fn)
                rounds[mode].append(seconds)

        n_pages = len(snapshots)
        base_rate = n_pages / min(rounds["per_page/cold"])
        reference = matrices["per_page/cold"]
        rows = []
        for mode, _fn in configs:
            seconds, matrix = min(rounds[mode]), matrices[mode]
            rate = n_pages / seconds if seconds else float("inf")
            rows.append({
                "mode": mode,
                "pages": n_pages,
                "seconds": seconds,
                "round_seconds": rounds[mode],
                "pages_per_sec": rate,
                "speedup": rate / base_rate,
                "bit_identical": bool(np.array_equal(matrix, reference)),
            })
        return rows

    def training_benchmark(
        self,
        n_estimators: int | None = None,
        cv_splits: int = 5,
        cv_workers: int = 4,
        cv_backend: str = "process",
    ) -> dict:
        """Training-speed benchmark: one ensemble fit + fold-parallel CV.

        Part one fits the ensemble on the standard corpus feature
        matrix (legTrain + phishTrain, paper hyperparameters) and
        reports its :class:`~repro.ml.instrumentation.TrainingStats`
        plus the fit's wall time.

        Part two runs scenario1-style cross-validation serially and
        fold-parallel over a ``cv_workers``-worker pool and reports the
        speedup plus an exact equality check of the pooled scores.  On
        a single-core machine the parallel run cannot win — equality
        still holds and the measured (possibly sub-1x) speedup is
        reported as-is.

        Each fit and each CV run is one :func:`_timed_round`.  Returns
        a machine-readable dict; the training benchmark writes it to
        ``benchmarks/results/training.json``.
        """
        X, y = self.train_matrix()
        stages = n_estimators or self.n_estimators
        clf = GradientBoostingClassifier(
            n_estimators=stages, random_state=0, subsample=0.9
        )
        fit_seconds, _ = _timed_round(lambda: clf.fit(X, y))
        fit = clf.fit_stats_.as_dict()
        fit["fit_seconds"] = fit_seconds

        factory = partial(
            PhishingDetector,
            feature_set="fall",
            threshold=self.threshold,
            n_estimators=stages,
        )

        def run_cv(pool: WorkerPool | None = None):
            return cross_validate_scores(
                factory, X, y, n_splits=cv_splits,
                random_state=self.config.seed, pool=pool,
            )

        serial_seconds, serial = _timed_round(run_cv)
        with WorkerPool(workers=cv_workers, backend=cv_backend) as pool:
            parallel_seconds, parallel = _timed_round(lambda: run_cv(pool))
        return {
            "n_samples": int(X.shape[0]),
            "n_features": int(X.shape[1]),
            "n_estimators": stages,
            "fit": fit,
            "cross_validation": {
                "n_splits": cv_splits,
                "workers": cv_workers,
                "backend": cv_backend,
                "serial_seconds": serial_seconds,
                "parallel_seconds": parallel_seconds,
                "speedup": (
                    serial_seconds / parallel_seconds
                    if parallel_seconds else float("inf")
                ),
                "scores_identical": bool(
                    np.array_equal(serial[0], parallel[0])
                    and np.array_equal(serial[1], parallel[1])
                ),
            },
        }

    def robustness_search_outage(self, count: int = 30) -> dict:
        """Graceful degradation with the search engine forced down.

        Every query fails, the circuit breaker trips after its failure
        threshold, and from then on flagged pages fail fast into
        detector-only verdicts tagged ``degraded`` — no exception ever
        reaches the caller, and no page is lost.
        """
        from repro.resilience import (
            CircuitBreaker,
            GuardedSearchEngine,
            ManualClock,
            SearchUnavailableError,
        )
        from repro.web.faults import FlakySearchEngine

        clock = ManualClock()
        flaky_search = FlakySearchEngine(self.world.search, forced_down=True)
        breaker = CircuitBreaker(
            failure_threshold=3, recovery_time=300.0,
            failure_types=(SearchUnavailableError,), clock=clock,
            name="search",
        )
        guarded = GuardedSearchEngine(flaky_search, breaker=breaker)
        pipeline = self._resilient_pipeline(search=guarded)

        flagged = degraded_detector_only = 0
        pages = list(self.dataset("phishTest"))[:count]
        for page in pages:
            verdict = pipeline.analyze(page.snapshot)
            if verdict.confidence >= self.threshold:
                flagged += 1
                if verdict.degraded and "search_unavailable" in verdict.degradations:
                    degraded_detector_only += 1
        return {
            "pages": len(pages),
            "flagged": flagged,
            "degraded_detector_only": degraded_detector_only,
            "breaker_opened": breaker.opened_count,
            "breaker_trips": breaker.stats["trips"],
            "queries_attempted": breaker.stats["calls"],
            "rejected_fast": breaker.stats["rejected"],
            "transitions": dict(sorted(breaker.transitions.items())),
        }

    def robustness_degraded_content(
        self, rate: float = 0.5, pages_per_class: int = 40
    ) -> dict:
        """Accuracy when pages load, but partially.

        Content faults (truncated HTML, missing screenshots) cannot be
        retried away — the page *did* load.  Features are extracted from
        whatever sources survived; this measures the accuracy cost of
        analysing partial pages instead of dropping them.
        """
        from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
        from repro.web.faults import FaultPlan, FlakyWeb

        urls, labels = self._robustness_workload(pages_per_class)
        pipeline = self._resilient_pipeline()

        clean_clock = ManualClock()
        clean_browser = ResilientBrowser(
            FlakyWeb(self.world.web, FaultPlan(seed=self.config.seed),
                     clock=clean_clock),
            policy=RetryPolicy(clock=clean_clock), clock=clean_clock,
        )
        baseline = pipeline.analyze_many(urls, clean_browser, pool=self.pool)

        clock = ManualClock()
        plan = FaultPlan.degraded_content(rate, seed=self.config.seed + 77)
        browser = ResilientBrowser(
            FlakyWeb(self.world.web, plan, clock=clock),
            policy=RetryPolicy(clock=clock), clock=clock,
        )
        report = pipeline.analyze_many(urls, browser, pool=self.pool)
        return {
            "fault_rate": rate,
            "pages": report.summary()["total"],
            "degraded_pages": report.summary()["degraded"],
            "baseline_accuracy": self._batch_accuracy(
                pipeline, baseline, labels
            ),
            "degraded_accuracy": self._batch_accuracy(
                pipeline, report, labels
            ),
        }

    # ------------------------------------------------------------------
    # serving: overload + chaos under simulated time
    # ------------------------------------------------------------------
    def _offline_reference(self, urls, search) -> dict[str, tuple]:
        """Offline ``analyze_many`` verdicts keyed by URL.

        The serving benchmark's ground truth: each URL's
        ``(verdict, confidence, targets)`` triple from a plain batch
        run over the clean web with the given search engine.
        """
        from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy

        clock = ManualClock()
        browser = ResilientBrowser(
            self.world.web, policy=RetryPolicy(clock=clock), clock=clock
        )
        pipeline = self._resilient_pipeline(search=search)
        report = pipeline.analyze_many(urls, browser)
        return {
            page.url: (
                page.verdict.verdict,
                page.verdict.confidence,
                tuple(page.verdict.targets),
            )
            for page in report.analyzed
        }

    def serving_benchmark(
        self,
        pages_per_class: int = 25,
        workers: int = 4,
        analysis_cost: float = 0.1,
        overload: float = 3.0,
        duration: float = 2.0,
        budget: float = 1.2,
        queue_limit: int = 32,
        stall_rate: float = 0.04,
        outage: tuple[float, float] = (0.4, 0.6),
        storm_at: tuple[float, ...] = (0.3, 0.45, 0.6),
    ) -> dict:
        """The overload + chaos serving scenario, end to end.

        Offers ``overload``× the sustainable rate
        (``workers / analysis_cost``) of Zipf-skewed traffic to a
        :class:`~repro.serve.ServingEngine` for ``duration`` simulated
        seconds, then stresses every defence mid-run:

        * a **search outage** (breaker-guarded ``force_down``) in the
          middle third — flagged pages degrade to detector-only
          verdicts;
        * a **hot-key storm** on a held-out URL *during* the outage —
          exercises coalescing on a page first seen while degraded;
        * **slow pages** (deterministic stall faults) against the
          per-request deadline — stalled loads shed instead of
          blocking a worker past the budget;
        * a **worker loss** while overloaded;
        * a **graceful drain** before the offered load ends — late
          arrivals shed ``draining``, everything admitted completes.

        Returns the serving report summary plus the cross-checks the
        benchmark asserts on: every request terminated, completed
        verdicts byte-identical to offline ``analyze_many`` references
        (healthy and forced-down search), no completed response past
        its budget, and the queue never beyond its bound.  Everything
        runs on a :class:`~repro.resilience.ManualClock` — simulated
        seconds, deterministic to the byte.
        """
        from repro.resilience import (
            CircuitBreaker,
            GuardedSearchEngine,
            ManualClock,
            ResilientBrowser,
            RetryPolicy,
            SearchUnavailableError,
        )
        from repro.serve import (
            AdmissionController,
            ServingEngine,
            TokenBucket,
            ZipfSampler,
            build_requests,
            burst,
            constant_rate,
            hot_key_storm,
            search_outage,
            worker_loss,
        )
        from repro.web.faults import FaultPlan, FlakySearchEngine, FlakyWeb

        urls, _labels = self._robustness_workload(pages_per_class)
        # Hold the last three (phishing) URLs out of the steady traffic
        # so the storms hit pages first seen mid-outage: their fresh
        # analyses must run search queries into the dead engine,
        # degrading to detector-only verdicts and tripping the breaker.
        held_out = urls[-3:]
        sampler = ZipfSampler(
            urls[:-3], exponent=1.1, seed=self.config.seed
        )
        capacity = workers / analysis_cost
        offered_rate = overload * capacity
        drain_at = 0.9 * duration
        storms = [
            hot_key_storm(
                url, at=fraction * duration, count=12,
                spread=0.04 * duration,
            )
            for url, fraction in zip(held_out, storm_at)
        ]
        requests = build_requests(
            constant_rate(sampler, offered_rate, duration),
            *storms,
            burst(sampler, at=0.95 * duration, count=20),
            budget=budget,
        )

        clock = ManualClock()
        flaky_web = FlakyWeb(
            self.world.web,
            # Stall delay sits just above the request budget: a stalled
            # load must blow the deadline (and shed) rather than merely
            # run slow, without starving the workers for long.
            FaultPlan.latency(stall_rate, delay=budget * 1.25,
                              seed=self.config.seed),
            clock=clock,
        )
        browser = ResilientBrowser(
            flaky_web,
            policy=RetryPolicy(clock=clock, seed=self.config.seed),
            clock=clock,
        )
        flaky_search = FlakySearchEngine(self.world.search)
        # Threshold 2, not 3: coalescing and the verdict memo are so
        # effective that only the storms' fresh analyses ever reach the
        # dead search engine — repeat requests ride the memoized
        # degraded verdicts without touching the breaker at all.
        breaker = CircuitBreaker(
            failure_threshold=2,
            recovery_time=0.2 * duration,
            failure_types=(SearchUnavailableError,),
            clock=clock,
            name="search",
        )
        pipeline = self._resilient_pipeline(
            search=GuardedSearchEngine(flaky_search, breaker=breaker)
        )
        admission = AdmissionController(
            TokenBucket(rate=capacity, capacity=float(workers * 4)),
            queue_limit=queue_limit,
        )
        engine = ServingEngine(
            pipeline, browser, admission,
            clock=clock, workers=workers, analysis_cost=analysis_cost,
        )
        chaos = search_outage(
            flaky_search,
            at=outage[0] * duration,
            duration=outage[1] * duration,
        ) + worker_loss(at=0.6 * duration)
        report = engine.run(requests, chaos=chaos, drain_at=drain_at)

        # Cross-check served verdicts against offline analyze_many on
        # the same pages: healthy search and forced-down search are the
        # only two states chaos puts the dependency in, so every
        # completed response must be byte-identical to one of them.
        unique_urls = sorted({request.url for request in requests})
        reference_healthy = self._offline_reference(
            unique_urls, search=self.world.search
        )
        reference_outage = self._offline_reference(
            unique_urls,
            search=FlakySearchEngine(self.world.search, forced_down=True),
        )
        mismatches = 0
        budget_violations = 0
        for response in report.responses:
            if not response.completed:
                continue
            triple = (
                response.verdict,
                response.confidence,
                tuple(response.targets),
            )
            if triple not in (
                reference_healthy.get(response.url),
                reference_outage.get(response.url),
            ):
                mismatches += 1
            if response.latency > budget + 1e-9:
                budget_violations += 1

        summary = report.summary()
        return {
            "requests": len(requests),
            "unique_urls": len(unique_urls),
            "workers": workers,
            "capacity_rps": capacity,
            "offered_rps": offered_rate,
            "overload": overload,
            "duration_s": duration,
            "budget_s": budget,
            "drain_at_s": drain_at,
            "report": summary,
            "terminated": len(report.responses),
            # Drain must refuse exactly the post-drain arrivals and
            # nothing else: admitted work is never abandoned.
            "post_drain_arrivals": sum(
                1 for request in requests if request.arrival >= drain_at
            ),
            "verdict_mismatches": mismatches,
            "budget_violations": budget_violations,
            "web_stalls": int(flaky_web.stats["stall"]),
            "breaker": {
                "opened": breaker.opened_count,
                "rejected_fast": breaker.stats["rejected"],
                "transitions": dict(sorted(breaker.transitions.items())),
            },
        }

    # ------------------------------------------------------------------
    # serving: tiered triage ladder vs the untriaged engine
    # ------------------------------------------------------------------
    def triage_model(
        self, max_fpr: float = 0.0, max_fnr: float = 0.0
    ) -> "TriageModel":
        """A tier-0 triage model fitted and calibrated on training URLs.

        The URL-lexical classifier trains on legTrain+phishTrain
        starting URLs (the same split every scenario2 experiment
        uses), then the two-sided confident band calibrates on the
        same validation URLs with the given error budgets.
        """
        from repro.serve import TriageModel

        train = self.dataset("legTrain") + self.dataset("phishTrain")
        urls = [page.snapshot.starting_url for page in train]
        classifier = UrlLexicalClassifier()
        classifier.fit_urls(urls, train.labels())
        return TriageModel.calibrate(
            classifier, urls, train.labels(),
            max_fpr=max_fpr, max_fnr=max_fnr,
        )

    def serving_tiered_benchmark(
        self,
        pages_per_class: int = 25,
        workers: int = 4,
        analysis_cost: float = 0.1,
        overload: float = 3.0,
        duration: float = 2.0,
        queue_limit: int = 32,
        max_fpr: float = 0.0,
        max_fnr: float = 0.0,
    ) -> dict:
        """Triage ladder vs untriaged engine on the same Zipf workload.

        Offers the identical ``overload``× request schedule to two
        engines over the clean web: the classic full-pipeline engine,
        and one fronted by a :class:`~repro.serve.TriageModel` (plus a
        short-TTL negative cache).  Tier 0 resolves the
        high-confidence majority in ``triage_cost`` simulated seconds
        without a page load, so the tiered engine's latency
        percentiles and sustained throughput beat the untriaged run,
        while every *escalated* verdict stays byte-identical to the
        offline reference — the claim this benchmark exists to pin.

        Also reports corpus-level precision/recall of both
        configurations over the workload's unique URLs (tier-0
        confident answers where triage fires, the full pipeline's
        verdict where it escalates), so threshold calibration that
        sacrificed accuracy for speed would show up immediately.
        """
        from repro.resilience import ManualClock, ResilientBrowser, RetryPolicy
        from repro.serve import (
            TIER_FULL,
            TIER_TRIAGE,
            AdmissionController,
            ServingEngine,
            TokenBucket,
            ZipfSampler,
            build_requests,
            constant_rate,
        )

        urls, labels = self._robustness_workload(pages_per_class)
        sampler = ZipfSampler(urls, exponent=1.1, seed=self.config.seed)
        capacity = workers / analysis_cost
        offered_rate = overload * capacity
        requests = build_requests(
            constant_rate(sampler, offered_rate, duration)
        )
        triage = self.triage_model(max_fpr=max_fpr, max_fnr=max_fnr)

        def _run(with_triage: bool):
            clock = ManualClock()
            browser = ResilientBrowser(
                self.world.web,
                policy=RetryPolicy(clock=clock, seed=self.config.seed),
                clock=clock,
            )
            engine = ServingEngine(
                self._resilient_pipeline(),
                browser,
                AdmissionController(
                    TokenBucket(rate=capacity, capacity=float(workers * 4)),
                    queue_limit=queue_limit,
                ),
                clock=clock,
                workers=workers,
                analysis_cost=analysis_cost,
                triage=triage if with_triage else None,
                negative_ttl=0.25 * duration if with_triage else None,
            )
            return engine.run(requests)

        def _side(report) -> dict:
            makespan = max(
                (response.finished for response in report.responses),
                default=0.0,
            )
            return {
                "report": report.summary(),
                "completed": report.completed_count,
                "throughput_rps": (
                    report.completed_count / makespan if makespan else 0.0
                ),
                "latency_p50": report.latency_percentile(0.50),
                "latency_p99": report.latency_percentile(0.99),
            }

        untriaged = _run(with_triage=False)
        tiered = _run(with_triage=True)

        # Escalated verdicts must be byte-identical to the offline
        # reference — triage may only skip work, never change it.
        unique_urls = sorted({request.url for request in requests})
        reference = self._offline_reference(
            unique_urls, search=self.world.search
        )
        escalated_mismatches = 0
        for response in tiered.responses:
            if not response.completed or response.tier != TIER_FULL:
                continue
            triple = (
                response.verdict,
                response.confidence,
                tuple(response.targets),
            )
            if triple != reference.get(response.url):
                escalated_mismatches += 1

        # Corpus-level blocking quality of each configuration: the
        # full pipeline everywhere vs tier-0-where-confident.
        pipeline = self._resilient_pipeline()

        def _blocked(verdict: str) -> bool:
            if verdict == "phish":
                return True
            if verdict == "suspicious":
                return pipeline.treat_suspicious_as_phish
            return False

        decisions = dict(zip(unique_urls, triage.decide_batch(unique_urls)))

        def _quality(tiered_path: bool) -> dict:
            true_positive = false_positive = false_negative = 0
            for url in unique_urls:
                decision = decisions[url]
                if tiered_path and decision.resolved:
                    blocked = decision.action == "phish"
                else:
                    blocked = _blocked(reference[url][0])
                if blocked and labels[url]:
                    true_positive += 1
                elif blocked:
                    false_positive += 1
                elif labels[url]:
                    false_negative += 1
            predicted = true_positive + false_positive
            actual = true_positive + false_negative
            return {
                "precision": (
                    true_positive / predicted if predicted else 1.0
                ),
                "recall": true_positive / actual if actual else 1.0,
            }

        tier0 = tiered.tier_counts().get(TIER_TRIAGE, 0)
        summary_tiered = _side(tiered)
        summary_untriaged = _side(untriaged)
        p50_speedup = (
            summary_untriaged["latency_p50"]
            / summary_tiered["latency_p50"]
            if summary_tiered["latency_p50"]
            else float("inf")
        )
        return {
            "requests": len(requests),
            "unique_urls": len(unique_urls),
            "workers": workers,
            "capacity_rps": capacity,
            "offered_rps": offered_rate,
            "overload": overload,
            "duration_s": duration,
            "triage": {
                "legit_threshold": triage.legit_threshold,
                "phish_threshold": triage.phish_threshold,
                "corpus_escalation_rate": triage.escalation_rate(
                    unique_urls
                ),
                "tier0_resolved": tier0,
                "tier0_share": tier0 / len(requests) if requests else 0.0,
            },
            "untriaged": summary_untriaged,
            "tiered": summary_tiered,
            "p50_speedup": p50_speedup,
            "throughput_gain": (
                summary_tiered["throughput_rps"]
                / summary_untriaged["throughput_rps"]
                if summary_untriaged["throughput_rps"]
                else float("inf")
            ),
            "escalated_verdict_mismatches": escalated_mismatches,
            "quality": {
                "untriaged": _quality(tiered_path=False),
                "tiered": _quality(tiered_path=True),
            },
        }

    # ------------------------------------------------------------------
    # quality observability: reference, drift scenario, monitored serve
    # ------------------------------------------------------------------
    def quality_reference(self):
        """Frozen training-time reference profile (cached).

        Classifier-score and per-feature-group-mean distributions over
        the scenario2 training matrix, sketched with the drift
        monitor's bin layout — the "healthy" yardstick every live
        window is compared against.
        """
        from repro.core.features.extractor import group_means
        from repro.obs.quality import ReferenceProfile

        if self._quality_ref is None:
            detector = self.detector("fall")
            X, _y = self.train_matrix()
            self._quality_ref = ReferenceProfile.from_training(
                detector.predict_proba(X), group_means(X)
            )
        return self._quality_ref

    def quality_drift_scenario(
        self,
        healthy: int = 120,
        drifted: int = 100,
        tick: float = 0.05,
    ) -> dict:
        """Deterministic drift scenario: healthy stream, then a wave.

        ``drifted`` should exceed the monitor's window capacity
        (chunk_size x chunks = 80 observations by default) so the
        sliding windows end up holding *only* wave traffic — a shorter
        wave leaves healthy observations in the window, diluting the
        measured divergence toward the thresholds.

        Phase 1 replays ``healthy`` training-matrix rows (sampled with
        a fixed seed, so the live windows match the frozen reference
        up to sampling noise) through an armed
        :class:`~repro.obs.quality.QualityMonitor` — no drift alert
        may fire.  Phase 2 feeds the :meth:`_drifted_snapshots`
        campaign wave: the score and feature-group windows diverge
        from the reference and the monitor must raise at least one
        drift alert.  Everything runs on a
        :class:`~repro.resilience.ManualClock`, so the same seed
        yields the same alert log byte for byte — the property the
        ``quality-smoke`` CI job asserts from artifacts alone.
        """
        from repro.core.features.extractor import group_means
        from repro.obs.quality import (
            BurnRateWindow,
            QualityMonitor,
            SloObjective,
        )
        from repro.resilience import ManualClock

        detector = self.detector("fall")
        reference = self.quality_reference()
        clock = ManualClock()
        monitor = QualityMonitor(
            reference=reference,
            objectives=(
                SloObjective(
                    name="degraded_verdicts",
                    kind="degraded_rate",
                    budget=0.05,
                    description="verdicts should rarely be degraded",
                ),
            ),
            windows=(
                BurnRateWindow(
                    "fast",
                    long_s=40 * tick,
                    short_s=8 * tick,
                    factor=4.0,
                ),
            ),
            clock=clock,
        )

        def _feed(matrix: np.ndarray) -> None:
            scores = detector.predict_proba(matrix)
            means = group_means(matrix)
            for index in range(matrix.shape[0]):
                clock.advance(tick)
                score = float(scores[index])
                monitor.observe_verdict(
                    score=score,
                    verdict=(
                        "phish" if score >= self.threshold
                        else "legitimate"
                    ),
                    groups={
                        name: float(values[index])
                        for name, values in means.items()
                    },
                )

        X, _y = self.train_matrix()
        rng = np.random.default_rng(self.config.seed + 4242)
        healthy_rows = X[rng.integers(X.shape[0], size=healthy)]
        _feed(healthy_rows)
        healthy_alerts = [dict(alert) for alert in monitor.alerts]

        snapshots, _skipped = self._drifted_snapshots(drifted)
        _feed(self.extractor.extract_many(snapshots))
        artifact = monitor.finish()
        drift_alerts = [
            alert for alert in monitor.firing_alerts
            if alert["kind"] == "drift"
        ]
        assert monitor.drift is not None
        return {
            "healthy_pages": healthy,
            "drifted_pages": drifted,
            "healthy_alerts": healthy_alerts,
            "drift_alerts": drift_alerts,
            "drifted_signals": monitor.drift.drifted_signals(),
            "artifact": artifact,
            "monitor": monitor,
        }

    def quality_serving_benchmark(
        self,
        pages_per_class: int = 12,
        workers: int = 4,
        analysis_cost: float = 0.1,
        overload: float = 2.0,
        duration: float = 2.0,
        queue_limit: int = 32,
        repeats: int = 1,
    ) -> dict:
        """Monitored vs unmonitored tiered serving on one workload.

        Offers the identical request schedule to two identically
        seeded tiered engines — one with an armed
        :class:`~repro.obs.quality.QualityMonitor`, one without — and
        checks the monitor changed nothing: every terminal response
        equal field for field.  The monitor carries one deliberately
        unmeetable latency objective (full-tier latency under a
        quarter of the simulated analysis cost), so the run also
        demonstrates a deterministic SLO burn-rate alert, alongside
        realistic objectives that must stay quiet.

        ``repeats`` interleaves extra baseline/monitored run pairs
        (each monitored repeat on a fresh throwaway monitor) and
        reports the min wall-clock seconds of each side; the returned
        alerts/artifact always come from the first monitored run.

        The overhead bound uses ``seconds_taps``: the engine's exact
        tap stream is captured once, then replayed into fresh monitors
        in a timed tight loop (min of several replays).  That isolates
        the monitor's marginal cost from engine-run jitter — end-to-end
        deltas at this scale are dominated by scheduler noise, and
        flipping one process between armed and unarmed engines also
        thrashes CPython's inline caches, which no real deployment does
        (a monitor is on or off for the process lifetime).
        """
        from repro.obs.quality import (
            BurnRateWindow,
            QualityMonitor,
            SloObjective,
        )
        from repro.resilience import (
            ManualClock,
            ResilientBrowser,
            RetryPolicy,
        )
        from repro.serve import (
            TIER_FULL,
            AdmissionController,
            ServingEngine,
            TokenBucket,
            ZipfSampler,
            build_requests,
            constant_rate,
        )

        urls, _labels = self._robustness_workload(pages_per_class)
        sampler = ZipfSampler(urls, exponent=1.1, seed=self.config.seed)
        capacity = workers / analysis_cost
        requests = build_requests(
            constant_rate(sampler, overload * capacity, duration)
        )
        triage = self.triage_model()

        def _run(monitor):
            clock = ManualClock()
            browser = ResilientBrowser(
                self.world.web,
                policy=RetryPolicy(clock=clock, seed=self.config.seed),
                clock=clock,
            )
            engine = ServingEngine(
                self._resilient_pipeline(),
                browser,
                AdmissionController(
                    TokenBucket(
                        rate=capacity, capacity=float(workers * 4)
                    ),
                    queue_limit=queue_limit,
                ),
                clock=clock,
                workers=workers,
                analysis_cost=analysis_cost,
                triage=triage,
                negative_ttl=0.25 * duration,
                quality=monitor,
            )
            return engine.run(requests)

        def _monitor():
            return QualityMonitor(
                reference=self.quality_reference(),
                objectives=(
                    SloObjective(
                        name="full_tier_latency",
                        kind="latency",
                        budget=0.05,
                        threshold=analysis_cost / 4,
                        tier=TIER_FULL,
                        description=(
                            "deliberately unmeetable: full-tier latency "
                            "under a quarter of the analysis cost"
                        ),
                    ),
                    SloObjective(
                        name="degraded_verdicts",
                        kind="degraded_rate",
                        budget=0.5,
                    ),
                    SloObjective(
                        name="escalation_agreement",
                        kind="escalation_mismatch",
                        budget=0.9,
                    ),
                    SloObjective(
                        name="memo_hit_floor",
                        kind="cache_hit",
                        budget=0.999,
                        store="memo",
                    ),
                ),
                windows=(
                    BurnRateWindow(
                        "fast",
                        long_s=0.25 * duration,
                        short_s=0.05 * duration,
                        factor=2.0,
                    ),
                ),
            )

        monitor = _monitor()
        baseline = monitored = None
        seconds: dict[str, list[float]] = {"baseline": [], "monitored": []}

        def _timed(side, run_monitor):
            elapsed, result = _timed_round(lambda: _run(run_monitor))
            seconds[side].append(elapsed)
            return result

        for round_index in range(max(1, repeats)):
            round_monitor = monitor if round_index == 0 else _monitor()
            # Alternate which side runs first so warm-up and cache
            # effects cancel across rounds instead of favouring one.
            if round_index % 2 == 0:
                result = _timed("baseline", None)
                baseline = baseline if baseline is not None else result
                result = _timed("monitored", round_monitor)
                monitored = monitored if monitored is not None else result
            else:
                result = _timed("monitored", round_monitor)
                monitored = monitored if monitored is not None else result
                result = _timed("baseline", None)
                baseline = baseline if baseline is not None else result
        identical = baseline.responses == monitored.responses

        tap_log: list[tuple] = []

        class _TapLog:
            """Captures the engine's exact tap stream for replay."""

            def observe_response(self, response, budget=None, now=None):
                tap_log.append(("response", response, budget, now))

            def observe_cache(self, store, hit, now=None):
                tap_log.append(("cache", store, hit, now))

            def observe_escalation(self, mismatch, now=None):
                tap_log.append(("escalation", mismatch, now))

            def finish(self, now=None):
                tap_log.append(("finish", now))

        _run(_TapLog())

        def _replay_once() -> float:
            replay_monitor = _monitor()

            def replay() -> None:
                for call in tap_log:
                    kind = call[0]
                    if kind == "response":
                        replay_monitor.observe_response(
                            call[1], budget=call[2], now=call[3]
                        )
                    elif kind == "cache":
                        replay_monitor.observe_cache(
                            call[1], call[2], now=call[3]
                        )
                    elif kind == "escalation":
                        replay_monitor.observe_escalation(
                            call[1], now=call[2]
                        )
                    else:
                        replay_monitor.finish(now=call[1])

            return _timed_round(replay)[0]

        _replay_once()  # warm the replay path before timing it
        replays = [_replay_once() for _ in range(7)]

        slo_alerts = [
            alert for alert in monitor.firing_alerts
            if alert["kind"] == "slo"
        ]
        return {
            "requests": len(requests),
            "responses_identical": identical,
            "slo_alerts": slo_alerts,
            "report": monitored.summary(),
            "artifact": monitor.artifact(),
            "monitor": monitor,
            "seconds_baseline": min(seconds["baseline"]),
            "seconds_monitored": min(seconds["monitored"]),
            "seconds_taps": min(replays),
            "tap_events": len(tap_log),
        }

    # ------------------------------------------------------------------
    # observability: one fully traced + metered run
    # ------------------------------------------------------------------
    def observed_run(
        self,
        pages_per_class: int = 20,
        workers: int | None = None,
        backend: str = "thread",
        trace_out: str | None = None,
        metrics_out: str | None = None,
        clock=None,
    ) -> dict:
        """One end-to-end batch run with live tracing and metrics.

        Builds a :class:`~repro.obs.trace.Tracer` and
        :class:`~repro.obs.metrics.MetricsRegistry`, threads them
        through every instrumented layer — a breaker-guarded search
        engine, a :class:`~repro.resilience.ResilientBrowser`, the full
        :class:`~repro.core.pipeline.KnowYourPhish` pipeline — and
        analyzes the ext-robustness workload (English legitimate +
        phishTest starting URLs).  Analysis-cache counters are bridged
        into the registry at the end, then the span/metric artifacts are
        written when paths are given; ``repro obs report`` reconstructs
        per-stage timing, verdict tallies, cache hit rates and
        resilience counts from those files alone.

        ``clock`` (a :class:`~repro.resilience.Clock`) is injectable so
        tests can pin span durations; defaults to the monotonic system
        clock.  Verdicts are bit-identical to an uninstrumented run —
        observability never perturbs the pipeline.
        """
        from repro.core.pipeline import KnowYourPhish
        from repro.obs import (
            MetricsRegistry,
            Tracer,
            write_metrics_prometheus,
            write_spans_jsonl,
        )
        from repro.resilience import (
            CircuitBreaker,
            GuardedSearchEngine,
            ResilientBrowser,
            SearchUnavailableError,
        )

        tracer = Tracer(clock=clock)
        metrics = MetricsRegistry()
        urls, _labels = self._robustness_workload(pages_per_class)

        breaker = CircuitBreaker(
            failure_threshold=3,
            failure_types=(SearchUnavailableError,),
            name="search",
            metrics=metrics,
        )
        guarded = GuardedSearchEngine(self.world.search, breaker=breaker)
        identifier = TargetIdentifier(guarded, ocr=self.ocr)
        pipeline = KnowYourPhish(
            self.detector("fall"), identifier,
            tracer=tracer, metrics=metrics,
        )
        browser = ResilientBrowser(
            self.world.web, clock=clock, tracer=tracer, metrics=metrics
        )
        pool = (
            WorkerPool(workers=workers, backend=backend)
            if workers and workers > 1 else None
        )
        try:
            report = pipeline.analyze_many(urls, browser, pool=pool)
        finally:
            if pool is not None:
                pool.close()
        if self.cache is not None:
            self.cache.fill_metrics(metrics)

        result = report.summary()
        result["span_count"] = sum(1 for _ in tracer.iter_spans())
        result["breaker_opened"] = breaker.opened_count
        if trace_out:
            result["trace_out"] = str(write_spans_jsonl(tracer, trace_out))
        if metrics_out:
            result["metrics_out"] = str(
                write_metrics_prometheus(metrics, metrics_out)
            )
        result["tracer"] = tracer
        result["metrics"] = metrics
        return result
