#!/usr/bin/env python
"""Target identification: name the brand a phish impersonates.

Walks Section V of the paper on concrete pages: keyterm extraction
(boosted prominent / prominent / OCR prominent terms), the five-step
search-engine process, and top-k target ranking — then scores the whole
phishBrand-style dataset.

Run:  python examples/target_identification.py
"""

from collections import Counter

from repro import CorpusConfig, TargetIdentifier, build_world
from repro.core.datasources import DataSources
from repro.core.keyterms import KeytermExtractor
from repro.web.ocr import SimulatedOcr


def main():
    print("Building a world with a phishBrand-style dataset...")
    config = CorpusConfig(
        leg_train=200, phish_train=60, phish_test=60, phish_brand=120,
        english_test=400, other_language_test=100,
    )
    world = build_world(config)
    ocr = SimulatedOcr(error_rate=0.02)
    identifier = TargetIdentifier(world.search, ocr=ocr)

    # ---- anatomy of one identification -------------------------------
    page = next(
        page for page in world.dataset("phishBrand") if page.target_mld
    )
    print(f"\nSuspected phish: {page.url}")
    print(f"  true target: {page.target_mld}")

    sources = DataSources(page.snapshot, ocr=ocr)
    extractor = KeytermExtractor(ocr=ocr)
    keyterms = extractor.extract(sources)
    print(f"  boosted prominent terms: {keyterms.boosted_prominent}")
    print(f"  prominent terms:         {keyterms.prominent}")
    # OCR is the slow step: identification reads it only at step 4.
    print(f"  ocr prominent terms:     {extractor.ocr_prominent(sources)}")

    result = identifier.identify(page.snapshot)
    print(f"  verdict: {result.verdict} (decided at step {result.step})")
    print(f"  ranked candidate targets: {result.targets}")

    # ---- dataset-level evaluation (Table IX) --------------------------
    print("\nScoring the full phishBrand dataset...")
    outcomes = Counter()
    total = known = 0
    for page in world.dataset("phishBrand"):
        total += 1
        if page.target_mld is None:
            outcomes["unknown target"] += 1
            continue
        known += 1
        result = identifier.identify(page.snapshot)
        if result.target_in_top(page.target_mld, 1):
            outcomes["top-1 hit"] += 1
        elif result.target_in_top(page.target_mld, 3):
            outcomes["top-3 hit"] += 1
        elif result.verdict == "legitimate":
            outcomes["wrongly confirmed legitimate"] += 1
        else:
            outcomes["missed"] += 1

    for outcome, count in outcomes.most_common():
        print(f"  {outcome:30s} {count:4d}")
    top1 = outcomes["top-1 hit"]
    top3 = top1 + outcomes["top-3 hit"]
    print(f"\n  top-1 success rate: {top1 / total:.1%}"
          f"   top-3 success rate: {top3 / total:.1%}"
          f"   (paper: 90.5% / 97.3%)")


if __name__ == "__main__":
    main()
