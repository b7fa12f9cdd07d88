"""Tiered-serving benchmark: the triage ladder must pay for itself.

Offers the identical 3x-overload Zipf workload to the untriaged
full-pipeline engine and to the tiered engine (URL-only tier-0
pre-filter + content-hash verdict memo + negative cache), both in
simulated time on a :class:`~repro.resilience.ManualClock`.  Service
times are the engine's modelled costs (an analysis, 10% of it per memo
hit, 1% per tier-0 decision), so the latency and throughput figures
follow from those ratios rather than from measured stage times.

The assertions are the triage ladder's contract:

* **fast** — tier-0 resolution cuts p50 latency by >= 5x and raises
  sustained throughput on a workload whose obvious majority never
  needs a page load;
* **majority at tier 0** — the calibrated two-sided band resolves
  most requests without escalation;
* **correct** — every *escalated* verdict is byte-identical to the
  offline full-pipeline reference (triage skips work, never changes
  it), and corpus-level precision/recall is no worse than the
  untriaged configuration;
* **deterministic** — two runs produce byte-identical results.
"""


def _scenario(lab):
    result = lab.serving_tiered_benchmark()
    report = result["tiered"]["report"]
    # The run only means something if the ladder actually engaged.
    assert report["tiers"]["tier0"]["count"] > 0, "tier 0 never fired"
    assert result["untriaged"]["completed"] > 0, "baseline served nothing"
    return result


def test_serving_tiered_contract(lab, save_result, save_json):
    """The acceptance properties of the tiered serving scenario."""
    result = _scenario(lab)

    # 1. Every request terminates in both configurations.
    assert result["untriaged"]["report"]["total"] == result["requests"]
    assert result["tiered"]["report"]["total"] == result["requests"]

    # 2. Tier 0 resolves the obvious majority of the Zipf workload.
    assert result["triage"]["tier0_share"] >= 0.5

    # 3. >= 5x p50 latency cut and strictly higher sustained
    #    throughput than the untriaged engine on the same schedule.
    assert result["p50_speedup"] >= 5.0
    assert (
        result["tiered"]["throughput_rps"]
        > result["untriaged"]["throughput_rps"]
    )

    # 4. Escalation changes nothing: escalated verdicts byte-identical
    #    to the offline full-pipeline reference.
    assert result["escalated_verdict_mismatches"] == 0

    # 5. The ladder never trades accuracy for speed: corpus-level
    #    precision/recall at least match the untriaged configuration.
    quality = result["quality"]
    assert (
        quality["tiered"]["precision"] >= quality["untriaged"]["precision"]
    )
    assert quality["tiered"]["recall"] >= quality["untriaged"]["recall"]

    save_json("serving_tiered", result)
    rows = [
        ("requests", result["requests"]),
        ("tier0_share", f"{result['triage']['tier0_share']:.3f}"),
        ("escalation_rate",
         f"{result['triage']['corpus_escalation_rate']:.3f}"),
        ("untriaged_p50", f"{result['untriaged']['latency_p50']:.4f}s"),
        ("tiered_p50", f"{result['tiered']['latency_p50']:.4f}s"),
        ("p50_speedup", f"{result['p50_speedup']:.1f}x"),
        ("untriaged_rps", f"{result['untriaged']['throughput_rps']:.1f}"),
        ("tiered_rps", f"{result['tiered']['throughput_rps']:.1f}"),
        ("escalated_mismatches", result["escalated_verdict_mismatches"]),
        ("tiered_precision", f"{quality['tiered']['precision']:.3f}"),
        ("tiered_recall", f"{quality['tiered']['recall']:.3f}"),
    ]
    save_result(
        "serving_tiered",
        "\n".join(f"{key:>22}  {value}" for key, value in rows),
    )


def test_serving_tiered_deterministic(lab):
    """Two full tiered runs produce byte-identical results."""
    assert _scenario(lab) == _scenario(lab)
