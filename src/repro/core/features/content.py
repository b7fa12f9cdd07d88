"""Feature set f5: 5 webpage-content features.

Term counts of text and title, plus counts of input fields, images and
IFrames (Section IV-B): phishing pages tend to carry little text, more
externally loaded HTML/images, and input fields to harvest credentials.
This module holds the layout; :func:`repro.core.features.batch.f5_block`
computes the values.
"""

from __future__ import annotations

N_FEATURES = 5


def feature_names() -> list[str]:
    """Stable names for the 5 f5 features."""
    return [
        "f5.text_terms",
        "f5.title_terms",
        "f5.input_count",
        "f5.image_count",
        "f5.iframe_count",
    ]
