"""HTML substrate: webpage-element extraction.

Provides the browser-side view of a webpage that the paper's Section II-C
relies on: title, rendered body text, outgoing HREF links, embedded
resource URLs (the "logged links" a browser would record while loading the
page), input fields, images, IFrames and the copyright notice.  The markup
is read in one linear pass that never raises (:mod:`repro.html.extract`);
no DOM tree is built.
"""

from repro.html.extract import PageElements, extract_elements, find_copyright

__all__ = [
    "PageElements",
    "extract_elements",
    "find_copyright",
]
