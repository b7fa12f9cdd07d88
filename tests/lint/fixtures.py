"""Flagged/clean source fixtures for every AST-scope lint rule.

``AST_FIXTURES`` maps each module-scope rule code to ``(flagged,
clean)`` snippet pairs: every ``flagged`` snippet must produce at least
one finding with exactly that code, and every ``clean`` snippet must
produce none.  The project-scope PHL3xx rules are exercised separately
in ``test_contract.py`` with tampered golden files, since their inputs
are repository state rather than source text.

The snippets live as strings (not importable modules) so the self-check
run of ``repro.lint`` over the live ``tests/`` tree does not trip over
its own test data.
"""

#: code -> (list of flagged snippets, list of clean snippets)
AST_FIXTURES: dict[str, tuple[list[str], list[str]]] = {
    "PHL101": (
        [
            "import random\nrng = random.Random()\n",
            "import random\nrng = random.Random(None)\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "from numpy.random import default_rng\nrng = default_rng()\n",
            "import random\nvalue = random.random()\n",
            "from random import choice\npick = choice([1, 2, 3])\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import random\nrng = random.SystemRandom()\n",
        ],
        [
            "import random\nrng = random.Random(42)\n",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "from numpy.random import default_rng\nrng = default_rng(seed)\n",
            "rng.random()\n",  # drawing from an existing generator
            "import numpy as np\nrng = np.random.default_rng(config.seed)\n",
        ],
    ),
    "PHL102": (
        [
            "import time\nstamp = time.time()\n",
            "import time\nstamp = time.time_ns()\n",
            "from time import time\nstamp = time()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
            "from datetime import date\ntoday = date.today()\n",
        ],
        [
            "import time\nelapsed = time.perf_counter()\n",
            "import time\nreading = time.monotonic()\n",
            "now = clock.now()\n",  # the injectable Clock interface
            "import time\ntime.sleep(0.1)\n",
        ],
    ),
    "PHL103": (
        [
            "for item in {1, 2, 3}:\n    use(item)\n",
            "for item in set(values):\n    use(item)\n",
            "out = [x for x in {v for v in values}]\n",
            "for item in set(a) | set(b):\n    use(item)\n",
            "for item in frozenset(values):\n    use(item)\n",
        ],
        [
            "for item in sorted({1, 2, 3}):\n    use(item)\n",
            "for item in sorted(set(values)):\n    use(item)\n",
            "present = value in {1, 2, 3}\n",  # membership, not iteration
            "for item in [1, 2, 3]:\n    use(item)\n",
        ],
    ),
    "PHL104": (
        [
            "import os\nnames = os.listdir(path)\n",
            "import os\nfor entry in os.scandir(path):\n    use(entry)\n",
            "for path in base.iterdir():\n    use(path)\n",
            "found = {p.stem: p for p in base.glob('*.txt')}\n",
            "for path in base.rglob('*.py'):\n    use(path)\n",
        ],
        [
            "import os\nnames = sorted(os.listdir(path))\n",
            "for path in sorted(base.glob('*.txt')):\n    use(path)\n",
            "import os\ncount = len(os.listdir(path))\n",
            "import os\npresent = set(os.listdir(path))\n",
        ],
    ),
    "PHL105": (
        [
            "key = hash(url)\n",
            "bucket = hash(name) % shards\n",
        ],
        [
            "import hashlib\nkey = hashlib.sha256(url.encode()).hexdigest()\n",
            "import zlib\nkey = zlib.crc32(url.encode())\n",
            "digest = obj.hash()\n",  # a method, not the builtin
        ],
    ),
    "PHL201": (
        [
            # Unguarded dict store in a lock-owning class.
            (
                "import threading\n"
                "class Cache:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._entries = {}\n"
                "    def put(self, key, value):\n"
                "        self._entries[key] = value\n"
            ),
            # Unguarded counter bump and container method.
            (
                "import threading\n"
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.RLock()\n"
                "        self.pending = []\n"
                "        self.hits = 0\n"
                "    def record(self, item):\n"
                "        self.hits += 1\n"
                "        self.pending.append(item)\n"
            ),
        ],
        [
            # Same mutations, correctly guarded.
            (
                "import threading\n"
                "class Cache:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._entries = {}\n"
                "    def put(self, key, value):\n"
                "        with self._lock:\n"
                "            self._entries[key] = value\n"
            ),
            # Pickling hooks run unshared and are exempt.
            (
                "import threading\n"
                "class Cache:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "    def __getstate__(self):\n"
                "        state = self.__dict__.copy()\n"
                "        del state['_lock']\n"
                "        return state\n"
                "    def __setstate__(self, state):\n"
                "        self.__dict__.update(state)\n"
                "        self._lock = threading.Lock()\n"
            ),
            # No lock attribute: the class opted out of sharing.
            (
                "class Plain:\n"
                "    def __init__(self):\n"
                "        self._entries = {}\n"
                "    def put(self, key, value):\n"
                "        self._entries[key] = value\n"
            ),
        ],
    ),
    "PHL202": (
        [
            (
                "import threading\n"
                "class Registry:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._items = []\n"
                "    def entries(self):\n"
                "        with self._lock:\n"
                "            for item in self._items:\n"
                "                yield item\n"
            ),
        ],
        [
            # Snapshot under the lock, yield after releasing it.
            (
                "import threading\n"
                "class Registry:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._items = []\n"
                "    def entries(self):\n"
                "        with self._lock:\n"
                "            snapshot = list(self._items)\n"
                "        for item in snapshot:\n"
                "            yield item\n"
            ),
        ],
    ),
    "PHL106": (
        [
            "import time\nstart = time.perf_counter()\n",
            "from time import perf_counter\nstart = perf_counter()\n",
            "import time\nreading = time.monotonic()\n",
            "import time\nstamp = time.time()\n",
        ],
        [
            "start = tracer.clock.now()\n",  # the injected clock
            "now = clock.now()\n",
            "import time\ntime.sleep(0.1)\n",  # sleeping is not timing
        ],
    ),
    "PHL401": (
        [
            "def collect(item, bucket=[]):\n    bucket.append(item)\n",
            "def tally(counts={}):\n    return counts\n",
            "def gather(*, seen=set()):\n    return seen\n",
            "def build(rows=list()):\n    return rows\n",
        ],
        [
            "def collect(item, bucket=None):\n    bucket = bucket or []\n",
            "def tally(counts=()):\n    return dict(counts)\n",
            "def label(name='default'):\n    return name\n",
        ],
    ),
    "PHL402": (
        [
            "try:\n    risky()\nexcept:\n    pass\n",
        ],
        [
            "try:\n    risky()\nexcept ValueError:\n    pass\n",
            "try:\n    risky()\nexcept Exception:\n    pass\n",
        ],
    ),
    "PHL403": (
        [
            "print('debug value', value)\n",
            "def report(rows):\n    print(rows)\n",
        ],
        [
            "import logging\nlogging.getLogger(__name__).info('value')\n",
            "text = 'print this later'\n",
        ],
    ),
    "PHL404": (
        [
            "with tracer.span('Extract F1'):\n    pass\n",
            "tracer.span('extract..f1')\n",
            "with rec.span('extract-f1') as sp:\n    sp.set(ok=True)\n",
            "tracer.span('')\n",
            "tracer.span('frobnicate.step')\n",  # unknown dotted root
            "tracer.span('qualityx.dump')\n",  # near-miss of a real root
        ],
        [
            "with tracer.span('extract.f2', metric='h'):\n    pass\n",
            "tracer.span('browse.load')\n",
            "tracer.span('extract.f{group}')\n",  # template segment
            "tracer.span('serve.triage')\n",  # tier-0 triage span
            "tracer.span('cache.snapshot')\n",  # cache counter snapshot
            "tracer.span('quality.evaluate')\n",  # SLO evaluation span
            "tracer.span('quality.drift')\n",  # drift evaluation span
            "tracer.span('frobnicate')\n",  # single segments: shape only
            "tracer.span(name)\n",  # non-literal names are dynamic
            "cell.span(2)\n",  # unrelated .span API, not a name
        ],
    ),
}

#: Path used when linting fixture snippets: inside ``src`` so no
#: per-rule path exemption (e.g. PHL403's CLI allowlist) applies, and
#: inside ``obs/`` so the instrumented-path scope of PHL106 does.
FIXTURE_PATH = "src/repro/obs/_lint_fixture.py"


#: Graph-rule fixtures: ``code -> (flagged, clean)`` where each case is
#: a mini-project (display path -> source) handed to
#: :func:`repro.lint.lint_project_sources`.  Display paths matter: the
#: PHL503 guarded-path globs match ``src/*/resilience/*``.
GRAPH_FIXTURES: dict[str, tuple[list[dict[str, str]], list[dict[str, str]]]] = {
    "PHL501": (
        [
            # Direct: deadline accepted, never touched, blocking call.
            {
                "src/repro/flowcase/direct.py": (
                    "def fetch_verdict(url, browser, deadline=None):\n"
                    "    return browser.load(url)\n"
                )
            },
            # Interprocedural: the blocking call is one frame down.
            {
                "src/repro/flowcase/chain.py": (
                    "def load_all(urls, pool, deadline=None):\n"
                    "    return run_batch(urls, pool)\n"
                    "\n"
                    "def run_batch(urls, pool):\n"
                    "    return pool.map(str, urls)\n"
                )
            },
            # Cross-module: caller and blocking helper in other files.
            {
                "src/repro/flowcase/outer.py": (
                    "from repro.flowcase.inner import run_batch\n"
                    "\n"
                    "def load_all(urls, pool, deadline=None):\n"
                    "    return run_batch(urls, pool)\n"
                ),
                "src/repro/flowcase/inner.py": (
                    "def run_batch(urls, pool):\n"
                    "    return pool.map(str, urls)\n"
                ),
            },
        ],
        [
            # Forwarded as a keyword argument.
            {
                "src/repro/flowcase/forwarded.py": (
                    "def fetch_verdict(url, browser, deadline=None):\n"
                    "    return browser.load(url, deadline=deadline)\n"
                )
            },
            # Consulted before the blocking call.
            {
                "src/repro/flowcase/checked.py": (
                    "def load_all(urls, pool, deadline=None):\n"
                    "    if deadline is not None:\n"
                    "        deadline.check('batch')\n"
                    "    return pool.map(str, urls)\n"
                )
            },
            # Accepted but nothing blocking is reachable: not a drop.
            {
                "src/repro/flowcase/harmless.py": (
                    "def score(value, deadline=None):\n"
                    "    return value + 1\n"
                )
            },
        ],
    ),
    "PHL502": (
        [
            # Two classes acquiring each other's locks in opposite
            # orders (the fuzzy cross-class edges close the cycle).
            {
                "src/repro/flowcase/pair.py": (
                    "import threading\n"
                    "\n"
                    "class Alpha:\n"
                    "    def __init__(self, beta):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.beta = beta\n"
                    "\n"
                    "    def poke(self):\n"
                    "        with self._lock:\n"
                    "            self.beta.bump()\n"
                    "\n"
                    "class Beta:\n"
                    "    def __init__(self, alpha):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.alpha = alpha\n"
                    "\n"
                    "    def bump(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                    "\n"
                    "    def cross(self):\n"
                    "        with self._lock:\n"
                    "            self.alpha.poke()\n"
                )
            },
            # Non-reentrant self-deadlock through a helper method.
            {
                "src/repro/flowcase/selfdead.py": (
                    "import threading\n"
                    "\n"
                    "class Counter:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.total = 0\n"
                    "\n"
                    "    def bump_locked(self):\n"
                    "        with self._lock:\n"
                    "            self.total += 1\n"
                    "\n"
                    "    def bump_twice(self):\n"
                    "        with self._lock:\n"
                    "            self.bump_locked()\n"
                )
            },
        ],
        [
            # Consistent order everywhere: Alpha before Beta.
            {
                "src/repro/flowcase/ordered.py": (
                    "import threading\n"
                    "\n"
                    "class Alpha:\n"
                    "    def __init__(self, beta):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.beta = beta\n"
                    "\n"
                    "    def poke(self):\n"
                    "        with self._lock:\n"
                    "            self.beta.bump()\n"
                    "\n"
                    "class Beta:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "\n"
                    "    def bump(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                )
            },
            # Re-entry through an RLock is deliberate and legal.
            {
                "src/repro/flowcase/reentrant.py": (
                    "import threading\n"
                    "\n"
                    "class Counter:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.RLock()\n"
                    "        self.total = 0\n"
                    "\n"
                    "    def bump_locked(self):\n"
                    "        with self._lock:\n"
                    "            self.total += 1\n"
                    "\n"
                    "    def bump_twice(self):\n"
                    "        with self._lock:\n"
                    "            self.bump_locked()\n"
                )
            },
        ],
    ),
    "PHL503": (
        [
            # A guarded path raising a raw builtin outside the allowlist.
            {
                "src/repro/resilience/escape.py": (
                    "def guard(flag):\n"
                    "    if flag:\n"
                    "        raise RuntimeError('upstream stalled')\n"
                )
            },
            # A third-party (dotted, non-project) exception class.
            {
                "src/repro/serve/vendor.py": (
                    "import requests\n"
                    "\n"
                    "def fetch(url):\n"
                    "    raise requests.HTTPError(url)\n"
                )
            },
        ],
        [
            # Taxonomy subclass (cross-module base resolution) and an
            # allowed programming-error builtin.
            {
                "src/repro/resilience/classified.py": (
                    "from repro.resilience.errors import ResilienceError\n"
                    "\n"
                    "class UpstreamStall(ResilienceError):\n"
                    "    pass\n"
                    "\n"
                    "def guard(flag):\n"
                    "    if flag:\n"
                    "        raise UpstreamStall('stalled')\n"
                    "    raise ValueError('bad flag')\n"
                )
            },
            # Outside the guarded paths anything goes.
            {
                "src/repro/web/free.py": (
                    "def boom():\n"
                    "    raise RuntimeError('not a guarded path')\n"
                )
            },
        ],
    ),
    "PHL504": (
        [
            # Span opened by hand, early return can leak it.
            {
                "src/repro/flowcase/leaky.py": (
                    "def serve_one(tracer, work):\n"
                    "    span = tracer.span('serve.request')\n"
                    "    if not work:\n"
                    "        return None\n"
                    "    span.__exit__(None, None, None)\n"
                    "    return work\n"
                )
            },
        ],
        [
            # The with-form closes the span on every exit.
            {
                "src/repro/flowcase/scoped.py": (
                    "def serve_one(tracer, work):\n"
                    "    with tracer.span('serve.request'):\n"
                    "        return work\n"
                )
            },
            # A bare start with no later return/raise edge.
            {
                "src/repro/flowcase/tail.py": (
                    "def start_root(tracer):\n"
                    "    tracer.span('serve.session')\n"
                )
            },
        ],
    ),
}
