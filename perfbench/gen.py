"""Seeded input generation for the MoCCML benchmark.

Everything the program under test receives is built here from the
workload seed: the drift cube (`.mcc` form of a 46-bounded,
three-channel precedence cube under a 6-ary exclusion), renamed PAM
variants, SMC seeds and the serve request stream. A SplitMix64 stream
(not Python's `random`) keeps the output byte-identical across Python
versions.
"""

import json
import os
import re

SPECS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "specs")

MASK = (1 << 64) - 1

CUBE_BOUND = 46

PAM_EVENTS = ("hydroA", "hydroB", "filterA", "filterB", "fusion", "detect")

# serve_mix request kinds with their share of the stream, in percent
MIX = (("hit", 40), ("miss", 20), ("simulate", 15), ("conformance", 10),
       ("lint", 10), ("explore", 5))

# distinct renamed PAM variants cycled through by the cache misses; far
# more than the daemon's 32-entry cache, so a reused variant still misses
MISS_VARIANTS = 256

SIMULATE_STEPS = 200


class SplitMix64:
    """The SplitMix64 generator: one 64-bit state, one output per call."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def fork(self, tag):
        """An independent stream for one purpose (`tag` is a small int)."""
        return SplitMix64(self.next() ^ (tag * 0xD1B54A32D192ED03 & MASK))


def read_spec(name):
    with open(os.path.join(SPECS, name), encoding="utf-8") as f:
        return f.read()


def fresh_names(rng, stems):
    """Maps each stem to `stem_<hex>`, a new identifier per call."""
    return {s: "%s_%04x" % (s, rng.below(0x10000)) for s in stems}


def cube(seed):
    """The drift cube for `seed`.

    Returns `(text, names)`: `names` maps the canonical events
    `c0, e0, c1, e1, c2, e2` to their seeded names. The seed renames
    every event and constraint and permutes the event list, the
    constraint order and the exclusion's arguments; the state space is
    47^3 states whatever the seed.
    """
    rng = SplitMix64(seed).fork(1)
    stems = ["c%d" % i for i in range(3)] + ["e%d" % i for i in range(3)]
    names = fresh_names(rng, stems)
    events = rng.shuffle([names[s] for s in stems])
    constraints = [
        "  constraint %s = precedes(%s, %s, %d);"
        % (fresh_names(rng, ["chan%d" % i])["chan%d" % i], names["c%d" % i],
           names["e%d" % i], CUBE_BOUND)
        for i in range(3)
    ]
    exclusion = "  constraint %s = exclusion(%s);" % (
        fresh_names(rng, ["one"])["one"], ", ".join(rng.shuffle(list(events))))
    constraints.insert(rng.below(len(constraints) + 1), exclusion)
    text = "\n".join(
        ["spec cube_%04x {" % rng.below(0x10000),
         "  events %s;" % ", ".join(events)]
        + constraints
        + ["  assert deadlock-free;",
           "  assert never((%s && %s));" % (names["c0"], names["e0"]),
           "}", ""])
    return text, names


def rename(text, names):
    """Renames whole-word event identifiers in `text`."""
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, names)))
    return pattern.sub(lambda m: names[m.group(1)], text)


def pam_variant(rng):
    """A PAM spec with every event renamed: `(text, names)`."""
    names = fresh_names(rng, PAM_EVENTS)
    return rename(read_spec("pam.mcc"), names), names


def smc_seed(seed, i):
    """The `moccml check --statistical --seed` of invocation `i`."""
    rng = SplitMix64(seed).fork(2)
    for _ in range(i):
        rng.next()
    return rng.next() >> 1


def body(obj):
    """A request object without its id, encoded as the tail of a line:
    the id is prefixed per send, so pooled bodies can be reused."""
    return json.dumps(obj, separators=(",", ":"))[1:]


class ServeMix:
    """The serve_mix request streams for one seed.

    A pool of request bodies (one per distinct request) plus, per
    client connection, a seeded sequence of pool indices, so each
    connection's line stream depends on the seed alone.
    """

    def __init__(self, seed):
        rng = SplitMix64(seed).fork(3)
        pam = read_spec("pam.mcc")
        verif = read_spec("verification.mcc")
        trace = read_spec("verification.trace")
        self.pool = []  # (kind, body, names or None)
        self.by_kind = {}

        def add(kind, obj, names=None):
            self.by_kind.setdefault(kind, []).append(len(self.pool))
            self.pool.append((kind, body(obj), names))

        add("hit", {"method": "check", "spec": pam})
        for _ in range(MISS_VARIANTS):
            text, names = pam_variant(rng)
            add("miss", {"method": "check", "spec": text}, names)
        for _ in range(64):
            add("simulate", {"method": "simulate", "spec": pam,
                             "steps": SIMULATE_STEPS, "policy": "random",
                             "seed": rng.below(1 << 31)})
        add("conformance", {"method": "conformance", "spec": verif, "trace": trace})
        add("lint", {"method": "lint", "spec": pam})
        add("explore", {"method": "explore", "spec": pam})
        self.rng = rng

    def stream(self, conn, conns=2):
        """The endless pool-index sequence sent by connection `conn` of
        `conns`: its own seeded draw of request kinds, and a disjoint
        slice of each kind's pool (so the connections never send the
        same cache-missing variant back to back)."""
        rng = SplitMix64(self.rng.state).fork(10 + conn)
        cursor = dict.fromkeys(self.by_kind, conn)
        while True:
            u = rng.below(100)
            for kind, share in MIX:
                if u < share:
                    break
                u -= share
            members = self.by_kind[kind]
            yield members[cursor[kind] % len(members)]
            cursor[kind] += conns

    def line(self, index, request_id):
        return '{"id":%s,%s\n' % (json.dumps(request_id), self.pool[index][1])
