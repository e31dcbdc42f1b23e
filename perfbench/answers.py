"""Known answers the benchmark checks every output against.

None of them comes from the program under test: the cube size is
47^3 by construction, the PAM answers are hand-written and confirmed
by the small reference model below (five capacity-1 places and two
exclusions, enumerated in plain Python), and the SMC sample size is the
Okamoto bound computed here.
"""

import math

from gen import CUBE_BOUND, PAM_EVENTS, SIMULATE_STEPS

CUBE_STATES = (CUBE_BOUND + 1) ** 3

# pam.mcc: (writer, reader) of each capacity-1 place, and the exclusions
PAM_PLACES = (("hydroA", "filterA"), ("hydroB", "filterB"),
              ("filterA", "fusion"), ("filterB", "fusion"), ("fusion", "detect"))
PAM_EXCLUSIONS = (("hydroA", "filterA"), ("hydroB", "filterB"))

# hand-derived: 2^5 place fillings, all reachable; no state wedges
PAM_STATES = 32
PAM_TRANSITIONS = 124

SMC_EPSILON = 0.05
SMC_DELTA = 0.05
SMC_TRACE_LEN = 64

VERIFICATION_STEPS = 4


def okamoto(epsilon, delta):
    return math.ceil(math.log(2 / delta) / (2 * epsilon * epsilon))


SMC_TRACES = okamoto(SMC_EPSILON, SMC_DELTA)


def pam_fire(state, step):
    """The successor of `state` (a tuple of place fillings) under
    `step` (a set of canonical event names), or None if rejected."""
    if not step:
        return None
    for a, b in PAM_EXCLUSIONS:
        if a in step and b in step:
            return None
    nxt = list(state)
    for i, (w, r) in enumerate(PAM_PLACES):
        if w in step and r in step:
            return None
        if w in step:
            if state[i] != 0:
                return None
            nxt[i] = 1
        elif r in step:
            if state[i] != 1:
                return None
            nxt[i] = 0
    return tuple(nxt)


def pam_steps():
    return [frozenset(e for k, e in enumerate(PAM_EVENTS) if mask >> k & 1)
            for mask in range(1, 1 << len(PAM_EVENTS))]


def pam_space():
    """Breadth-first enumeration: (states, transitions, deadlocks)."""
    init = (0,) * len(PAM_PLACES)
    seen, frontier, transitions, deadlocks = {init}, [init], 0, 0
    steps = pam_steps()
    while frontier:
        nxt = []
        for s in frontier:
            succ = [t for t in (pam_fire(s, st) for st in steps) if t is not None]
            transitions += len(succ)
            deadlocks += not succ
            for t in succ:
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(seen), transitions, deadlocks


def parse_schedule(text, inverse):
    """`a b ; c` with renamed events -> list of canonical event sets."""
    if not text.strip():
        return []
    return [frozenset(inverse[e] for e in step.split()) for step in text.split(" ; ")]


def pam_replays(schedule):
    state = (0,) * len(PAM_PLACES)
    for step in schedule:
        state = pam_fire(state, step)
        if state is None:
            return False
    return True


def check_pam_check(payload, names):
    """Problems with a `check` payload of PAM renamed by `names`
    (canonical -> actual; identity for the verbatim spec)."""
    inverse = {v: k for k, v in names.items()}
    expect = [
        ("deadlock-free", "holds", None),
        ("never((%s && %s))" % (names["hydroA"], names["filterA"]), "holds", None),
        ("eventually<=2(%s)" % names["fusion"], "violated", 2),
        ("never(%s)" % names["detect"], "violated", 4),
    ]
    props = payload.get("properties", [])
    if payload.get("kind") != "check" or payload.get("violated") is not True:
        return ["not a violated check payload"]
    if len(props) != len(expect):
        return ["expected %d properties, got %d" % (len(expect), len(props))]
    problems = []
    for got, (prop, status, steps) in zip(props, expect):
        if got.get("prop") != prop or got.get("status") != status:
            problems.append("%s: expected %s, got %s %s"
                            % (prop, status, got.get("prop"), got.get("status")))
            continue
        if status == "holds":
            if got.get("states") != PAM_STATES:
                problems.append("%s: %s states, expected %d"
                                % (prop, got.get("states"), PAM_STATES))
            continue
        mini = got.get("minimized", {})
        try:
            schedule = parse_schedule(mini.get("schedule", ""), inverse)
        except KeyError:
            problems.append("%s: witness names an unknown event" % prop)
            continue
        if mini.get("steps") != steps or len(schedule) != steps:
            problems.append("%s: minimized witness has %s steps, expected %d"
                            % (prop, mini.get("steps"), steps))
        elif not pam_replays(schedule):
            problems.append("%s: witness does not replay on PAM" % prop)
        elif prop.startswith("eventually") and any("fusion" in s for s in schedule):
            problems.append("%s: witness fires fusion" % prop)
        elif prop.startswith("never(") and "detect" not in schedule[-1]:
            problems.append("%s: witness never fires detect" % prop)
    return problems


def check_pam_simulate(payload):
    ident = {e: e for e in PAM_EVENTS}
    if payload.get("steps_taken") != SIMULATE_STEPS or payload.get("deadlocked") is not False:
        return ["simulate: %s steps, deadlocked=%s"
                % (payload.get("steps_taken"), payload.get("deadlocked"))]
    try:
        schedule = parse_schedule(payload.get("schedule", ""), ident)
    except KeyError:
        return ["simulate: unknown event in schedule"]
    if len(schedule) != SIMULATE_STEPS or not pam_replays(schedule):
        return ["simulate: schedule does not replay on PAM"]
    return []


def check_pam_explore(payload):
    got = (payload.get("states"), payload.get("transitions"), payload.get("deadlocks"),
           payload.get("truncated"))
    want = (PAM_STATES, PAM_TRANSITIONS, 0, False)
    return [] if got == want else ["explore: got %s, expected %s" % (got, want)]


def check_lint(payload):
    ok = (payload.get("kind") == "lint" and payload.get("errors") == 0
          and payload.get("warnings") == 0 and payload.get("failed") is False)
    return [] if ok else ["lint: unexpected diagnostics %s" % payload.get("diagnostics")]


def check_conformance(payload):
    ok = (payload.get("verdict") == "conforms"
          and payload.get("steps") == VERIFICATION_STEPS)
    return [] if ok else ["conformance: %s" % payload]


def check_cube(payload, names, exit_code):
    if exit_code != 0:
        return ["cube check exited %d, expected 0" % exit_code]
    expect = ["deadlock-free", "never((%s && %s))" % (names["c0"], names["e0"])]
    props = payload.get("properties", [])
    got = [(p.get("prop"), p.get("status"), p.get("states")) for p in props]
    want = [(p, "holds", CUBE_STATES) for p in expect]
    return [] if got == want else ["cube: got %s, expected %s" % (got, want)]


def check_drift_smc(payload, exit_code):
    if exit_code != 1:
        return ["drift smc exited %d, expected 1" % exit_code]
    props = payload.get("properties", [])
    if len(props) != 3:
        return ["drift smc: %d properties, expected 3" % len(props)]
    problems = []
    for p in props:
        if p.get("traces") != SMC_TRACES or p.get("verdict") != "estimated":
            problems.append("%s: %s traces (%s), expected %d estimated"
                            % (p.get("prop"), p.get("traces"), p.get("verdict"), SMC_TRACES))
    if props[0].get("prop") != "deadlock-free" or props[0].get("violations") != 0:
        problems.append("drift deadlock-free sampled a violation")
    # the release property's joint-discharge requirement fails on most
    # random schedules; a witness is at most its 8-step bound long
    release = props[2]
    if not release.get("violations") or release.get("witness", {}).get("steps", 99) > 8:
        problems.append("drift release: expected violations with a witness of <= 8 steps")
    return problems
