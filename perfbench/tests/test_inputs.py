"""Seeded input generation and the known answers.

    python3 -m unittest discover -s perfbench/tests

Needs no build: these tests check the benchmark's own code only.
"""

import hashlib
import itertools
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import answers  # noqa: E402
import gen  # noqa: E402


def stream_digest(seed, conn, count=500):
    mix = gen.ServeMix(seed)
    lines = (mix.line(i, "c%d-%d" % (conn, k))
             for k, i in enumerate(itertools.islice(mix.stream(conn), count)))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class SeededStreams(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for conn in (0, 1):
            self.assertEqual(stream_digest(7, conn), stream_digest(7, conn))
        self.assertEqual(gen.cube(7), gen.cube(7))
        self.assertEqual(gen.smc_seed(7, 3), gen.smc_seed(7, 3))

    def test_seeds_and_connections_differ(self):
        self.assertNotEqual(stream_digest(7, 0), stream_digest(8, 0))
        self.assertNotEqual(stream_digest(7, 0), stream_digest(7, 1))
        self.assertNotEqual(gen.cube(7)[0], gen.cube(8)[0])
        self.assertNotEqual(gen.smc_seed(7, 0), gen.smc_seed(7, 1))

    def test_mix_shares(self):
        mix = gen.ServeMix(3)
        kinds = [mix.pool[i][0] for i in itertools.islice(mix.stream(0), 20000)]
        for kind, share in gen.MIX:
            self.assertAlmostEqual(kinds.count(kind) / len(kinds), share / 100, delta=0.01)

    def test_misses_are_distinct_across_connections(self):
        mix = gen.ServeMix(3)
        firsts = [{i for i in itertools.islice(mix.stream(c), 200)
                   if mix.pool[i][0] == "miss"} for c in (0, 1)]
        self.assertFalse(firsts[0] & firsts[1])
        self.assertGreater(len(firsts[0]), 32, "more misses than the cache holds")


class RenamedInputsKeepTheAnswers(unittest.TestCase):
    def test_pam_variants_rename_back_to_pam(self):
        pam = gen.read_spec("pam.mcc")
        rng = gen.SplitMix64(11)
        for _ in range(50):
            text, names = gen.pam_variant(rng)
            self.assertNotEqual(text, pam)
            self.assertEqual(gen.rename(text, {v: k for k, v in names.items()}), pam)

    def test_cube_is_three_bounded_channels_under_one_exclusion(self):
        for seed in range(20):
            text, names = gen.cube(seed)
            pairs = re.findall(r"precedes\((\w+), (\w+), (\d+)\)", text)
            self.assertEqual(
                sorted(pairs),
                sorted((names["c%d" % i], names["e%d" % i], str(gen.CUBE_BOUND))
                       for i in range(3)))
            excluded = re.search(r"exclusion\(([^)]*)\)", text).group(1).split(", ")
            self.assertEqual(sorted(excluded), sorted(names.values()))
            self.assertEqual(text.count("constraint"), 4)
            self.assertIn("assert never((%s && %s));" % (names["c0"], names["e0"]), text)
            self.assertEqual(answers.CUBE_STATES, 103823)


class KnownAnswers(unittest.TestCase):
    names = {e: e for e in gen.PAM_EVENTS}

    def pam_payload(self, names, detect_witness=None):
        n = names
        return {"kind": "check", "violated": True, "properties": [
            {"prop": "deadlock-free", "status": "holds", "states": 32},
            {"prop": "never((%s && %s))" % (n["hydroA"], n["filterA"]),
             "status": "holds", "states": 32},
            {"prop": "eventually<=2(%s)" % n["fusion"], "status": "violated",
             "minimized": {"steps": 2, "schedule": "%s ; %s" % (n["hydroA"], n["hydroB"])}},
            {"prop": "never(%s)" % n["detect"], "status": "violated",
             "minimized": detect_witness or {"steps": 4, "schedule": "%s %s ; %s %s ; %s ; %s" % (
                 n["hydroA"], n["hydroB"], n["filterA"], n["filterB"], n["fusion"],
                 n["detect"])}},
        ]}

    def test_reference_model_matches_the_hand_count(self):
        self.assertEqual(answers.pam_space(),
                         (answers.PAM_STATES, answers.PAM_TRANSITIONS, 0))

    def test_pam_check_accepts_the_expected_verdicts(self):
        self.assertEqual(answers.check_pam_check(self.pam_payload(self.names), self.names), [])
        _, names = gen.pam_variant(gen.SplitMix64(5))
        self.assertEqual(answers.check_pam_check(self.pam_payload(names), names), [])

    def test_pam_check_rejects_a_witness_that_does_not_replay(self):
        bad = {"steps": 4, "schedule": "hydroA ; filterA ; fusion ; detect"}
        self.assertTrue(answers.check_pam_check(self.pam_payload(self.names, bad), self.names))

    def test_smc_budget_is_the_okamoto_bound(self):
        self.assertEqual(answers.SMC_TRACES, 738)

    def test_simulate_schedules_are_replayed(self):
        ok = {"steps_taken": 200, "deadlocked": False,
              "schedule": " ; ".join(["hydroA", "filterA", "hydroB", "filterB", "fusion",
                                      "detect"] * 33 + ["hydroA", "hydroB"])}
        self.assertEqual(answers.check_pam_simulate(ok), [])
        bad = dict(ok, schedule=" ; ".join(["hydroA"] * 200))
        self.assertTrue(answers.check_pam_simulate(bad))


if __name__ == "__main__":
    unittest.main()
