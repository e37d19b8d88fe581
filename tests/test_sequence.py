"""Sequence construction: quantity weighting and ordering rules."""
from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

from gazeforge.core import RandomSource
from gazeforge.errors import ConstraintError, ParameterError
from gazeforge.params import MovementLabel, OrderingRule, SequenceSpec
from gazeforge.sequence import build_sequence, find_violation

F = MovementLabel.FIXATION
S = MovementLabel.SACCADE
SP = MovementLabel.SMOOTH_PURSUIT


def independent_ok(seq, rules):
    """Rule evaluator written independently of the library's checker."""
    for r in rules:
        for i, t in enumerate(seq):
            if r.kind == "after_each" and t == r.first:
                if i == len(seq) - 1 or seq[i + 1] != r.second:
                    return False
            if r.kind == "before" and t == r.second:
                if i == 0 or seq[i - 1] != r.first:
                    return False
    return True


def test_single_type_counts(rng):
    seq = build_sequence(SequenceSpec(counts={F: 2}), rng)
    assert seq == [F, F]


def test_after_each_membership_in_bruteforce_set(rng):
    rules = [OrderingRule("after_each", F, S)]
    valid = {
        perm
        for perm in set(itertools.permutations([F, F, S, S]))
        if independent_ok(list(perm), rules)
    }
    assert valid  # sanity: the constraint is satisfiable
    for trial in range(50):
        seq = build_sequence(
            SequenceSpec(counts={F: 2, S: 2}, constraints=rules),
            RandomSource(trial),
        )
        assert tuple(seq) in valid


def test_first_draw_weighting():
    # remaining {F:1, S:3} -> P(S) = 0.75, chi-square-style 3-sigma bound
    n = 100_000
    rng = RandomSource(1234)
    hits = 0
    spec = SequenceSpec(counts={F: 1, S: 3})
    for _ in range(n):
        if build_sequence(spec, rng)[0] == S:
            hits += 1
    p = hits / n
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(p - 0.75) <= 3 * sigma


@pytest.mark.parametrize("trial", range(30))
def test_multiset_matches_counts(trial):
    rng = RandomSource(trial)
    counts = {
        F: int(rng.uniform() * 5),
        S: int(rng.uniform() * 5),
        SP: int(rng.uniform() * 5),
    }
    if sum(counts.values()) == 0:
        counts[F] = 1
    seq = build_sequence(SequenceSpec(counts=counts), rng)
    assert Counter(seq) == Counter(
        {k: v for k, v in counts.items() if v > 0}
    )


@pytest.mark.parametrize("trial", range(200))
def test_random_specs_with_rules(trial):
    rng = RandomSource(trial * 7 + 1)
    rules_pool = [
        [OrderingRule("after_each", F, S)],
        [OrderingRule("before", S, SP)],
        [OrderingRule("after_each", F, S), OrderingRule("before", S, SP)],
    ]
    rules = rules_pool[trial % 3]
    nf = 1 + int(rng.uniform() * 4)
    ns = nf + int(rng.uniform() * 4)  # enough saccades for the rules
    nsp = int(rng.uniform() * min(3, ns))
    counts = {F: nf, S: ns, SP: nsp}
    seq = build_sequence(SequenceSpec(counts=counts, constraints=rules), rng)
    assert independent_ok(seq, rules)
    assert find_violation(seq, rules) is None
    assert Counter(seq) == Counter({k: v for k, v in counts.items() if v > 0})


def test_unsatisfiable_counts_rejected(rng):
    rules = [OrderingRule("after_each", F, S)]
    with pytest.raises(ConstraintError) as e:
        build_sequence(SequenceSpec(counts={F: 2, S: 1}, constraints=rules), rng)
    assert "SACC" in str(e.value) or "after each" in str(e.value)


def test_explicit_returned_verbatim(rng):
    seq = [F, S, SP, F, S]
    out = build_sequence(SequenceSpec(explicit=seq), rng)
    assert out == seq


def test_explicit_violating_rule_rejected(rng):
    rules = [OrderingRule("after_each", F, S)]
    with pytest.raises(ConstraintError):
        build_sequence(SequenceSpec(explicit=[F, F, S], constraints=rules), rng)


def test_length_mode_uniform_frequencies():
    rng = RandomSource(77)
    seq = build_sequence(SequenceSpec(length=30_000), rng)
    counts = Counter(seq)
    for t in (F, S, SP):
        p = counts[t] / len(seq)
        assert abs(p - 1 / 3) < 3 * math.sqrt((1 / 3) * (2 / 3) / len(seq))


def test_length_mode_respects_rules():
    rules = [OrderingRule("after_each", F, S)]
    seq = build_sequence(SequenceSpec(length=500, constraints=rules), RandomSource(5))
    assert independent_ok(seq, rules)


def test_empty_spec_rejected():
    with pytest.raises(ParameterError):
        SequenceSpec()
    with pytest.raises(ParameterError):
        SequenceSpec(counts={F: 0})


CHAINED_BEFORE = [OrderingRule("before", F, S), OrderingRule("before", S, SP)]
CHAINED_AFTER = [OrderingRule("after_each", F, S), OrderingRule("after_each", S, SP)]


@pytest.mark.parametrize("spec", [
    SequenceSpec(length=5, constraints=CHAINED_BEFORE),
    SequenceSpec(length=5, constraints=CHAINED_AFTER),
    SequenceSpec(counts={F: 3, S: 3, SP: 3}, constraints=CHAINED_BEFORE),
    SequenceSpec(counts={F: 3, S: 3, SP: 3}, constraints=CHAINED_AFTER),
], ids=["length-before", "length-after_each", "counts-before", "counts-after_each"])
def test_chained_rules_give_valid_sequences_on_every_seed(spec):
    # A draw places its whole chain of required predecessors, and a length
    # sequence ends on the whole chain of forced followers; one step of
    # either broke a rule or raised on most of these seeds.
    for seed in range(200):
        seq = build_sequence(spec, RandomSource(seed))
        assert independent_ok(seq, spec.constraints)
        assert find_violation(seq, spec.constraints) is None
        if spec.counts is not None:
            assert Counter(seq) == Counter(spec.counts)
        else:
            assert len(seq) >= spec.length


def test_length_mode_contradicting_followers_raise_naming_the_rule():
    # Each SACC needs a FIX and an SP right after it: a seed that draws a
    # SACC cannot give a valid sequence, so it raises instead of returning.
    rules = [OrderingRule("after_each", S, F), OrderingRule("after_each", S, SP)]
    raised = 0
    for seed in range(200):
        try:
            seq = build_sequence(SequenceSpec(length=5, constraints=rules), RandomSource(seed))
        except ConstraintError as e:
            assert e.rule == rules[1] and str(rules[1]) in str(e)
            raised += 1
        else:
            assert S not in seq and independent_ok(seq, rules)
    assert raised > 0
