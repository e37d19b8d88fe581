"""Ordered eye-movement type sequences with quantity weighting and ordering rules."""
from __future__ import annotations

from .core import RandomSource
from .errors import ConstraintError
from .params import MovementLabel, OrderingRule, SequenceSpec

MOVEMENT_TYPES = (
    MovementLabel.FIXATION,
    MovementLabel.SACCADE,
    MovementLabel.SMOOTH_PURSUIT,
)


def find_violation(
    seq: list[MovementLabel], rules: list[OrderingRule]
) -> OrderingRule | None:
    """Return the first rule the sequence violates, or None."""
    for rule in rules:
        for i, t in enumerate(seq):
            if rule.kind == OrderingRule.AFTER_EACH and t == rule.first:
                if i + 1 >= len(seq) or seq[i + 1] != rule.second:
                    return rule
            if rule.kind == OrderingRule.BEFORE and t == rule.second:
                if i == 0 or seq[i - 1] != rule.first:
                    return rule
    return None


def _table(rules: list[OrderingRule]) -> tuple[dict, dict]:
    """Each type's forced follower (`after_each`) and required predecessor
    (`before`); the first rule that names a type decides."""
    follower, predecessor = {}, {}
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            follower.setdefault(rule.first, rule.second)
        else:
            predecessor.setdefault(rule.second, rule.first)
    return follower, predecessor


def _placed(t: MovementLabel, prev: MovementLabel | None, predecessor: dict) -> MovementLabel:
    """What a draw of `t` after `prev` places: `t`, or the first type up its
    chain of required predecessors whose own predecessor is `prev` (or that
    needs none). The walk is bounded, so a cycle of BEFORE rules cannot loop."""
    for _ in MOVEMENT_TYPES:
        pred = predecessor.get(t)
        if pred is None or pred == prev:
            return t
        t = pred
    return t


def _shortfall(remaining: dict, rules: list[OrderingRule], tail=None) -> OrderingRule | None:
    """The first rule that the remaining counts cannot meet, or None. Each `first` of an
    `after_each` rule needs a `second` after it, and each `second` of a `before` rule a
    `first` before it, which the `tail` already placed can be for one of them."""
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            if remaining[rule.second] < remaining[rule.first]:
                return rule
        elif remaining[rule.first] < remaining[rule.second] - (tail == rule.first):
            return rule
    return None


def _feasible(placed: MovementLabel, remaining: dict, rules: list[OrderingRule],
              follower: dict) -> bool:
    """Check that placing `placed` (a draw as `_placed` repairs it), then its
    chain of forced followers, leaves enough counts for each remaining rule."""
    rem = dict(remaining)
    cur = placed
    seen = set()
    while True:
        if rem[cur] == 0:
            return False
        rem[cur] -= 1
        nxt = follower.get(cur)
        if nxt is None or cur in seen:
            break
        seen.add(cur)
        cur = nxt
    return _shortfall(rem, rules, cur) is None


def _weighted_choice(
    candidates: list[MovementLabel],
    weights: list[float],
    rng: RandomSource,
) -> MovementLabel:
    total = sum(weights)
    u = rng.uniform() * total
    acc = 0.0
    for c, w in zip(candidates, weights):
        acc += w
        if u < acc:
            return c
    return candidates[-1]


def build_sequence(spec: SequenceSpec, rng: RandomSource) -> list[MovementLabel]:
    """Build a movement-type sequence honoring counts and ordering rules.

    Free positions are drawn with probability proportional to the remaining
    quantity of each type (uniform 1/3 in length mode). A draw places its
    chain of required predecessors first (`_placed`), and forced followers
    come next. A sequence that still breaks a rule raises ConstraintError.
    """
    rules = spec.constraints
    if spec.explicit is not None:
        violated = find_violation(spec.explicit, rules)
        if violated is not None:
            raise ConstraintError(f"explicit sequence violates rule '{violated}'", violated)
        return list(spec.explicit)

    follower, predecessor = _table(rules)
    seq: list[MovementLabel] = []
    if spec.counts is not None:
        remaining = {t: int(spec.counts.get(t, 0)) for t in MOVEMENT_TYPES}
        short = _shortfall(remaining, rules)
        if short is not None:
            a, b = short.first, short.second
            needed, needing = (b, a) if short.kind == OrderingRule.AFTER_EACH else (a, b)
            raise ConstraintError(
                f"rule '{short}' unsatisfiable: not enough {needed.name} for {needing.name}", short
            )
        while sum(remaining.values()) > 0:
            prev = seq[-1] if seq else None
            t = follower.get(prev)
            if t is None:
                cands = [c for c in MOVEMENT_TYPES if remaining[c] > 0
                         and _feasible(_placed(c, prev, predecessor), remaining, rules, follower)]
                if not cands:
                    raise ConstraintError(
                        "no movement type can be placed without violating a rule"
                    )
                weights = [float(remaining[c]) for c in cands]
                t = _placed(_weighted_choice(cands, weights, rng), prev, predecessor)
            else:
                assert remaining[t] > 0, "_feasible kept a count for each forced follower"
            seq.append(t)
            remaining[t] -= 1
    else:
        # Length mode: equal probability per type each draw.
        while len(seq) < spec.length:
            prev = seq[-1] if seq else None
            t = follower.get(prev)
            if t is None:
                t = _weighted_choice(list(MOVEMENT_TYPES), [1.0, 1.0, 1.0], rng)
                t = _placed(t, prev, predecessor)
            seq.append(t)
        # The last type's chain of forced followers ends the sequence.
        for _ in MOVEMENT_TYPES:
            t = follower.get(seq[-1])
            if t is None:
                break
            seq.append(t)
    violated = find_violation(seq, rules)
    if violated is not None:
        raise ConstraintError(f"generated sequence violates '{violated}'", violated)
    return seq
