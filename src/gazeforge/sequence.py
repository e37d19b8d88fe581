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


def _forced_follower(
    prev: MovementLabel | None, rules: list[OrderingRule]
) -> MovementLabel | None:
    if prev is None:
        return None
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH and rule.first == prev:
            return rule.second
    return None


def _required_predecessor(
    t: MovementLabel, rules: list[OrderingRule]
) -> MovementLabel | None:
    for rule in rules:
        if rule.kind == OrderingRule.BEFORE and rule.second == t:
            return rule.first
    return None


def _placed(
    t: MovementLabel, prev: MovementLabel | None, rules: list[OrderingRule]
) -> MovementLabel:
    """What a draw of `t` after `prev` places: `t`, or the first type up its
    chain of required predecessors whose own predecessor is `prev` (or that
    needs none). The walk is bounded, so a cycle of BEFORE rules cannot loop."""
    for _ in MOVEMENT_TYPES:
        pred = _required_predecessor(t, rules)
        if pred is None or pred == prev:
            return t
        t = pred
    return t


def _feasible(
    candidate: MovementLabel,
    prev: MovementLabel | None,
    remaining: dict[MovementLabel, int],
    rules: list[OrderingRule],
) -> bool:
    """Check that placing `candidate` (as `_placed` does, then the chain of
    forced followers) leaves enough counts for each remaining rule."""
    rem = dict(remaining)
    cur = _placed(candidate, prev, rules)
    seen = set()
    while True:
        if rem[cur] == 0:
            return False
        rem[cur] -= 1
        nxt = _forced_follower(cur, rules)
        if nxt is None or cur in seen:
            break
        seen.add(cur)
        cur = nxt
    tail = cur
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            # Each remaining `first` will consume one `second` right after it.
            if rem[rule.second] < rem[rule.first]:
                return False
        else:
            slack = 1 if tail == rule.first else 0
            if rem[rule.first] < rem[rule.second] - slack:
                return False
    return True


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


def _validate_counts(counts: dict[MovementLabel, int], rules: list[OrderingRule]):
    for rule in rules:
        if rule.kind == OrderingRule.AFTER_EACH:
            if counts.get(rule.second, 0) < counts.get(rule.first, 0):
                raise ConstraintError(
                    f"rule '{rule}' unsatisfiable: not enough "
                    f"{rule.second.name} for {rule.first.name}",
                    rule,
                )
        else:
            if counts.get(rule.first, 0) < counts.get(rule.second, 0):
                raise ConstraintError(
                    f"rule '{rule}' unsatisfiable: not enough "
                    f"{rule.first.name} for {rule.second.name}",
                    rule,
                )


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
            raise ConstraintError(
                f"explicit sequence violates rule '{violated}'", violated
            )
        return list(spec.explicit)

    seq: list[MovementLabel] = []
    if spec.counts is not None:
        remaining = {t: int(spec.counts.get(t, 0)) for t in MOVEMENT_TYPES}
        _validate_counts(remaining, rules)
        while sum(remaining.values()) > 0:
            prev = seq[-1] if seq else None
            t = _forced_follower(prev, rules)
            if t is None:
                cands = [
                    c
                    for c in MOVEMENT_TYPES
                    if remaining[c] > 0 and _feasible(c, prev, remaining, rules)
                ]
                if not cands:
                    raise ConstraintError(
                        "no movement type can be placed without violating a rule"
                    )
                weights = [float(remaining[c]) for c in cands]
                t = _placed(_weighted_choice(cands, weights, rng), prev, rules)
            else:
                assert remaining[t] > 0, "_feasible kept a count for each forced follower"
            seq.append(t)
            remaining[t] -= 1
    else:
        # Length mode: equal probability per type each draw.
        while len(seq) < spec.length:
            prev = seq[-1] if seq else None
            t = _forced_follower(prev, rules)
            if t is None:
                t = _weighted_choice(list(MOVEMENT_TYPES), [1.0, 1.0, 1.0], rng)
                t = _placed(t, prev, rules)
            seq.append(t)
        # The last type's chain of forced followers ends the sequence.
        for _ in MOVEMENT_TYPES:
            t = _forced_follower(seq[-1], rules)
            if t is None:
                break
            seq.append(t)
    violated = find_violation(seq, rules)
    if violated is not None:
        raise ConstraintError(f"generated sequence violates '{violated}'", violated)
    return seq
