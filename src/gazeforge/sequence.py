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


def _feasible(
    candidate: MovementLabel,
    prev: MovementLabel | None,
    remaining: dict[MovementLabel, int],
    rules: list[OrderingRule],
) -> bool:
    """Check that placing `candidate` (including any repair insertion and the
    forced follower chain) leaves enough counts for the remaining rules."""
    rem = dict(remaining)
    placed = candidate
    pred = _required_predecessor(candidate, rules)
    if pred is not None and prev != pred:
        # Repair would place the predecessor instead of the candidate.
        if rem[pred] == 0:
            return False
        placed = pred
    rem[placed] -= 1
    # Follow the forced-follower chain.
    seen = set()
    cur = placed
    while True:
        nxt = _forced_follower(cur, rules)
        if nxt is None or cur in seen:
            break
        seen.add(cur)
        if rem[nxt] == 0:
            return False
        rem[nxt] -= 1
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
    quantity of each type (uniform 1/3 in length mode). Rule conflicts are
    repaired by inserting the forced type instead; if a forced type has no
    remaining quantity the spec is reported unsatisfiable.
    """
    rules = spec.constraints
    if spec.explicit is not None:
        violated = find_violation(spec.explicit, rules)
        if violated is not None:
            raise ConstraintError(
                f"explicit sequence violates rule '{violated}'", violated
            )
        return list(spec.explicit)

    if spec.counts is not None:
        counts = {t: int(spec.counts.get(t, 0)) for t in MOVEMENT_TYPES}
        _validate_counts(counts, rules)
        seq: list[MovementLabel] = []
        remaining = dict(counts)
        while sum(remaining.values()) > 0:
            prev = seq[-1] if seq else None
            forced = _forced_follower(prev, rules)
            if forced is not None:
                if remaining[forced] == 0:
                    raise ConstraintError(
                        f"rule requires a {forced.name} after {prev.name} "
                        "but none remain"
                    )
                seq.append(forced)
                remaining[forced] -= 1
                continue
            cands = [
                t
                for t in MOVEMENT_TYPES
                if remaining[t] > 0 and _feasible(t, prev, remaining, rules)
            ]
            if not cands:
                raise ConstraintError(
                    "no movement type can be placed without violating a rule"
                )
            t = _weighted_choice(cands, [float(remaining[c]) for c in cands], rng)
            pred = _required_predecessor(t, rules)
            if pred is not None and prev != pred:
                seq.append(pred)
                remaining[pred] -= 1
            else:
                seq.append(t)
                remaining[t] -= 1
        violated = find_violation(seq, rules)
        if violated is not None:
            raise ConstraintError(f"generated sequence violates '{violated}'", violated)
        return seq

    # Length mode: equal probability per type each draw; rules still enforced.
    seq = []
    while len(seq) < spec.length:
        prev = seq[-1] if seq else None
        forced = _forced_follower(prev, rules)
        if forced is not None:
            seq.append(forced)
            continue
        t = _weighted_choice(list(MOVEMENT_TYPES), [1.0, 1.0, 1.0], rng)
        pred = _required_predecessor(t, rules)
        if pred is not None and prev != pred:
            seq.append(pred)
        else:
            seq.append(t)
    # Trim cannot help a trailing AFTER_EACH head; append its follower instead.
    prev = seq[-1]
    forced = _forced_follower(prev, rules)
    if forced is not None:
        seq.append(forced)
    return seq
