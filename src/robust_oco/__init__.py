"""Corruption-robust unconstrained online convex optimization.

Learners that keep comparator-adaptive regret guarantees when the observed
gradients are adversarially corrupted, together with the corruption
generators, lower-bound constructions, and the experiment harness used to
exercise them.
"""
