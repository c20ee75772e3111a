"""Process-global RNG laundering helpers (bad_dom106.py's supply chain)."""

import random


def draw():
    return random.random()


def reroll():
    return draw() * 2.0
