"""The backward sweep over a list of kernel calls.

Training in :mod:`.neural` records each kernel it calls as one ``(name,
parents, vjp)`` entry, in forward order: ``vjp(g)`` maps the gradient of the
loss with respect to ``name``'s value to one gradient per name in ``parents``.
"""

from __future__ import annotations


def grad(tape: list) -> dict:
    """Gradients of the last entry's value, the scalar loss, with respect to
    every name that the entries read and no entry writes.

    The seed is the Python float 1.0, which promotes no float32 gradient. A
    name that feeds several entries gets the sum of their gradients.
    """
    grads = {tape[-1][0]: 1.0}
    for name, parents, vjp in reversed(tape):
        for parent, g in zip(parents, vjp(grads.pop(name))):
            grads[parent] = grads[parent] + g if parent in grads else g
    return grads
