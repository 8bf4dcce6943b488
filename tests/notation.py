"""Term lists of the tests written out in the notation, so that a case drawn
as (name, outcome index or None) pairs can be evaluated as an expression.

Identifiers resolve to variables case-insensitively, so an untied name is
written with its first letter upper-cased and a tied one lower-cased.  The
tests' supports are "0", "1", ..., so an outcome index is also its label.
"""


def termlist(terms) -> str:
    """``[("a", None), ("Y", 1)]`` (or ``["a"]``) as ``A, y=1``."""
    pairs = [(t, None) if isinstance(t, str) else t for t in terms]
    return ", ".join(n[0].upper() + n[1:] if o is None else f"{n.lower()}={o}"
                     for n, o in pairs)


def spec(letter: str, head, given=()) -> str:
    """The distribution ``letter(head | given)``."""
    return f"{letter}({termlist(head)}{' | ' + termlist(given) if given else ''})"


def divergence(kind: str, head, given=(), q_head=None, q_given=None, q: str = "q") -> str:
    """``CE`` or ``KL`` of p(head | given) against the distribution ``q``
    over the q sides, which default to the p sides."""
    q_side = spec(q, head if q_head is None else q_head, given if q_given is None else q_given)
    return f"{kind}[{spec('p', head, given)} || {q_side}]"
