"""Term lists of the tests written out in the notation, so that a case drawn
as (name, outcome index or None) pairs can be evaluated as an expression,
and the joint of a batch's labels that the acquisition scores are written
over.

Identifiers resolve to variables case-insensitively, so an untied name is
written with its first letter upper-cased and a tied one lower-cased.  The
tests' supports are "0", "1", ..., so an outcome index is also its label.
"""

from discinfo import JointDistribution, Variable


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


def batch_joint(m, post, xs):
    """The joint p(Omega, Y1..Yk, Y) over the labels of the inputs xs, the
    last one's label named Y; the labels are independent given Omega."""
    cells = post.probs
    for x in xs:
        cells = cells[..., None] * m.likelihood[:, x, :].reshape(
            (len(post.probs),) + (1,) * (cells.ndim - 1) + (m.n_labels,))
    names = [f"Y{i}" for i in range(1, len(xs))] + ["Y"]
    return JointDistribution(
        (Variable("Omega", m.hypotheses),) + tuple(Variable(n, m.labels) for n in names), cells)


def batch_gains(k, observed):
    """The label names of :func:`batch_joint` for k earlier inputs, and the
    gain of the batch in both orders, I[Omega; Y1, .., Yk, Y] and
    I[Y1, .., Yk, Y; Omega], with the labels tied (y1, .., yk, y) if
    ``observed``."""
    names = [f"Y{i}" for i in range(1, k + 1)] + ["Y"]
    labels = ", ".join(n.lower() if observed else n for n in names)
    return names, f"I[Omega; {labels}]", f"I[{labels}; Omega]"
