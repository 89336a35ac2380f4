"""Words in a and b, evaluated in a model: the tests' own check of oracle verdicts."""

from freecert.models import ActionModel, Word


def evaluate(model: ActionModel, word: Word, a: Word, b: Word) -> Word:
    """The element ``word`` (letters +-1 for a, +-2 for b) with a, b substituted."""
    subs = {1: a, -1: model.inverse(a), 2: b, -2: model.inverse(b)}
    out: Word = ()
    for l in word:
        out = model.compose(out, subs[l])
    return out
