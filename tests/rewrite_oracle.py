"""The paper's definitional normal ordering, kept as a test oracle: a
worklist of words rewritten by DX -> XD + 1 until none is left."""


def inversions(letters: str) -> int:
    # number of (D, X) pairs with the D to the left of the X
    inv = 0
    xs_seen = 0
    for gen in reversed(letters):
        if gen == "X":
            xs_seen += 1
        else:
            inv += xs_seen
    return inv


def rewrite_normal_order(letters: str) -> dict[tuple[int, int], int]:
    """Normal form {(k, l): c} of a word, by the rewrite DX -> XD + 1.

    A worklist rewrites the leftmost DX adjacency of each pending word into
    the swapped word plus the word with the pair deleted.  Every rewrite
    strictly lowers the number of (D, X) inversions, so this terminates in
    the unique form sum c[k,l] X^k D^l.  Pending words are bucketed by
    inversion count and drained top-down, so each distinct word is rewritten
    once with its accumulated multiplicity.
    """
    levels: dict[int, dict[str, int]] = {inversions(letters): {letters: 1}}
    out: dict[tuple[int, int], int] = {}
    while levels:
        top = max(levels)
        bucket = levels.pop(top)
        if top == 0:
            # inversion-free words are already X^k D^l
            for word, mult in bucket.items():
                key = (word.count("X"), word.count("D"))
                out[key] = out.get(key, 0) + mult
            continue
        for word, mult in bucket.items():
            cut = word.find("DX")
            swapped = word[:cut] + "XD" + word[cut + 2 :]
            dropped = word[:cut] + word[cut + 2 :]
            sub = levels.setdefault(top - 1, {})
            sub[swapped] = sub.get(swapped, 0) + mult
            sub = levels.setdefault(inversions(dropped), {})
            sub[dropped] = sub.get(dropped, 0) + mult
    return out
