"""Independent pure-Python reference for the split-candidate kernel.

Scores one attribute at one node with plain loops, one candidate at a
time, the way croptree did before its columnar core: rows are
(features, class_index, weight) triples, a missing value is None, and a
missing row's weight is shared between the branches in proportion to
the present weight on each side.  It imports nothing from croptree, so
``tests/test_kernel.py`` can hold the numpy kernel to it.
"""

import math

EPS = 1e-12


def attribute_candidates(rows, attr, n_classes, min_leaf):
    """All admissible thresholds for one attribute at one node.

    Returns (best_gain, [(threshold, gain, ratio), ...]) with thresholds
    strictly increasing.  A candidate is admissible when both fractional
    branch weights reach min_leaf.
    """
    present = []
    miss_counts = [0.0] * n_classes
    miss_w = 0.0
    for feats, cls, w in rows:
        v = feats[attr]
        if v is None:
            miss_counts[cls] += w
            miss_w += w
        else:
            present.append((v, cls, w))
    if len(present) < 2:
        return 0.0, []
    present.sort(key=lambda r: r[0])

    total_counts = list(miss_counts)
    for _v, cls, w in present:
        total_counts[cls] += w
    active = [c for c in range(n_classes) if total_counts[c] > 0.0]
    total_w = sum(total_counts)
    known_w = total_w - miss_w
    parent_h = 0.0
    for c in active:
        p = total_counts[c] / total_w
        parent_h -= p * math.log2(p)

    left_counts = [0.0] * n_classes
    left_known = 0.0
    best_gain = 0.0
    out = []
    i = 0
    n = len(present)
    while i < n:
        v = present[i][0]
        while i < n and present[i][0] == v:
            left_counts[present[i][1]] += present[i][2]
            left_known += present[i][2]
            i += 1
        if i == n:
            break
        # The midpoint, unless it rounds onto the upper value (adjacent
        # doubles) or overflows: then the lower value itself.
        threshold = (v + present[i][0]) / 2.0
        if not v <= threshold < present[i][0]:
            threshold = v
        right_known = known_w - left_known
        frac = left_known / known_w
        lw = left_known + miss_w * frac
        rw = right_known + miss_w * (1.0 - frac)
        if lw + EPS < min_leaf or rw + EPS < min_leaf:
            continue
        hl = 0.0
        hr = 0.0
        for c in active:
            lc = left_counts[c] + miss_counts[c] * frac
            if lc > 0.0:
                p = lc / lw
                hl -= p * math.log2(p)
            rc = total_counts[c] - left_counts[c] - miss_counts[c] * frac
            if rc > 0.0:
                p = rc / rw
                hr -= p * math.log2(p)
        gain = parent_h - (lw * hl + rw * hr) / total_w
        if gain < 0.0:
            gain = 0.0
        pl = lw / total_w
        pr = rw / total_w
        ratio = gain / -(pl * math.log2(pl) + pr * math.log2(pr))
        if gain > best_gain:
            best_gain = gain
        out.append((threshold, gain, ratio))
    return best_gain, out
