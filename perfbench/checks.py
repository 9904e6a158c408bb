"""Independent checks of CLI reports.

Each check recomputes what it can from the input by applying columns
directly (digit descent for powers), without calling the program's own
verification routines.  A check returns None when the report holds and a
one-line reason when it does not.

``classify`` sorts a finished op into decided, inconclusive or failed:
exit 0 with a clean report and the structured rejections ``periodic`` and
``precondition`` are decisions; exit 2 is inconclusive; any other exit 1,
an uncaught exception, a timeout and ``"complete": false`` are failures.
"""

from __future__ import annotations

import json
from collections import deque

DECISION_ERRORS = {"substitution/periodic", "precondition"}
CLASSIFICATIONS = {"none", "at-most-countable", "uncountable"}
VERDICTS = {"tame", "non-tame", "not-almost-automorphic", "inconclusive"}


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def classify(argv, code, report):
    """('decided' | 'inconclusive' | 'failed', reason)."""
    if code == 2:
        return "inconclusive", "exit 2"
    if code == 0:
        return "decided", "ok"
    error = report.get("error") if isinstance(report, dict) else None
    if code == 1 and error is not None:
        if error.get("code") in DECISION_ERRORS:
            return "decided", error["code"]
        return "failed", f"error {error.get('code')}"
    if code == 1 and report.get("complete") is False:
        return "failed", "complete: false"
    return "failed", f"exit {code}"


# ---------------------------------------------------------------------------
# column arithmetic


def letter_of_power(rules, a, power, index, l):
    """theta^power(a)[index]: the most significant base-l digit picks the
    first column applied."""
    digits = []
    for _ in range(power):
        index, d = divmod(index, l)
        digits.append(d)
    for d in reversed(digits):
        a = rules[a][d]
    return a


def rule_length(rules):
    return len(next(iter(rules.values())))


def column_image(rules, letters, power, index, l):
    return frozenset(letter_of_power(rules, a, power, index, l) for a in letters)


def shortest_collapse_length(rules):
    """Length of the shortest column word collapsing the alphabet, or None;
    breadth-first over letter sets."""
    full = frozenset(rules)
    if len(full) == 1:
        return 0
    l = rule_length(rules)
    dist = {full: 0}
    queue = deque([full])
    while queue:
        s = queue.popleft()
        for i in range(l):
            img = frozenset(rules[a][i] for a in s)
            if len(img) == 1:
                return dist[s] + 1
            if img not in dist:
                dist[img] = dist[s] + 1
                queue.append(img)
    return None


def subset_graph_vertices(rules):
    """The letter sets of size > 1 reached from the alphabet by columns,
    plus the alphabet."""
    full = frozenset(rules)
    l = rule_length(rules)
    seen = {full}
    stack = [full]
    while stack:
        s = stack.pop()
        for i in range(l):
            img = frozenset(rules[a][i] for a in s)
            if len(img) > 1 and img not in seen:
                seen.add(img)
                stack.append(img)
    return seen


# ---------------------------------------------------------------------------
# analyze


def check_analyze(argv, code, report, context):
    rules = json.loads(argv[1])
    if code == 1:
        require("error" in report, "exit 1 without an error object")
        return
    sub = report["substitution"]
    require(sub["rules"] == rules and sub["alphabet"] == list(rules),
            "report does not echo the input substitution")
    verdict = report["verdict"]
    require(verdict in VERDICTS, f"unknown verdict {verdict!r}")
    require((code == 2) == (verdict == "inconclusive"),
            f"exit {code} does not match verdict {verdict}")
    if verdict == "inconclusive":
        return
    base = report["pure_base"]["rules"]
    l = rule_length(rules)
    require(all(len(w) == l for w in base.values()),
            "pure base has another length")
    if report["height"] == 1:
        require(base == rules, "height 1 but the pure base differs")
    word = report["coincidence"]
    shortest = shortest_collapse_length(base)
    if word is None:
        require(shortest is None, "a collapsing word exists but none reported")
        require(verdict == "not-almost-automorphic",
                "no coincidence yet the verdict is " + verdict)
    else:
        s = frozenset(base)
        for i in word:
            s = frozenset(base[a][i] for a in s)
        require(len(s) == 1, f"coincidence word {word} does not collapse")
        require(len(word) == shortest,
                f"coincidence word of length {len(word)}, shortest {shortest}")
        shared = report["shared_vertex"]
        require(verdict == ("non-tame" if shared else "tame"),
                f"verdict {verdict} does not match the shared vertex")
    graph = report["gtheta"]
    want = {tuple(sorted(v)) for v in subset_graph_vertices(base)}
    got = {tuple(v) for v in graph["vertices"]}
    require(got == want, "subset graph vertices differ from the column closure")
    for src, dst, i in graph["edges"]:
        img = sorted({base[a][i] for a in dst})
        require(img == src, f"edge {src} <- {dst} label {i} is not a column image")


# ---------------------------------------------------------------------------
# thickness


def check_thickness(argv, code, report, context):
    if code == 1 and "error" in report:
        return
    rules = json.loads(argv[1])
    n = len(rules)
    l = rule_length(rules)
    require(code in (0, 2), f"thickness exit {code}")
    k = report["essential_thickness"]
    require(1 <= k <= n, f"essential thickness {k} outside 1..{n}")
    census = report["census"]
    require(sorted(census, key=int) == [str(c) for c in range(1, n + 1)],
            "census does not cover every cardinality")
    for kk, row in census.items():
        require(row["classification"] in CLASSIFICATIONS,
                f"unknown classification {row['classification']!r}")
        require(len(row["chain_counts"]) == 8
                and all(c >= 0 for c in row["chain_counts"]),
                "chain counts are not 8 non-negative numbers")
        if int(kk) > k:
            require(row["classification"] != "uncountable",
                    f"stratum {kk} uncountable above the essential thickness")
    if k >= 2:
        require(census[str(k)]["classification"] == "uncountable",
                "the essential stratum is not uncountable")
    witness = report["double_path"]
    require((code == 2) == (k >= 2 and witness is None),
            "exit code does not match the double-path search")
    if witness is None:
        return
    require(witness["cardinality"] == k, "witness cardinality differs from k")
    power = witness["power"]
    upper, lower = witness["upper"], frozenset(witness["lower"])
    i1, i2 = witness["labels"]
    require(len(upper) == k and len(lower) == k, "witness sets are not of size k")
    require(i1 != i2 and 0 <= i1 < l ** power and 0 <= i2 < l ** power,
            "witness labels are not two columns of the power")
    for c in (i1, i2):
        require(column_image(rules, upper, power, c, l) == lower,
                f"column {c} of power {power} does not map upper onto lower")


# ---------------------------------------------------------------------------
# independence


def check_independence(argv, code, report, context):
    if code == 1 and "error" in report:
        return
    if code == 2:
        require(report["scheme"] is None, "exit 2 with a scheme")
        return
    n_levels = int(argv[argv.index("--n") + 1])
    base = context["pure_base"](argv[1])
    scheme = report["scheme"]
    l = rule_length(base)
    m, L = scheme["power"], scheme["L"]
    j0, j1, j2, i = scheme["j0"], scheme["j1"], scheme["j2"], scheme["i"]
    a_set, b_set = frozenset(scheme["A"]), frozenset(scheme["B"])
    require(L == l ** m, "L is not l^power")
    require(0 <= j0 < j1 < j2 < L and j2 - j1 == j1 - j0 == scheme["delta"],
            "j0 < j1 < j2 is not an arithmetic progression inside L")

    def col(c, a):
        return letter_of_power(base, a, m, c, l)

    m1 = {a: col(j1, a) for a in a_set}
    require(m1 == {a: col(j2, a) for a in a_set}, "columns j1 and j2 differ on A")
    require(set(m1.values()) == a_set, "column j1 is not a bijection of A")
    require(b_set == {col(j0, a) for a in base} and b_set < a_set,
            "B is not the j0 image or not a proper subset of A")
    target = {a for a in a_set if m1[a] not in b_set}
    require({col(i, a) for a in base} <= target,
            "column i leaves the part of A that j1 moves outside B")

    times = [0]
    for t in range(1, n_levels + 1):
        times.append(times[-1] + (j1 - i) * L ** (2 * t - 1)
                     + (j1 - j0) * L ** (2 * t - 2))
    require(report["times"] == times, "independence times differ")
    depth = 2 * n_levels + 2
    patterns = report["patterns"]
    require(len(patterns) == 2 ** (n_levels + 1) * len(base),
            "not one pattern per choice function and letter")
    complete = True
    for p in patterns:
        phi = p["phi"]
        z = 0
        for lvl, bit in enumerate(phi):
            z += (j1 if bit else j0) * L ** (2 * lvl) + i * L ** (2 * lvl + 1)
        positions = [z + t for t in times]
        require(p["positions"] == positions, f"positions differ for phi {phi}")
        letters = "".join(letter_of_power(base, p["vertex"], m * depth, q, l)
                          for q in positions)
        require(p["letters"] == letters, f"letters differ for phi {phi}")
        ok = all((c in b_set) if bit == 0 else (c in a_set and c not in b_set)
                 for c, bit in zip(letters, phi))
        require(p["ok"] == ok, f"ok flag wrong for phi {phi}")
        complete = complete and ok
    require(report["complete"] == complete, "complete flag disagrees")
    require((code == 0) == complete, "exit code disagrees with complete")


# ---------------------------------------------------------------------------
# semicocycle


def d_stage_points(stage):
    """(head exponents, tail exponent) per point, by the stage recursion."""
    points = [((), 0)]
    for s in range(stage):
        m = 2 ** s
        fresh = []
        for pos, (head, tail) in enumerate(points):
            cut = m + pos
            fresh.append((tuple(head[n] if n < len(head) else tail
                                for n in range(cut)), cut))
        points.extend(fresh)
    return points


def _head_trie(stage, depth, cache):
    key = (stage, depth)
    if key not in cache:
        root = {}
        for head, tail in d_stage_points(stage):
            node = root
            for n in range(depth):
                e = head[n] if n < len(head) else tail
                node = node.setdefault(3 ** e, {})
        cache[key] = root
    return cache[key]


def _options(tokens):
    """{'--name': value} from '--name value' and '--name=value' tokens."""
    opts, key = {}, None
    for tok in tokens:
        if key is not None:
            opts[key], key = tok, None
        elif "=" in tok:
            name, _, value = tok.partition("=")
            opts[name] = value
        else:
            key = tok
    return opts


def check_semicocycle(argv, code, report, context):
    if code == 1 and "error" in report:
        return
    action = argv[1]
    opts = _options(argv[2:])
    require(code == 0, f"semicocycle {action} exit {code}")
    if action == "d-set":
        stage = int(opts["--stage"])
        want = [{"head_exponents": list(h), "tail_exponent": t}
                for h, t in d_stage_points(stage)]
        require(report["stage"] == stage and report["points"] == want,
                "D-stage points differ from the recursion")
    elif action == "window":
        stage = int(opts["--stage"])
        depth = 2 ** stage
        digits = [int(x) for x in opts["--zhat"].split(",")]
        digits += [digits[-1]] * (depth - len(digits))
        lo, hi = (int(x) for x in opts["--range"].split(":"))
        trie = _head_trie(stage, depth, context["tries"])
        word = []
        for n in range(lo, hi + 1):
            carry, node, match = n, trie, 0
            for k, d in enumerate(digits):
                carry, r = divmod(d + carry, 4 ** (k + 1))
                if node is None or r not in node:
                    break
                node = node[r]
                match = k + 1
            word.append("a" if match % 2 == 1 else "b")
        require(report["word"] == "".join(word), "window letters differ")
        require(report["zhat"] == digits and report["range"] == [lo, hi],
                "window does not echo its base point and range")
    elif action == "disjoint":
        for key in ("stage", "depth", "t_range", "samples", "seed"):
            require(report[key] == int(opts["--" + key.replace("_", "-")]),
                    f"disjoint does not echo {key}")
        require(report["violations"] == [], "disjointness violations")
        require(0 <= report["checked"] <= report["samples"], "checked count")
    elif action == "realize":
        word = opts["--word"]
        require(report["word"] == word and report["letters"] == word,
                "realized letters differ from the prescribed word")
        require(report["t_w"] > 0, "t_w is not positive")
        times = report["times"]
        require(len(times) == len(word)
                and all(a < b for a, b in zip(times, times[1:])),
                "times are not increasing")
    else:
        raise CheckFailed(f"unknown semicocycle action {action}")


CHECKS = {"analyze": check_analyze, "thickness": check_thickness,
          "independence": check_independence, "semicocycle": check_semicocycle}


def check(argv, code, report, context):
    """None when the report holds, else the reason."""
    try:
        CHECKS[argv[0]](argv, code, report, context)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
