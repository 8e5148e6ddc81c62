#!/usr/bin/env python3
"""Cache-key completeness lint.

ExperimentRunner caches RunResults (in memory and in the persistent
ResultStore) under ExperimentRunner::cacheKey, whose SystemConfig part
is every keyed entry of the one field list, forEachField in
src/sim/system_config.hh. A behavior field missing from that list
would silently serve stale results: two configs that simulate
differently would collapse onto one cache cell. The lint checks:

  1. every data member of SystemConfig, with the members of nested
     config structs (NocConfig, PartitionedNucaConfig) expanded to
     dotted paths, is bound by exactly one `visit("key", c.<path>, ...)`
     entry of the list;
  2. no entry binds a path that is not such a member;
  3. every study knob of the `knobs[]` table in src/sim/overrides.cc
     (`{"name", "type", rule, "reason"}`) carries a one-line reason why
     the cache key, which sees only SystemConfig, may leave it out;
  4. cacheKey (src/sim/experiment_runner.cc) builds its SystemConfig
     part through forEachField and names no `cfg.` member itself.

Stdlib-only; runs as a ctest case (see CMakeLists.txt) and in CI.
Exit status: 0 clean, 1 findings, 2 usage/parse error.
"""

import argparse
import os
import re
import sys

SYSTEM_CONFIG = os.path.join("src", "sim", "system_config.hh")
OVERRIDES = os.path.join("src", "sim", "overrides.cc")
RUNNER = os.path.join("src", "sim", "experiment_runner.cc")

MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?([A-Za-z_][\w:<>,\s]*?)\s+"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*)?;\s*$")
ENTRY_RE = re.compile(
    r'\bvisit\(\s*"([^"]*)"\s*,\s*c\.([\w.]+)\s*,(.*?)\);\s*$',
    re.S | re.M)
KNOB_RE = re.compile(
    r'\{\s*"(\w+)"\s*,\s*"\w+"\s*,(.*?)\}\s*(?:,|\Z)', re.S)
REASON_RE = re.compile(r',\s*((?:"(?:[^"\\]|\\.)*"\s*)+)$')


class ParseError(Exception):
    pass


def read(repo, rel):
    with open(os.path.join(repo, rel), encoding="utf-8") as f:
        return re.sub(r"//[^\n]*", "",
                      re.sub(r"/\*.*?\*/", " ", f.read(), flags=re.S))


def braced(text, opening):
    """The brace-balanced body after the first match of `opening`."""
    m = re.search(opening + r"[^{;]*\{", text)
    if m is None:
        return None
    depth, i = 1, m.end()
    while i < len(text) and depth > 0:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[m.end():i - 1]


def members(body):
    """(type, name) of each depth-0 data member of a struct body."""
    out, depth = [], 0
    for line in body.splitlines():
        m = MEMBER_RE.match(line)
        if depth == 0 and "(" not in line and m and \
                m.group(1).strip() not in ("return", "using", "typedef"):
            out.append((m.group(1).strip(), m.group(2)))
        depth = max(depth + line.count("{") - line.count("}"), 0)
    return out


def config_members(repo):
    """Dotted paths of every SystemConfig member, nested expanded."""
    body = braced(read(repo, SYSTEM_CONFIG),
                  r"\bstruct\s+SystemConfig\b")
    if body is None:
        raise ParseError(f"no struct SystemConfig in {SYSTEM_CONFIG}")
    headers = []
    for root, _dirs, names in os.walk(os.path.join(repo, "src")):
        headers += [os.path.relpath(os.path.join(root, n), repo)
                    for n in sorted(names) if n.endswith(".hh")]
    texts = [read(repo, h) for h in sorted(headers)]
    paths = []
    for type_text, name in members(body):
        bare = type_text.split("<")[0].split("::")[-1].strip()
        nested = [braced(t, r"\bstruct\s+%s\b" % re.escape(bare))
                  for t in texts]
        nested = [b for b in nested if b is not None]
        if nested and members(nested[0]):
            paths += [f"{name}.{sub}" for _t, sub in members(nested[0])]
        else:
            paths.append(name)  # Scalars, strings and enums.
    if not paths:
        raise ParseError("no SystemConfig members parsed")
    return paths


def reason_of(rest):
    """The reason of a knob entry (the string literal after its rule):
    None when absent, else text."""
    m = REASON_RE.search(rest.strip())
    if m is None:
        return None
    return "".join(re.findall(r'"((?:[^"\\]|\\.)*)"', m.group(1)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", required=True, help="repository root")
    args = parser.parse_args()
    try:
        paths = config_members(args.repo)
        body = braced(read(args.repo, SYSTEM_CONFIG), r"\bforEachField\(")
        entries = ENTRY_RE.findall(body or "")
        knob_table = braced(read(args.repo, OVERRIDES),
                            r"\bknobs\s*\[\s*\]\s*=")
        knobs = KNOB_RE.findall(knob_table or "")
        key_body = braced(read(args.repo, RUNNER),
                          r"ExperimentRunner::cacheKey\s*\(")
        if not entries:
            raise ParseError(f"no forEachField entries in {SYSTEM_CONFIG}")
        if not knobs:
            raise ParseError(f"no knobs[] entries in {OVERRIDES}")
        if key_body is None:
            raise ParseError(f"ExperimentRunner::cacheKey not in {RUNNER}")
    except (OSError, ParseError) as err:
        print(f"cache_key_lint: parse error: {err}", file=sys.stderr)
        return 2

    findings = []
    bound = [path for _key, path, _rule in entries]
    for path in paths:  # Rule 1.
        if bound.count(path) != 1:
            findings.append(
                f"SystemConfig member '{path}' is bound by "
                f"{bound.count(path)} forEachField entries (want 1)")
    for key, path, _rule in entries:  # Rule 2.
        if path not in paths:
            findings.append(
                f"entry '{key}' binds c.{path}, which is not a "
                "SystemConfig member")
    for name, rest in knobs:  # Rule 3.
        reason = reason_of(rest)
        if reason is None or not reason.strip() or "\\n" in reason:
            findings.append(f"study knob '{name}' needs a one-line reason")
    if not re.search(r"\bforEachField\(\s*cfg\b", key_body):  # Rule 4.
        findings.append("cacheKey does not key SystemConfig through "
                        "forEachField(cfg, ...)")
    for ref in sorted(set(re.findall(r"\bcfg\.(\w+)", key_body))):
        findings.append(f"cacheKey names cfg.{ref}; key SystemConfig "
                        "fields only through forEachField")

    for f in findings:
        print(f"cache_key_lint: {f}")
    if findings:
        print(f"cache_key_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"cache_key_lint: {len(paths)} members, {len(entries)} list "
          f"entries, {len(knobs)} knobs all accounted for")
    return 0


if __name__ == "__main__":
    sys.exit(main())
