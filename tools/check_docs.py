#!/usr/bin/env python3
"""Docs-drift guard: flags, knobs and links in docs/ must match reality.

Three checks:

1. Flag drift (default mode).  The flag reference in docs/SERVICE.md --
   everything between the `<!-- flags:begin -->` and `<!-- flags:end -->`
   markers -- must list EXACTLY the union of the flags that
   `cli_solve --help` and `batch_solve --help` print, both directions:
   a flag in the help output but not the docs fails, and a flag in the
   docs but not in any binary fails.  Both binaries print usage to
   stderr and exit 2; that is expected and accepted.

2. Knob drift (always).  The ExecConfig knob table in docs/SERVICE.md --
   the rows between the `<!-- knobs:begin -->` and `<!-- knobs:end -->`
   markers -- must name EXACTLY the data members of `struct ExecConfig`
   in src/common/exec_config.hpp, both directions: a member missing from
   the table fails, and a row naming no member fails.

3. Link integrity (always).  Every relative markdown link in every
   tracked *.md file must resolve to an existing file or directory.
   http(s)/mailto links and pure #anchors are skipped; a #fragment on a
   relative link is stripped before the existence check.  And every
   `NAME.md` mention in a file under src/, tests/, examples/ or bench/ --
   a code comment or a printed string -- must name a file of the repo: by
   its path from the repository root or from the mentioning file, or, for
   a bare name, by the file name of some *.md in the repo.

Usage:
  check_docs.py --repo ROOT --links-only
  check_docs.py --repo ROOT --cli-solve build/cli_solve --batch-solve build/batch_solve

CI runs --links-only in the format job (no build available) and the full
mode in the Release build-test leg right after the build.
"""
import argparse
import pathlib
import re
import subprocess
import sys

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MD_MENTION_RE = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)*[\w-]+\.md)\b")
CODE_DIRS = ("src", "tests", "examples", "bench")
BEGIN_MARK = "<!-- flags:begin -->"
END_MARK = "<!-- flags:end -->"
KNOBS_BEGIN = "<!-- knobs:begin -->"
KNOBS_END = "<!-- knobs:end -->"
KNOB_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|", re.MULTILINE)
EXEC_CONFIG_HPP = pathlib.Path("src") / "common" / "exec_config.hpp"
# Directories that hold generated or vendored trees, never our docs.
SKIP_DIRS = {".git", "build", "_deps", ".cache"}


def fail(msg):
    print(f"check_docs: {msg}", file=sys.stderr)
    return 1


def help_flags(binary):
    """The set of --flags a binary's usage text advertises (stderr, rc 2)."""
    proc = subprocess.run([str(binary), "--help"], capture_output=True, text=True)
    text = proc.stdout + proc.stderr
    if proc.returncode not in (0, 2) or "usage:" not in text:
        raise RuntimeError(
            f"{binary} --help exited {proc.returncode} without a usage line")
    return set(FLAG_RE.findall(text))


def marked_section(path, begin, end):
    """The text of `path` between the `begin` and `end` markers."""
    text = path.read_text(encoding="utf-8")
    if begin not in text or end not in text:
        raise RuntimeError(f"{path} lacks the {begin} / {end} markers")
    return text.split(begin, 1)[1].split(end, 1)[0]


def docs_flags(service_md):
    """The set of --flags listed between the flags:begin/end markers."""
    return set(FLAG_RE.findall(marked_section(service_md, BEGIN_MARK, END_MARK)))


def struct_members(header, struct):
    """Names of the data members of `struct NAME { ... };` in a C++ header.

    Comments are stripped and every nested brace pair (member function
    bodies, brace initializers) collapses into a `;`, innermost first, so
    the struct's own closing brace is the first one left.  A declaration
    whose text before its first `=` holds a `(` is a member function;
    every other one is a data member, named by its last identifier there.
    """
    text = re.sub(r"//[^\n]*|/\*.*?\*/", "", header.read_text(encoding="utf-8"),
                  flags=re.DOTALL)
    m = re.search(r"\bstruct\s+" + re.escape(struct) + r"\s*\{", text)
    if m is None:
        raise RuntimeError(f"{header} has no `struct {struct} {{`")
    body = text[m.end():]
    nested = re.compile(r"\{[^{}]*\}")
    while nested.search(body):
        body = nested.sub(";", body)
    members = []
    for decl in body.split("}", 1)[0].split(";"):
        head = decl.split("=", 1)[0]
        names = re.findall(r"\w+", head)
        if "(" not in head and len(names) >= 2:
            members.append(names[-1])
    return members


def check_knobs(repo):
    try:
        members = struct_members(repo / EXEC_CONFIG_HPP, "ExecConfig")
        section = marked_section(repo / "docs" / "SERVICE.md", KNOBS_BEGIN, KNOBS_END)
    except (RuntimeError, OSError) as e:
        return fail(str(e))
    documented = KNOB_ROW_RE.findall(section)
    errors = 0
    for knob in sorted(set(members) - set(documented)):
        errors += fail(f"ExecConfig::{knob} is missing from the docs/SERVICE.md knob "
                       f"table (between the knobs:begin/end markers)")
    for knob in sorted(set(documented) - set(members)):
        errors += fail(f"docs/SERVICE.md documents knob `{knob}`, which is not a "
                       f"member of ExecConfig ({EXEC_CONFIG_HPP})")
    if errors == 0:
        print(f"check_docs: knobs OK ({len(members)} ExecConfig members, docs == struct)")
    return errors


def check_flags(repo, cli_solve, batch_solve):
    service_md = repo / "docs" / "SERVICE.md"
    try:
        documented = docs_flags(service_md)
        advertised = help_flags(cli_solve) | help_flags(batch_solve)
    except (RuntimeError, OSError) as e:
        return fail(str(e))
    errors = 0
    for flag in sorted(advertised - documented):
        errors += fail(f"{flag} is in a --help but missing from docs/SERVICE.md "
                       f"(between the flags:begin/end markers)")
    for flag in sorted(documented - advertised):
        errors += fail(f"{flag} is documented in docs/SERVICE.md but no binary "
                       f"advertises it")
    if errors == 0:
        print(f"check_docs: flags OK ({len(advertised)} flags, docs == --help)")
    return errors


def markdown_files(repo):
    for path in sorted(repo.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(repo).parts):
            continue
        yield path


def check_links(repo):
    errors = 0
    checked = 0
    for md in markdown_files(repo):
        for target in LINK_RE.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (md.parent / target.split("#", 1)[0]).resolve()
            if not resolved.is_relative_to(repo):
                # Escapes the checkout (e.g. the README's ../../actions CI
                # badge, which resolves on the hosting site, not on disk).
                continue
            checked += 1
            if not resolved.exists():
                errors += fail(
                    f"{md.relative_to(repo)}: broken link -> {target}")
    if errors == 0:
        print(f"check_docs: links OK ({checked} relative links resolve)")
    return errors


def check_code_mentions(repo):
    md_names = {md.name for md in markdown_files(repo)}
    errors = 0
    checked = 0
    for top in CODE_DIRS:
        for path in sorted((repo / top).rglob("*")):
            if not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            rel = path.relative_to(repo)
            for lineno, line in enumerate(text.splitlines(), 1):
                for mention in MD_MENTION_RE.findall(line):
                    checked += 1
                    if "/" in mention:
                        ok = (repo / mention).is_file() or (path.parent / mention).is_file()
                    else:
                        ok = mention in md_names
                    if not ok:
                        errors += fail(f"{rel}:{lineno}: {mention} names no file in the repo")
    if errors == 0:
        print(f"check_docs: code mentions OK ({checked} NAME.md mentions resolve)")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", type=pathlib.Path, default=pathlib.Path("."),
                    help="repository root (default: cwd)")
    ap.add_argument("--links-only", action="store_true",
                    help="skip the flag-drift check (no binaries needed)")
    ap.add_argument("--cli-solve", type=pathlib.Path, default=None,
                    help="path to the built cli_solve binary")
    ap.add_argument("--batch-solve", type=pathlib.Path, default=None,
                    help="path to the built batch_solve binary")
    args = ap.parse_args()

    repo = args.repo.resolve()
    errors = check_links(repo) + check_code_mentions(repo) + check_knobs(repo)
    if not args.links_only:
        if not args.cli_solve or not args.batch_solve:
            return fail("full mode needs --cli-solve and --batch-solve "
                        "(or pass --links-only)")
        errors += check_flags(repo, args.cli_solve.resolve(),
                              args.batch_solve.resolve())
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
