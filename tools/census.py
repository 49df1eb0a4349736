#!/usr/bin/env python3
"""Linker census: library functions that no program keeps.

Build the libraries and programs with -O0 -ffunction-sections
-fkeep-inline-functions and link with -Wl,--gc-sections: every function
gets its own section, inline ones included, and the linker drops each
section no program reaches. A function defined in a library (nm
--defined-only) that no program defines is then one no program calls.

An entry of the census is such a function that
  - is a function symbol (nm type T, t, W or w);
  - is declared in namespace jetsim: its mangled name begins _ZN6jetsim
    or _ZNK6jetsim, which leaves out std:: instantiations and lambdas;
  - demangles to a name that begins with jetsim::, which leaves out
    function template instantiations (they demangle return type first);
  - is not a constructor, destructor, operator=, visitFields or InlineFn
    entry.
Its name is the demangled signature, without [abi:cxx11] tags and with
std::string spelled so.

Every entry must be named in the hook file, one per line as
"<name>  # <reason>"; a hook line that names no entry is stale. Prints
the count; exits 1 on an unlisted entry, a stale hook or a hook line
without a reason.

    census.py --hooks FILE --libs LIB.a... --programs PROGRAM...
"""

import argparse
import re
import subprocess
import sys

MANGLED = re.compile(r"_ZNK?6jetsim")
STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
          "std::allocator<char> >")


def defined(path):
    """Mangled name -> nm type of every symbol @p path defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    return {f[2]: f[1] for f in map(str.split, out.splitlines())
            if len(f) == 3}


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def special(name):
    """Constructor, destructor, operator=, visitFields or InlineFn."""
    if "visitFields" in name or "InlineFn" in name or \
            "::operator=(" in name:
        return True
    head, depth = "", 0
    for c in name.replace("(anonymous namespace)", "{anon}"):
        depth += (c == "<") - (c == ">")
        if c == "(" and depth == 0:
            break
        if depth == 0 and c != ">":
            head += c
    parts = head.split("::")
    return parts[-1].startswith("~") or parts[-1] == parts[-2]


def entries(libs, programs):
    kept = set()
    for path in programs:
        kept |= defined(path).keys()
    unreached = sorted({name for path in libs
                        for name, kind in defined(path).items()
                        if kind in "TtWw" and MANGLED.match(name)} - kept)
    return {name.replace("[abi:cxx11]", "").replace(STRING, "std::string")
            for name in demangle(unreached)
            if name.startswith("jetsim::") and not special(name)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--hooks", required=True)
    ap.add_argument("--libs", nargs="+", required=True)
    ap.add_argument("--programs", nargs="+", required=True)
    args = ap.parse_args()

    found = entries(args.libs, args.programs)
    hooks, bad = set(), []
    with open(args.hooks) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            name, _, reason = line.partition("  # ")
            hooks.add(name.strip())
            if not reason.strip():
                bad.append(f"hook without a reason: {name.strip()}")
    bad += [f"unlisted: {n}" for n in sorted(found - hooks)]
    bad += [f"stale hook: {n}" for n in sorted(hooks - found)]
    for line in bad:
        print(f"census: {line}")
    print(f"census: {len(args.programs)} programs, {len(args.libs)} "
          f"libraries, {len(found)} entries, {len(hooks)} hooks, "
          f"{len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
