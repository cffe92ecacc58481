"""Authoring your own translation and having it validated.

An interpretation document is flat ``KEY = formula`` text.  Supply the ten
basic translations (E I F F! T T! N N! S S!) and the sixteen rows are
synthesized via the dominance rule; or supply all sixteen rows yourself.
Loading validates satisfiability and pairwise consistency, and every law
suite runs against whatever interpretation you hand it.
"""

from mbti_szondi import (
    InterpretationError,
    TypeIndicator,
    builtin_interpretation,
    load_interpretation,
    render_formula,
    run_verification,
)

print("== a translation on different factors ===========================")

print("1. attitudes on s instead of hy, faculties shuffled...")
document = """
# attitudes read off the s factor here
E  = s+! | s+!! | s+!!! | s+-^!
I  = s-! | s-!! | s-!!! | s+-_!
F  = h+ | h+- | h+-_!
F! = h+! | h+!! | h+!!! | h+-^!
T  = h- | h+- | h+-^!
T! = h-! | h-!! | h-!!! | h+-_!
N  = d+ | d+- | d+-_!
N! = d+! | d+!! | d+!!! | d+-^!
S  = d- | d+- | d+-^!
S! = d-! | d-!! | d-!!! | d+-_!
"""
custom = load_interpretation(document)
print(f"   fingerprint: {custom.fingerprint()[:16]}...")
print(f"   warnings:    {list(custom.warnings) or 'none'}")

print("2. rows come out of the dominance rule...")
for name in ("ISTJ", "ESTJ"):
    row = custom.row(TypeIndicator[name])
    print(f"   {name} = {render_formula(row)}")

print("3. the laws hold for this interpretation too...")
report = run_verification(custom, "theorem", trials=300, seed=5)
print(f"   theorem suite passed: {report.passed}")

print()
print("== validation has opinions ======================================")

print("4. entries that exclude each other are rejected with the pair named...")
conflicting = document.replace(
    "T! = h-! | h-!! | h-!!! | h+-_!",
    "T! = s-! | s-!!",  # collides with E on the s factor
)
try:
    load_interpretation(conflicting)
except InterpretationError as exc:
    print(f"   rejected: {exc}")

print("5. overlapping attitudes only warn...")
overlapping = document.replace(
    "I  = s-! | s-!! | s-!!! | s+-_!",
    "I  = s-! | s-!! | s-!!! | s+-_! | s+!",  # s+! sits in E as well
)
loaded = load_interpretation(overlapping)
for warning in loaded.warnings:
    print(f"   warning: {warning}")

print("6. fingerprints keep interpretations apart...")
builtin = builtin_interpretation()
print(f"   builtin: {builtin.fingerprint()[:16]}...")
print(f"   custom:  {custom.fingerprint()[:16]}...")
print(f"   loaded == builtin document round-trip: "
      f"{load_interpretation(builtin.document()).fingerprint() == builtin.fingerprint()}")
