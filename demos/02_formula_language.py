"""The pivot formula language: 96 atoms, classical connectives, exact counts.

An atom pairs one of the eight factors (h s e hy k p d m) with one of the
twelve signatures (-!!! -!! -! - 0 + +! +!! +!!! +-_! +- +-^!).  Formulas
combine atoms with ! & | -> <-> plus TRUE and FALSE.  Model sets live in
a space of 12^8 = 429,981,696 profiles, yet all the operations below are
symbolic: sets are unions of disjoint signature boxes, never member lists.
"""

from mbti_szondi import (
    count_restricted,
    entails,
    equivalent,
    models,
    parse_formula,
    render_formula,
    satisfiable,
)

print("== parsing and rendering ========================================")

print("1. precedence is ! over & over | over -> over <-> ...")
formula = parse_formula("h+ & !k-  |  p+! -> m0")
print(f"   input:     h+ & !k-  |  p+! -> m0")
print(f"   canonical: {render_formula(formula)}")

print("2. arrows are sugar; the canonical form uses only ! & | ...")
for text in ("h+ -> k-", "h+ <-> k-"):
    print(f"   {text:<12} = {render_formula(parse_formula(text))}")

print()
print("== exact model counting =========================================")

print("3. one atom pins one factor and frees the other seven...")
atom = parse_formula("hy-")
print(f"   hy-: {models(atom).count():,} models (= 12^7 = {12**7:,})")

print("4. counts compose the way the logic does...")
conj = parse_formula("hy- & k+")
disj = parse_formula("hy- | k+")
n_conj = models(conj).count()
n_disj = models(disj).count()
print(f"   hy- & k+: {n_conj:,}")
print(f"   hy- | k+: {n_disj:,}")
print(f"   inclusion-exclusion: {2 * 12**7:,} - {n_conj:,} = {2*12**7 - n_conj:,}")

print("5. negation works too; complements of box unions are box unions...")
negated = parse_formula("!(hy- | k+)")
print(f"   !(hy- | k+): {models(negated).count():,}")
print(f"   total check: {n_disj + models(negated).count():,} = 12^8")

print()
print("== decision procedures ==========================================")

print("6. entailment and equivalence are subset tests on model sets...")
stronger = parse_formula("h+ & k-")
weaker = parse_formula("h+ | k-")
print(f"   (h+ & k-) entails (h+ | k-): {entails(stronger, weaker)}")
print(f"   converse:                    {entails(weaker, stronger)}")
demorgan_left = parse_formula("!(h+ | k-)")
demorgan_right = parse_formula("!h+ & !k-")
print(f"   De Morgan holds:             {equivalent(demorgan_left, demorgan_right)}")

print("7. satisfiability is emptiness of the model set...")
print(f"   h+ & h-:   {satisfiable(parse_formula('h+ & h-'))}")
print(f"   h+ | h-:   {satisfiable(parse_formula('h+ | h-'))}")

print("8. model sets are disjoint signature boxes...")
boxed = models(parse_formula("(h+ | h+-) & (k- | k+- | k+-^!)"))
print(f"   {boxed!r}")
for position, box in enumerate(boxed.boxes, start=1):
    print(f"   box {position}: {' '.join(box.to_tokens())}")

print("9. an independent route agrees: reduced-universe enumeration...")
f = parse_formula("(h+ | h+-) & (k- | k+- | k+-^!)")
print(f"   symbolic count:   {models(f).count():,}")
print(f"   enumerated count: {count_restricted(f):,}")
