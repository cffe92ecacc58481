"""Randomized verification of the connection's laws, with teeth.

The two polarity maps form an antitone Galois connection, and the suites
below re-check the defining properties on random inputs every time: the
biconditional, antitonicity on both sides, and the inflationary closures.
To show the checks can actually fail, the last section swaps the set
translation from conjunction to disjunction and watches the theorem break.
"""

from mbti_szondi import (
    Interpretation,
    builtin_interpretation,
    disj,
    run_verification,
    verify_theorem,
)

interp = builtin_interpretation()

print("== the honest run ===============================================")

print("1. all three suites at 300 trials...")
report = run_verification(interp, "all", trials=300, seed=20260823)
print()
print(report.render())
print()

print("2. the report serializes for scripting...")
payload = report.to_payload()
print(f"   suite={payload['suite']} passed={payload['passed']}")
print(f"   checks: {[c['name'] for c in payload['checks']]}")

print()
print("== a broken translation is caught ===============================")

print("3. replace conjunction over members with disjunction...")


class BrokenLift(Interpretation):
    """The same sixteen rows, but a set translates to the OR of its rows."""

    def lift(self, indicators):
        return disj(self.row(i) for i in sorted(set(indicators)))


broken = BrokenLift(dict(interp.rows), interp.basic)
(check,) = verify_theorem(broken, trials=1000, seed=7)
print(f"   passed: {check.passed}")
print(f"   witness: {check.witness}")
print()
print("   The witness is a concrete (I, P) pair: every profile in P")
print("   satisfies the disjunction, yet some indicator in I has a row")
print("   one of them violates, so the biconditional's two sides split.")
