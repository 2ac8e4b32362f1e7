// Package ign is a lint fixture for lintignore: every lint:ignore
// directive must carry a justification after its rule list and name
// rules the suite has. A bare directive is itself flagged and
// suppresses nothing, so the finding it tried to waive surfaces too.
package ign

// Unjustified carries a rule but no reason: the directive is flagged
// and the panic it tried to waive is reported anyway.
func Unjustified() {
	//lint:ignore panicfree // want lintignore
	panic("boom") // want panicfree
}

// NoRule names no rule at all.
func NoRule() {
	//lint:ignore // want lintignore
	panic("boom") // want panicfree
}

// Retired waives a rule the suite no longer has: the directive is
// flagged (the justification does not save it), so a waiver cannot
// outlive its rule.
func Retired(ch chan int) {
	//lint:ignore ctxflow the rule this waived was retired // want lintignore
	ch <- 1
}

// Justified is the well-formed escape hatch: it suppresses and is not
// itself flagged.
func Justified() {
	//lint:ignore panicfree fixture for the justified path
	panic("boom")
}
