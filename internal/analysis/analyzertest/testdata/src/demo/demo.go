// Package demo is the analyzertest self-test fixture: the test analyzer
// flags every call to a function named flagged.
package demo

func flagged() int { return 0 }

func ok() int { return 0 }

func use() int {
	a := flagged() // want `call to flagged`
	b := ok()
	return a + b + flagged() + flagged() // want "call" `to flagged`
}
