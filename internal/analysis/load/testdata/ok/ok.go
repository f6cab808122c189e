// Package ok is a well-typed fixture with one standard-library import.
package ok

import "strings"

// Upper is the fixture's one declaration.
func Upper(s string) string { return strings.ToUpper(s) }
