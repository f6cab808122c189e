// Package broken parses but does not type-check.
package broken

var n int = "not an int"
