// Package badwant holds malformed want comments.
package badwant

var a = 1 // want `(`

var b = 2 // want unquoted

var c = 3 // want "never matched"
