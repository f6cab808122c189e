package drc

// CheckRef exposes the reference comparison to the external tests.
var CheckRef = checkRef
