package drc

// CheckRef exposes the reference comparison to the external tests.
var CheckRef = checkRef

// ConnectivityRef exposes the reference connectivity checker.
var ConnectivityRef = refConnectivity
