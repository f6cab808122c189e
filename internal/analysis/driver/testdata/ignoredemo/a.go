// Fixture for the driver's //lint:ignore handling, exercised through the
// floateq analyzer (chosen because it has no package filter).
package ignoredemo

func flagged(a, b float64) bool {
	return a == b
}

func sameLine(a, b float64) bool {
	return a == b //lint:ignore floateq exercising same-line suppression
}

func precedingLine(a, b float64) bool {
	//lint:ignore floateq exercising preceding-line suppression
	return a == b
}

func wildcard(a, b float64) bool {
	//lint:ignore * exercising wildcard suppression
	return a == b
}

func wrongAnalyzer(a, b float64) bool {
	//lint:ignore nondeterm directive names another analyzer, so floateq still fires
	return a == b
}

func malformed(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}
