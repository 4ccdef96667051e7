package local

// FloodMinForTest exposes the floodMin fixture to the package's external
// tests, which also run the construction algorithms.
func FloodMinForTest(rounds int) WireAlgorithm { return floodMin{t: rounds} }
