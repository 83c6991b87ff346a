package ml

// Accuracy returns the fraction of predictions matching truth.
func Accuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hits := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}
