// Package sim is outside the floatmapsum guard.
package sim

// Total sums in map order: negative here.
func Total(loads map[string]float64) float64 {
	var total float64
	for _, l := range loads {
		total += l
	}
	return total
}
