// Package controller is inside the floatmapsum guard: float sums must
// not depend on map iteration order.
package controller

import "sort"

type stats struct{ total float64 }

var grand float64

// Positives: accumulators that outlive a range over a map.
func Order(loads map[string]float64, w []float64, perKey map[string]float64, s *stats, nested map[string]map[string]float64) float64 {
	var total float64
	for _, l := range loads {
		total += l          // want:floatmapsum
		grand -= l          // want:floatmapsum
		total = total + 1.5 // want:floatmapsum
		total = 2*l - total // want:floatmapsum
		s.total += l        // want:floatmapsum
		w[0] += l           // want:floatmapsum
		perKey["all"] += l  // want:floatmapsum
		for i := range w {
			w[i] += l // want:floatmapsum
		}
	}
	for _, inner := range nested {
		for _, l := range inner {
			total += l // want:floatmapsum
		}
	}
	return total
}

// Negatives: per-key accumulators, integer counts, key-indexed
// elements, slice ranges and sums in a canonical order.
func Canonical(loads map[string]float64, terms map[string][]float64, out map[string]float64) float64 {
	for k, ts := range terms {
		var total float64
		for _, t := range ts {
			total += t
		}
		out[k] += total
	}
	n := 0
	for range loads {
		n += 1
	}
	keys := make([]string, 0, len(loads))
	for k := range loads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += loads[k]
	}
	return sum + float64(n)
}

// Suppressed: a justified site. Adding 1 is exact in float64 below
// 2^53, so the count cannot depend on the order.
func Justified(loads map[string]float64) float64 {
	var hits float64
	for _, l := range loads {
		if l > 0 {
			//vet:ignore floatmapsum -- integer-valued, exact in any order
			hits += 1
		}
	}
	return hits
}
