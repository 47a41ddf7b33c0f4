// Package maporder exercises the maporder analyzer: map-range bodies
// that accumulate floats, leak append order, perform I/O, or leave the
// range early are positives; per-key writes, integer counting, slices
// sorted afterwards (directly, through an alias, or through a range
// value), breaks of inner loops and switches, and returns inside
// function literals are negatives.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

func floatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `float accumulation into "total"`
	}
	return total
}

func floatSumPlain(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `float accumulation into "total"`
	}
	return total
}

func intCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // integers commute: no diagnostic
	}
	return n
}

func perKey(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] += v * 2 // per-key write: each key visited once
	}
	return out
}

func escaping(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `"keys" is appended to in map iteration order`
	}
	return keys
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedAlias(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	out := vals
	sort.Ints(out)
	return out
}

func sortedBuckets(m map[int]int) [][]int {
	var buckets [][]int
	for k, v := range m {
		buckets = append(buckets, []int{k, v})
	}
	// One-level derivation: sorting through the range value clears the
	// diagnostic (the dagdelay bucket-mirror idiom).
	for _, b := range buckets {
		sort.Ints(b)
	}
	return buckets
}

func printing(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside a map-range body`
	}
}

func writing(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `WriteString on an io\.Writer inside a map-range body`
	}
	return b.String()
}

func allowed(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v //rapidlint:allow maporder — fixture: tolerance-checked aggregate, order error below epsilon
	}
	return total
}

// firstHelpful is the eviction-sweep shape: the candidates sit in a
// set and the loop stops at the first one that helps, so which one is
// kept depends on the iteration order.
func firstHelpful(candidates map[int]bool, helps func(int) bool) int {
	kept := -1
	for c := range candidates {
		if helps(c) {
			kept = c
			break // want `break ends a map range`
		}
	}
	return kept
}

func firstMatch(m map[string]int, v int) string {
	for k, x := range m {
		if x == v {
			return k // want `return inside a map-range body`
		}
	}
	return ""
}

func labeledOuter(m map[string][]int) int {
	n := 0
outer:
	for _, xs := range m {
		for _, x := range xs {
			if x < 0 {
				break outer // want `break ends a map range`
			}
			n += x
		}
	}
	return n
}

func innerBreaks(m map[string][]int) int {
	n := 0
	for _, xs := range m {
		for _, x := range xs {
			if x < 0 {
				break // ends the inner slice loop only
			}
			n += x
		}
		switch len(xs) {
		case 0:
			break // ends the switch only
		default:
			n++
		}
	inner:
		for i := 0; i < len(xs); i++ {
			if xs[i] == 0 {
				break inner // the label names a loop inside the body
			}
		}
	}
	return n
}

func literalReturn(m map[string]int) int {
	n := 0
	for _, v := range m {
		double := func() int { return 2 * v } // leaves the literal only
		n += double()
	}
	return n
}
