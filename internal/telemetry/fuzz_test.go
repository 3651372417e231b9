package telemetry

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// FuzzSketch checks the sketch's merge algebra and quantile bounds on
// three sketches built from fuzz-drawn values (decodeSketchValues):
//
//   - Merge is associative and commutative: every grouping and order of
//     the three merges leaves the same state.
//   - The merge of all three equals one sketch that observed every
//     value: Count, Sum, Min, Max and each quantile.
//   - Merging nil or an empty sketch changes nothing, and merging into
//     an empty sketch copies.
//   - For q in sketchFuzzQs, Quantile(q) of each sketch and of the merge
//     is exact when the sorted samples' ⌈q·n⌉-th value x is below 64
//     (one bucket per integer there); above, it is at most x and within
//     the documented 1/32 relative error.
func FuzzSketch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := decodeSketchValues(data)
		all := slices.Concat(vals[:]...)
		build := func(vs []int64) *Sketch {
			s := NewSketch()
			for _, v := range vs {
				s.Observe(v)
			}
			return s
		}
		merge := func(parts ...*Sketch) *Sketch {
			s := NewSketch()
			for _, p := range parts {
				s.Merge(p)
			}
			return s
		}
		a, b, c := vals[0], vals[1], vals[2]
		sa, sb, sc := build(a), build(b), build(c)

		// merge never changes its arguments, so one copy of each part serves
		// every grouping.
		abc := merge(sa, sb, sc)
		for name, s := range map[string]*Sketch{
			"a+(b+c)": merge(sa, merge(sb, sc)),
			"(a+b)+c": merge(merge(sa, sb), sc),
			"c+b+a":   merge(sc, sb, sa),
			"b+(c+a)": merge(sb, merge(sc, sa)),
		} {
			if !reflect.DeepEqual(s, abc) {
				t.Fatalf("%s differs from a+b+c: %s", name, sketchSummary(s))
			}
		}

		one := build(all)
		if got, want := sketchSummary(abc), sketchSummary(one); got != want {
			t.Fatalf("merged %s, one sketch of every value %s", got, want)
		}

		for _, s := range []*Sketch{sa, abc} {
			before := sketchSummary(s)
			s.Merge(nil)
			s.Merge(NewSketch())
			if got := sketchSummary(s); got != before {
				t.Fatalf("merging nil or empty moved %s to %s", before, got)
			}
			if cp := merge(s); !reflect.DeepEqual(cp, s) {
				t.Fatalf("merging into an empty sketch gave %s, want %s", sketchSummary(cp), before)
			}
		}

		checkQuantiles(t, sa, a)
		checkQuantiles(t, sb, b)
		checkQuantiles(t, sc, c)
		checkQuantiles(t, abc, all)
	})
}

// sketchFuzzQs are the quantiles FuzzSketch checks, in thousandths, so
// the rank ⌈q·n⌉ is computed in integers.
var sketchFuzzQs = []int64{500, 900, 990, 999}

// checkQuantiles checks s's quantiles against the sorted values it
// observed.
func checkQuantiles(t *testing.T, s *Sketch, vals []int64) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := int64(len(sorted))
	for _, qm := range sketchFuzzQs {
		rank := max(1, (qm*n+999)/1000)
		x := sorted[rank-1]
		got := s.Quantile(float64(qm) / 1000)
		switch {
		case x < 64 && got != x:
			t.Fatalf("q=0.%03d of %d values: Quantile %d, want exactly %d", qm, n, got, x)
		case got > x:
			t.Fatalf("q=0.%03d of %d values: Quantile %d above the sample %d", qm, n, got, x)
		case x-got > x/32:
			t.Fatalf("q=0.%03d of %d values: Quantile %d more than 1/32 below the sample %d", qm, n, got, x)
		}
	}
}

// sketchSummary is what one sketch reports: Count, Sum, Min, Max and
// each checked quantile.
func sketchSummary(s *Sketch) string {
	out := fmt.Sprintf("count=%d sum=%d min=%d max=%d", s.Count(), s.Sum(), s.Min(), s.Max())
	for _, qm := range sketchFuzzQs {
		out += fmt.Sprintf(" q0.%03d=%d", qm, s.Quantile(float64(qm)/1000))
	}
	return out
}

// decodeSketchValues reads data as three bytes per value: b0%3 picks the
// sketch, and the 16-bit mantissa b1<<8|b2, placed in the top 16 bits
// and shifted right by 1+(b0/3)%63, is the value. Shifts spread values
// over every octave up to 2^63, and shifts of 58 and more give the
// exact region below 64. A short last group is dropped.
func decodeSketchValues(data []byte) [3][]int64 {
	var vals [3][]int64
	for ; len(data) >= 3; data = data[3:] {
		m := uint64(data[1])<<8 | uint64(data[2])
		shift := 1 + uint(data[0]/3)%63
		vals[data[0]%3] = append(vals[data[0]%3], int64(m<<48>>shift))
	}
	return vals
}
