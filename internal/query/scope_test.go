package query

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The span layouts the deleted partition-level window tests built from real
// stores, as their partitions' EndSteps (printed from those stores before
// the tests went): four unmerged steps, κ=2 after 5 steps, κ=3 after 13.
var (
	fourSteps = []int{1, 2, 3, 4}
	kappa2x5  = []int{3, 4, 5}
	kappa3x13 = []int{4, 8, 12, 13}
)

// TestScopeSelect is the selector's table: every case the partition
// package's TestStepRangeEntries, TestStepRangeEntriesAlignment and
// TestWindows pinned on Version.StepRangeEntries / WindowEntries, restated
// as the scope that reaches it, plus the failure texts every surface now
// shares.
func TestScopeSelect(t *testing.T) {
	cases := []struct {
		name   string
		ends   []int
		sc     Scope
		lo, hi int
		live   bool
		err    string // substring; empty means success
	}{
		// TestStepRangeEntries, range (from, to] = Scope{AsOf: to, Window: to-from}.
		{"full history (0,4]", fourSteps, Scope{}, 0, 4, true, ""},
		{"full history pinned (0,4]", fourSteps, Scope{AsOf: 4}, 0, 4, false, ""},
		{"mid range (1,3]", fourSteps, Scope{AsOf: 3, Window: 2}, 1, 3, false, ""},
		{"mid range by shift (1,3]", fourSteps, Scope{Back: 1, Window: 2}, 1, 3, false, ""},
		{"prefix (0,2]", fourSteps, Scope{AsOf: 2}, 0, 2, false, ""},
		{"suffix (3,4]", fourSteps, Scope{Window: 1}, 3, 4, true, ""},
		{"empty range (0,0]", fourSteps, Scope{Back: 4}, 0, 0, false, ""},
		{"range starting before step 0", fourSteps, Scope{AsOf: 2, Window: 3}, 0, 0, false,
			"hsq: window of 3 steps ending at step 2 extends before the first step"},
		{"negative range", fourSteps, Scope{Window: -1}, 0, 0, false, "hsq: invalid scope"},
		{"negative shift", fourSteps, Scope{Back: -1}, 0, 0, false, "hsq: invalid scope"},
		{"negative pin", fourSteps, Scope{AsOf: -1}, 0, 0, false, "hsq: invalid scope"},

		// TestStepRangeEntriesAlignment: merges absorbed steps 1 and 2.
		{"coarsened, surviving cut (3,5]", kappa2x5, Scope{Window: 2}, 1, 3, true, ""},
		{"coarsened, surviving cut (0,3]", kappa2x5, Scope{AsOf: 3}, 0, 1, false, ""},
		{"coarsened, absorbed end (0,2]", kappa2x5, Scope{AsOf: 2}, 0, 0, false,
			"hsq: step range (0, 2] does not align with partition boundaries (available: [0 3 4 5])"},
		{"coarsened, absorbed start (1,5]", kappa2x5, Scope{Window: 4}, 0, 0, false,
			"hsq: step range (1, 5] does not align with partition boundaries (available: [0 3 4 5])"},

		// TestWindows: the aligned sizes are 1, 5, 9, 13; size 0 is the full history.
		{"window of the newest partition", kappa3x13, Scope{Window: 1}, 3, 4, true, ""},
		{"window of two partitions", kappa3x13, Scope{Window: 5}, 2, 4, true, ""},
		{"largest window", kappa3x13, Scope{Window: 13}, 0, 4, true, ""},
		{"misaligned window", kappa3x13, Scope{Window: 2}, 0, 0, false, "does not align with partition boundaries"},
		{"window longer than the history", kappa3x13, Scope{Window: 14}, 0, 0, false,
			"hsq: window of 14 steps ending at step 13 extends before the first step"},

		// The remaining failure texts, and the stream with no spans at all
		// (registered, never sealed — or a fresh engine).
		{"pin beyond the newest step", fourSteps, Scope{AsOf: 5}, 0, 0, false,
			"hsq: as_of_step 5 is beyond the newest sealed step 4"},
		{"shift beyond the first step", fourSteps, Scope{Back: 5}, 0, 0, false,
			"hsq: window shifted 5 steps back ends before the first step (newest is 4)"},
		{"no spans, full history", nil, Scope{}, 0, 0, true, ""},
		{"no spans, window", nil, Scope{Window: 1}, 0, 0, false,
			"hsq: window of 1 steps ending at step 0 extends before the first step"},
		{"no spans, pin", nil, Scope{AsOf: 1}, 0, 0, false, "hsq: as_of_step 1 is beyond the newest sealed step 0"},
		{"no spans, shift", nil, Scope{Back: 1}, 0, 0, false, "ends before the first step (newest is 0)"},
	}
	for _, c := range cases {
		lo, hi, live, err := c.sc.Select(c.ends)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: %+v over %v: error %v, want one mentioning %q", c.name, c.sc, c.ends, err, c.err)
			}
			continue
		}
		if err != nil || lo != c.lo || hi != c.hi || live != c.live {
			t.Errorf("%s: %+v over %v = [%d, %d) live=%v, %v; want [%d, %d) live=%v",
				c.name, c.sc, c.ends, lo, hi, live, err, c.lo, c.hi, c.live)
		}
	}
}

// TestScopeSelectExhaustive holds Select to the window rule itself on every
// scope of a small grid: a scope succeeds iff its step range (start, end]
// lies within the history and both ends are span boundaries, and then
// selects exactly the spans inside the range — so it covers end-start steps,
// as the deleted tests asserted through partition counts. Live is true iff
// nothing moved the end off the newest step.
func TestScopeSelectExhaustive(t *testing.T) {
	for _, ends := range [][]int{nil, fourSteps, kappa2x5, kappa3x13, {2, 3, 7}} {
		latest := 0
		if len(ends) > 0 {
			latest = ends[len(ends)-1]
		}
		boundary := func(step int) bool { return step == 0 || slices.Contains(ends, step) }
		for w := 0; w <= latest+1; w++ {
			for back := 0; back <= latest+1; back++ {
				for asOf := 0; asOf <= latest+1; asOf++ {
					sc := Scope{Window: w, Back: back, AsOf: asOf}
					end := latest
					if asOf > 0 {
						end = asOf
					}
					end -= back
					start := 0
					if w > 0 {
						start = end - w
					}
					wantOK := asOf <= latest && start >= 0 && end >= 0 && boundary(start) && boundary(end)
					lo, hi, live, err := sc.Select(ends)
					if (err == nil) != wantOK {
						t.Fatalf("%+v over %v: err = %v, want success = %v", sc, ends, err, wantOK)
					}
					if err != nil {
						continue
					}
					steps := 0
					for i := lo; i < hi; i++ {
						from := 0
						if i > 0 {
							from = ends[i-1]
						}
						if from < start || ends[i] > end {
							t.Fatalf("%+v over %v: span %d (%d, %d] is outside (%d, %d]", sc, ends, i, from, ends[i], start, end)
						}
						steps += ends[i] - from
					}
					if steps != end-start {
						t.Fatalf("%+v over %v: [%d, %d) covers %d steps, want %d", sc, ends, lo, hi, steps, end-start)
					}
					if live != (back == 0 && asOf == 0) {
						t.Fatalf("%+v over %v: live = %v", sc, ends, live)
					}
				}
			}
		}
		// The window sizes that succeed are exactly the suffix sums of the
		// spans, increasing, the largest being the whole history.
		var wins []int
		for w := 1; w <= latest+1; w++ {
			if _, _, _, err := (Scope{Window: w}).Select(ends); err == nil {
				wins = append(wins, w)
			}
		}
		var want []int
		for i := len(ends) - 1; i >= 0; i-- {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			want = append(want, latest-start)
		}
		if fmt.Sprint(wins) != fmt.Sprint(want) {
			t.Fatalf("windows over %v = %v, want %v", ends, wins, want)
		}
	}
}
