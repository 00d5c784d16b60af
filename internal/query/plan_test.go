package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// fullPlan sets every plan field.
const fullPlan = `{
	"streams": ["api.eu.lat"],
	"match": "api.**",
	"group_by": 2,
	"window": {"steps": 3, "slide": 1, "count": 2},
	"as_of_step": 7,
	"phis": [0.5, 0.99]
}`

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan([]byte(fullPlan))
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Streams:  []string{"api.eu.lat"},
		Match:    "api.**",
		GroupBy:  2,
		Window:   &WindowSpec{Steps: 3, Slide: 1, Count: 2},
		AsOfStep: 7,
		Phis:     []float64{0.5, 0.99},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed plan\n got %+v\nwant %+v", p, want)
	}
}

// planRejects are plans ParsePlan must refuse, each with a fragment its
// error must carry.
var planRejects = []struct {
	name, json, errFrag string
}{
	{"unknown field", `{"streams":["a"],"phis":[0.5],"windows":3}`, "unknown field"},
	{"trailing data", `{"streams":["a"],"phis":[0.5]} {}`, "trailing data"},
	{"not json", `nope`, "parse plan"},
	{"no members", `{"phis":[0.5]}`, "selects no streams"},
	{"empty stream name", `{"streams":[""],"phis":[0.5]}`, "empty stream name"},
	{"bad pattern", `{"match":"a.[","phis":[0.5]}`, "a.["},
	{"negative group_by", `{"streams":["a"],"group_by":-1,"phis":[0.5]}`, "group_by"},
	{"negative as_of", `{"streams":["a"],"as_of_step":-2,"phis":[0.5]}`, "as_of_step"},
	{"zero window steps", `{"streams":["a"],"window":{"steps":0},"phis":[0.5]}`, "window steps"},
	{"negative slide", `{"streams":["a"],"window":{"steps":1,"slide":-1},"phis":[0.5]}`, "slide"},
	{"window count over the limit", `{"streams":["a"],"window":{"steps":1,"count":1025},"phis":[0.5]}`, "exceeds the limit of 1024"},
	{"window count near 2^50", `{"streams":["api.a"],"phis":[0.5],"window":{"steps":1,"count":1125899906842624}}`, "window count"},
	{"no phis", `{"streams":["a"]}`, "no phis"},
	{"phi zero", `{"streams":["a"],"phis":[0]}`, "phi"},
	{"phi one", `{"streams":["a"],"phis":[1]}`, "phi"},
	{"phi wild", `{"streams":["a"],"phis":[0.5,1.5]}`, "phi"},
}

func TestParsePlanRejects(t *testing.T) {
	for _, c := range planRejects {
		_, err := ParsePlan([]byte(c.json))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errFrag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errFrag)
		}
	}
}

func TestPlanScopes(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want []Scope
	}{
		{"full history", Plan{}, []Scope{{}}},
		{"as-of only", Plan{AsOfStep: 5}, []Scope{{AsOf: 5}}},
		// Slide defaults to Steps (tumbling), Count to 1.
		{"window defaults", Plan{Window: &WindowSpec{Steps: 4}},
			[]Scope{{Window: 4}}},
		{"tumbling series", Plan{Window: &WindowSpec{Steps: 2, Count: 3}},
			[]Scope{{Window: 2}, {Window: 2, Back: 2}, {Window: 2, Back: 4}}},
		{"sliding series", Plan{Window: &WindowSpec{Steps: 3, Slide: 1, Count: 3}},
			[]Scope{{Window: 3}, {Window: 3, Back: 1}, {Window: 3, Back: 2}}},
		{"windowed as-of", Plan{AsOfStep: 9, Window: &WindowSpec{Steps: 2, Slide: 2, Count: 2}},
			[]Scope{{Window: 2, AsOf: 9}, {Window: 2, Back: 2, AsOf: 9}}},
	}
	for _, c := range cases {
		if got := c.plan.Scopes(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	full := Scope{}
	if !full.IsFull() {
		t.Error("zero Scope is not IsFull")
	}
	for _, sc := range []Scope{{Window: 1}, {Back: 1}, {AsOf: 1}} {
		if sc.IsFull() {
			t.Errorf("scope %+v claims IsFull", sc)
		}
	}
}

func TestGroupKey(t *testing.T) {
	p := Plan{GroupBy: 2}
	key, err := p.GroupKey("api.eu.lat")
	if err != nil || key != "eu" {
		t.Fatalf("GroupKey = (%q, %v), want (eu, nil)", key, err)
	}
	if key, err := (&Plan{}).GroupKey("api.eu.lat"); err != nil || key != "" {
		t.Fatalf("no group-by: GroupKey = (%q, %v), want (\"\", nil)", key, err)
	}
	if _, err := (&Plan{GroupBy: 4}).GroupKey("api.eu"); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
}

func TestMatchesStream(t *testing.T) {
	p := Plan{Streams: []string{"solo"}, Match: "api.*"}
	for name, want := range map[string]bool{
		"solo":       true,
		"api.eu":     true,
		"api.eu.lat": false,
		"web.eu":     false,
	} {
		if got := p.MatchesStream(name); got != want {
			t.Errorf("MatchesStream(%q) = %v, want %v", name, got, want)
		}
	}
	if (&Plan{Streams: []string{"a"}}).MatchesStream("b") {
		t.Error("empty pattern matched a non-listed stream")
	}
}

// FuzzParsePlan: every plan ParsePlan accepts expands to between one and
// MaxWindowCount scopes, and Exec over a small in-memory source returns —
// with an answer or an error — without panicking.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(fullPlan))
	for _, c := range planRejects {
		f.Add([]byte(c.json))
	}
	f.Add([]byte(`{"streams":["a"],"window":{"steps":1,"count":1024},"phis":[0.5]}`))
	f.Add([]byte(`{"match":"**","group_by":1,"window":{"steps":2,"slide":9223372036854775807,"count":3},"phis":[0.5]}`))
	names := []string{"a", "api.a", "api.eu.lat", "api.us.lat", "b.x.y"}
	sums := make(map[string]*core.ShardSummary, len(names))
	for i, name := range names {
		sums[name] = synthSummary(int64(i), i%3, 1)
	}
	src := &fakeSource{names: names, fetch: func(name string, sc Scope) (*core.ShardSummary, error) {
		sum, ok := sums[name]
		if !ok {
			return nil, fmt.Errorf("unknown stream %q", name)
		}
		if _, _, _, err := sc.Select([]int{2, 4, 6}); err != nil {
			return nil, err
		}
		return sum, nil
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		if n := len(p.Scopes()); n < 1 || n > MaxWindowCount {
			t.Fatalf("plan %s expands to %d scopes, want 1..%d", data, n, MaxWindowCount)
		}
		Exec(src, p) //nolint:errcheck // only a panic fails
	})
}
