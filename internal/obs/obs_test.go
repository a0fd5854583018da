package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// One event of every type, with every field its schema documents set to a
// distinct value, so the serializer's per-type field lists are exercised.
func allEvents() []Event {
	return []Event{
		{Type: EvRoundStart, Src: "chase", Round: 1, Tuples: 7},
		{Type: EvDeltaSize, Src: "chase", Round: 1, N: 3},
		{Type: EvDepFired, Src: "chase", Round: 1, Dep: 0, N: 4, Added: 2},
		{Type: EvDepFired, Src: "chase", Round: 1, Dep: 2, N: 5, Added: 1},
		{Type: EvNullsCreated, Src: "chase", Round: 1, N: 6},
		{Type: EvTuplesAdded, Src: "chase", Round: 1, N: 3},
		{Type: EvRoundEnd, Src: "chase", Round: 1, Tuples: 10, N: 9, Homs: 13},
		{Type: EvSearchNode, Src: "search", Order: 3, N: 4096},
		{Type: EvSearchNode, Src: "finitemodel", Order: 2, N: 32},
		{Type: EvRuleAdded, Src: "rewrite", Iter: 2, Rules: 17},
		{Type: EvArmStart, Src: "portfolio", Arm: "derivation", Round: 1},
		{Type: EvArmResult, Src: "portfolio", Arm: "derivation", Round: 1, Verdict: "not-derivable"},
		{Type: EvBudgetExhausted, Src: "search", Round: 0, Resource: "nodes"},
		{Type: EvCancelled, Src: "words", Round: 0, Resource: "deadline"},
		{Type: EvPortfolioRealloc, Src: "portfolio", Arm: "kb", Resource: "rules", Old: 32, New: 64, Signal: "fed", Round: 2},
		{Type: EvPortfolioRealloc, Src: "portfolio", Arm: "chase", Resource: "rounds", Old: 8, New: 8, Signal: "stalled", Round: 2},
		{Type: EvVerdict, Src: "chase", Verdict: "implied", Round: 1, Tuples: 10},
	}
}

// The hand-rolled serializer must agree with encoding/json on every field
// it writes: unmarshalling each line back into an Event reproduces the
// fields the type's schema documents.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	events := allEvents()
	for _, e := range events {
		s.Event(e)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("got %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if got.Type != events[i].Type || got.Src != events[i].Src {
			t.Errorf("line %d: got %s/%s, want %s/%s", i, got.Type, got.Src, events[i].Type, events[i].Src)
		}
	}
	// Zero-valued schema fields must be written explicitly: the first
	// dep_fired line names dependency 0 and replay must see it.
	for _, line := range lines {
		if strings.Contains(line, `"type":"dep_fired"`) {
			if !strings.Contains(line, `"dep":0`) {
				t.Errorf("dep 0 omitted from %q", line)
			}
			break
		}
	}
}

// Events of a type the serializer does not know fall back to encoding/json
// instead of being dropped.
func TestJSONLUnknownType(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Event(Event{Type: "custom_probe", Src: "ext", N: 42})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Type != "custom_probe" || got.N != 42 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func TestReplay(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, e := range allEvents() {
		s.Event(e)
	}
	tot, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Totals{
		Rounds:            1,
		TriggersFired:     9,
		TuplesAdded:       3,
		NullsCreated:      6,
		Homomorphisms:     13,
		SearchNodes:       4096 + 32,
		RulesAdded:        1,
		PortfolioReallocs: 2,
		PortfolioGranted:  map[string]int{"rules": 32},
		PerDepFired:       map[int]int{0: 4, 2: 5},
		Verdicts:          map[string]string{"chase": "implied"},
		Stops:             map[string]string{"search": "exhausted:nodes", "words": "deadline"},
		Events:            len(allEvents()),
	}
	if !reflect.DeepEqual(tot, want) {
		t.Errorf("replay totals:\n got %+v\nwant %+v", tot, want)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(strings.NewReader("{\"type\":\"round_start\"}\nnot json\n")); err == nil {
		t.Fatal("want error on malformed line")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("b.two", 2)
	c.Add("a.one", 1)
	c.Add("b.two", 3)
	if got := c.Get("b.two"); got != 5 {
		t.Errorf("Get(b.two) = %d, want 5", got)
	}
	if got := c.Get("absent"); got != 0 {
		t.Errorf("Get(absent) = %d, want 0", got)
	}
	if got := c.Names(); !reflect.DeepEqual(got, []string{"a.one", "b.two"}) {
		t.Errorf("Names() = %v", got)
	}
	snap := c.Snapshot()
	c.Add("a.one", 10)
	if snap["a.one"] != 1 {
		t.Errorf("snapshot not point-in-time: %v", snap)
	}
	out, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"a.one":11,"b.two":5}`; string(out) != want {
		t.Errorf("MarshalJSON = %s, want %s", out, want)
	}
}

func TestCounterSink(t *testing.T) {
	c := NewCounters()
	s := NewCounterSink(c)
	for _, e := range allEvents() {
		s.Event(e)
	}
	for name, want := range map[string]int64{
		"chase.rounds":                  1,
		"chase.delta_tuples":            3,
		"chase.triggers_fired":          9,
		"chase.tuples_added":            3,
		"chase.dep.0.fired":             4,
		"chase.dep.2.added":             1,
		"chase.nulls_created":           6,
		"chase.homomorphisms":           13,
		"search.nodes":                  4096,
		"finitemodel.nodes":             32,
		"rewrite.rules_added":           1,
		"portfolio.arm.derivation.runs": 1,
		"chase.verdicts":                1,
		"portfolio.reallocs":            2,
		"portfolio.granted.rules":       32,
		"portfolio.withheld":            1,
	} {
		if got := c.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

type recordSink struct{ events []Event }

func (r *recordSink) Event(e Event) { r.events = append(r.events, e) }

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	one := &recordSink{}
	if got := Multi(nil, one); got != Sink(one) {
		t.Error("single sink should be returned unwrapped")
	}
	two := &recordSink{}
	m := Multi(one, two)
	m.Event(Event{Type: EvRoundStart, Round: 9})
	if len(one.events) != 1 || len(two.events) != 1 {
		t.Fatalf("fan-out failed: %d, %d", len(one.events), len(two.events))
	}
	if one.events[0].Round != 9 || two.events[0].Round != 9 {
		t.Error("event mangled in fan-out")
	}
}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressSink(&buf)
	p.Event(Event{Type: EvRoundEnd, Src: "chase", Round: 2, Tuples: 40})
	p.Event(Event{Type: EvSearchNode, Src: "search", Order: 3, N: 100})
	p.Close()
	out := buf.String()
	for _, want := range []string{"round 2", "tuples 40", "search 100 nodes", "(order 3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Close did not terminate the line")
	}
	var idle bytes.Buffer
	q := NewProgressSink(&idle)
	q.Close()
	if idle.Len() != 0 {
		t.Errorf("Close on idle sink wrote %q", idle.String())
	}
}
