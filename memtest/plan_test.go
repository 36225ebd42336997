package memtest

import (
	"errors"
	"testing"
)

func TestParsePlanRejectsBadInput(t *testing.T) {
	if _, err := ParsePlan([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := ParsePlan([]byte(`{"name":"x","clock_ns":10,"memories":[]}`)); !errors.Is(err, ErrNoMemories) {
		t.Fatalf("empty fleet: err = %v, want %v", err, ErrNoMemories)
	}
}

// FuzzParsePlan: arbitrary JSON must never panic, and accepted plans
// must survive a marshal/parse round trip.
func FuzzParsePlan(f *testing.F) {
	seed, _ := HeterogeneousExample().Marshal()
	f.Add(seed)
	f.Add([]byte(`{"name":"x","clock_ns":10,"memories":[{"name":"m","words":4,"width":4}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"memories":[{"words":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted plan failed to marshal: %v", err)
		}
		again, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("marshal output rejected: %v", err)
		}
		if again.Name != p.Name || len(again.Memories) != len(p.Memories) {
			t.Fatal("round trip changed the plan")
		}
	})
}
