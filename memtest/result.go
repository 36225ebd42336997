package memtest

import (
	"repro/internal/fault"
	"repro/internal/repair"
)

// Diagnosis is the evaluated per-memory outcome — what Session.Run
// streams. It marshals to JSON for fleet pipelines.
type Diagnosis struct {
	// Name and geometry from the plan.
	Name  string `json:"name"`
	Words int    `json:"words"`
	Width int    `json:"width"`
	// Located is the scheme's diagnosis: the cells it claims are
	// defective.
	Located []Cell `json:"located"`
	// Injected is the ground-truth fault count; Detectable excludes
	// faults outside the run's reach (DRFs when DRF diagnosis is off).
	Injected   int `json:"injected"`
	Detectable int `json:"detectable"`
	// TruthLocated counts injected faults whose victim cell appears in
	// Located; FalsePositives counts located cells with no injected
	// fault.
	TruthLocated   int `json:"truth_located"`
	FalsePositives int `json:"false_positives"`
	// Repair is the spare allocation when a budget was configured.
	Repair *Allocation `json:"repair,omitempty"`
}

// Result is a full fleet diagnosis outcome, the materialized form
// RunAll and Diagnose return.
type Result struct {
	// Engine is the registry name of the engine that ran; Scheme is
	// its human-readable architecture label.
	Engine string `json:"engine"`
	Scheme string `json:"scheme"`
	// Plan echoes the plan name.
	Plan string `json:"plan"`
	// Report is the engine's raw cycle-level outcome.
	Report *Report `json:"report"`
	// Memories holds the evaluated per-memory results.
	Memories []Diagnosis `json:"memories"`
	// Yield summarizes repair over the fleet when a budget was set.
	Yield *YieldStats `json:"yield,omitempty"`
}

// TimeNs is the total diagnosis time in ns (cycles plus retention).
func (r *Result) TimeNs() float64 { return r.Report.TimeNs() }

// evaluate scores one memory's raw engine outcome against its injected
// ground truth and, when a budget is set, allocates repair. It takes
// the truth rather than a Fleet so the banked fleet path, which builds
// no memories, scores identically to the per-device path. truth is
// sorted by victim, as config.Builder draws it; a located cell counts
// as truth-located when some detectable fault has it as its victim.
func (s *Session) evaluate(name string, truth []fault.Fault, mr *MemoryReport) Diagnosis {
	d := Diagnosis{
		Name:  name,
		Words: mr.Words, Width: mr.Width,
		Located:  mr.Located,
		Injected: len(truth),
	}
	detectable := func(f fault.Fault) bool { return f.Class != fault.DRF || s.eopt.IncludeDRF }
	for _, ft := range truth {
		if detectable(ft) {
			d.Detectable++
		}
	}
	// One cursor walks truth beside Located, which the engines return
	// sorted; a located cell below its predecessor rewinds the cursor,
	// so any order still scores exactly.
	j := 0
	for k, c := range mr.Located {
		if k > 0 && c.Less(mr.Located[k-1]) {
			j = 0
		}
		for j < len(truth) && truth[j].Victim.Less(c) {
			j++
		}
		hit := false
		for t := j; t < len(truth) && truth[t].Victim == c && !hit; t++ {
			hit = detectable(truth[t])
		}
		if hit {
			d.TruthLocated++
		} else {
			d.FalsePositives++
		}
	}
	if s.budget != (Budget{}) {
		a := repair.Allocate(mr.Located, s.budget)
		d.Repair = &a
	}
	return d
}
