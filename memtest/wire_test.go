package memtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// fleetResults runs a fleet and returns its device results.
func fleetResults(tb testing.TB, plan Plan, devices int, opts ...Option) []DeviceResult {
	tb.Helper()
	s, err := New(plan, append([]Option{WithSeed(7), WithWorkers(1)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	var out []DeviceResult
	for dr, err := range s.RunFleet(context.Background(), devices) {
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, dr)
	}
	return out
}

// heteroLine is one canonical result line of the heterogeneous example
// with DRF diagnosis: ~9 KB, mostly failure records.
func heteroLine(tb testing.TB) []byte {
	tb.Helper()
	dr := fleetResults(tb, HeterogeneousExample(), 1, WithDRF())[0]
	b, err := json.Marshal(dr)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// handResult is a single-memory result whose strings, floats and
// repair are set by the caller.
func handResult(name string, clock, retention float64, repair *Allocation) DeviceResult {
	located := []Cell{{Addr: 3, Bit: 1}, {Addr: 9, Bit: 0}}
	return DeviceResult{Device: 3, Seed: -42, Result: &Result{
		Engine: "proposed", Scheme: name, Plan: name,
		Report: &Report{Scheme: name, Cycles: 15664, ClockNs: clock, RetentionNs: retention, Iterations: 2,
			Memories: []MemoryReport{{Index: 0, Words: 16, Width: 4,
				Failures: []FailureRecord{{Memory: 0, LogicalAddr: 3, PhysicalAddr: 3, Bit: 1, Element: 2, Background: 1, Op: 0}},
				Located:  located}}},
		Memories: []Diagnosis{{Name: name, Words: 16, Width: 4, Located: located, Injected: 2, Detectable: 2,
			TruthLocated: 2, Repair: repair}},
	}}
}

// codecCases is the encode table: real fleet results, with and without
// repair, plus hand-built values covering every null, omitempty, string
// escape and float-format branch of the type tree.
func codecCases(t *testing.T) map[string]DeviceResult {
	cases := map[string]DeviceResult{
		"nil result":   {Device: 1, Seed: 2},
		"nil report":   {Result: &Result{Engine: "e", Memories: []Diagnosis{}}},
		"nil memories": {Result: &Result{Report: &Report{Scheme: "s"}}},
		"empty located": {Result: &Result{
			Report:   &Report{Memories: []MemoryReport{{Located: []Cell{}}, {}}},
			Memories: []Diagnosis{{Located: []Cell{}}, {}},
		}},
		"html and control": handResult("a<b>&c\"d\\e\x01\t\n\r\b\f\x7f", 10, 0, nil),
		"line separators":  handResult("x\xe2\x80\xa8y\xe2\x80\xa9z", 10, 0, nil),
		"invalid utf8":     handResult("bad\xff\xfeutf8\xc3", 10, 0, nil),
		"non-ascii":        handResult("p\xc3\xa9riph\xc3\xa9rique-\xe2\x9c\x93", 10, 0, nil),
		"float zero":       handResult("f", 0, 0, nil),
		"float 1e-7":       handResult("f", 1e-7, 1e-6, nil),
		"float 1e21":       handResult("f", 1e21, 999999999999999999999.0, nil),
		"float -0":         handResult("f", math.Copysign(0, -1), -1.5e-300, nil),
		"float odd":        handResult("f", 0.1, 123456.789e3, nil),
		"empty repair":     handResult("r", 10, 0, &Allocation{}),
		"word repairs 9 and 10": handResult("r", 10, 0, &Allocation{
			WordRepairs: map[int][]Cell{9: {{Addr: 9, Bit: 1}}, 10: {{Addr: 10, Bit: 0}, {Addr: 10, Bit: 3}}, -1: nil, 100: {}},
			CellRepairs: []Cell{{Addr: 3, Bit: 1}},
			Unrepaired:  []Cell{{Addr: 7, Bit: 7}},
		}),
		"unrepaired only": handResult("r", 10, 0, &Allocation{Unrepaired: []Cell{{Addr: 1, Bit: 1}}}),
		"yield":           {Result: &Result{Yield: &YieldStats{Memories: 4, Repairable: 3, TotalLocated: 9, TotalUnrepaired: 1}}},
		"extreme ints": {Device: math.MaxInt64, Seed: math.MinInt64, Result: &Result{
			Report: &Report{Cycles: math.MinInt64 + 1, Iterations: -1}}},
	}
	for i, dr := range fleetResults(t, HeterogeneousExample(), 3, WithDRF()) {
		cases[fmt.Sprintf("hetero device %d", i)] = dr
	}
	for i, dr := range fleetResults(t, smallPlan(), 3, WithDRF(), WithRepair(Budget{SpareWords: 1, SpareCells: 1})) {
		cases[fmt.Sprintf("repair device %d", i)] = dr
	}
	return cases
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for name, dr := range codecCases(t) {
		want, err := json.Marshal(dr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prefix := []byte("prefix:")
		got, err := dr.AppendJSON(prefix)
		if err != nil {
			t.Fatalf("%s: AppendJSON: %v", name, err)
		}
		if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix:" {
			t.Errorf("%s: AppendJSON differs from json.Marshal:\n got %s\nwant %s", name, got[len(prefix):], want)
		}
		checkDecode(t, name, want)
	}
}

func TestAppendJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, dr := range []DeviceResult{handResult("n", f, 0, nil), handResult("n", 10, f, nil)} {
			_, want := json.Marshal(dr)
			dst := []byte("keep")
			got, err := dr.AppendJSON(dst)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("AppendJSON(%v) err = %v, want %v", f, err, want)
			}
			if string(got) != "keep" {
				t.Fatalf("AppendJSON(%v) failed but returned %q, want dst unextended", f, got)
			}
		}
	}
}

// checkDecode pins DecodeDeviceResult to json.Unmarshal on line — the
// value, partial or not, and the error — and SkimDeviceResult to the
// decoder's fast path.
func checkDecode(t *testing.T, name string, line []byte) {
	t.Helper()
	var want DeviceResult
	wantErr := json.Unmarshal(line, &want)
	got := DeviceResult{Device: 99, Result: &Result{Engine: "stale"}}
	gotErr := DecodeDeviceResult(line, &got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: DecodeDeviceResult err = %v, json.Unmarshal err = %v\nline %q", name, gotErr, wantErr, line)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DecodeDeviceResult differs from json.Unmarshal\nline %q", name, line)
	}
	fast, fastOK := new(decodeScratch).decode(line)
	if skim := SkimDeviceResult(line); skim != fastOK {
		t.Fatalf("%s: SkimDeviceResult = %v, fast decode accepted = %v\nline %q", name, skim, fastOK, line)
	}
	if fastOK && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("%s: fast path accepted a line json.Unmarshal decodes differently\nline %q", name, line)
	}
}

func TestDecodeDeviceResultFastPathCoversCanonicalLines(t *testing.T) {
	for name, dr := range codecCases(t) {
		line, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		// Escaped strings are the one canonical feature the fast path
		// leaves to json.Unmarshal.
		if !bytes.ContainsRune(line, '\\') && !SkimDeviceResult(line) {
			t.Errorf("%s: canonical line not accepted by the fast path:\n%s", name, line)
		}
	}
}

// TestDecodeDeviceResultNonCanonical feeds variants of a canonical line
// that the fast path must hand to json.Unmarshal, plus malformed ones
// both must reject; checkDecode pins every outcome to json.Unmarshal's.
func TestDecodeDeviceResultNonCanonical(t *testing.T) {
	line := string(heteroLine(t))
	small, err := json.Marshal(handResult("m", 10, 0, &Allocation{
		WordRepairs: map[int][]Cell{9: {{Addr: 9, Bit: 1}}}, CellRepairs: []Cell{{Addr: 1, Bit: 2}}}))
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]string{
		"whitespace":       " " + line + "\n",
		"inner whitespace": `{"device": 1,"seed":2,"result":null}`,
		"reordered":        `{"seed":2,"device":1,"result":null}`,
		"unknown key":      `{"device":1,"seed":2,"result":null,"extra":true}`,
		"error envelope":   `{"error":"job failed"}`,
		"device and error": `{"device":1,"seed":2,"result":null,"error":"x"}`,
		"case folded key":  `{"Device":1,"seed":2,"result":null}`,
		"escaped string":   `{"device":1,"seed":2,"result":{"engine":"a\tb\\c","scheme":"","plan":"","report":null,"memories":null}}`,
		"raw control":      "{\"device\":1,\"seed\":2,\"result\":{\"engine\":\"a\x01\",\"scheme\":\"\",\"plan\":\"\",\"report\":null,\"memories\":null}}",
		"raw invalid utf8": "{\"device\":1,\"seed\":2,\"result\":{\"engine\":\"a\xff\",\"scheme\":\"\",\"plan\":\"\",\"report\":null,\"memories\":null}}",
		"float device":     `{"device":1.0,"seed":2,"result":null}`,
		"exp device":       `{"device":1e2,"seed":2,"result":null}`,
		"leading zero":     `{"device":01,"seed":2,"result":null}`,
		"negative zero":    `{"device":-0,"seed":2,"result":null}`,
		"huge seed":        `{"device":1,"seed":99999999999999999999,"result":null}`,
		"max seed":         `{"device":1,"seed":9223372036854775807,"result":null}`,
		"null device":      `{"device":null,"seed":2,"result":null}`,
		"string device":    `{"device":"1","seed":2,"result":null}`,
		"float overflow":   replaceOnce(t, line, `"clock_ns":10`, `"clock_ns":1e999`),
		"float exponent":   replaceOnce(t, line, `"clock_ns":10`, `"clock_ns":1E+1`),
		"long float":       replaceOnce(t, line, `"clock_ns":10`, `"clock_ns":10.000000000000000000000000000000000001`),
		"empty failures":   replaceOnce(t, line, `"index":0,"words":64,"width":16,`, `"index":0,"words":64,"width":16,"failures":[],`),
		"null failures":    replaceOnce(t, line, `"index":0,"words":64,"width":16,`, `"index":0,"words":64,"width":16,"failures":null,`),
		"null report":      replaceOnce(t, string(small), `"report":{`, `"report":null,"x":{`),
		"null repair":      replaceOnce(t, string(small), `"repair":{`, `"repair":null,"x":{`),
		"repair key plus":  replaceOnce(t, string(small), `"9":`, `"+9":`),
		"repair key zeros": replaceOnce(t, string(small), `"9":`, `"09":`),
		"repair dup key":   replaceOnce(t, string(small), `"9":[{"addr":9,"bit":1}]`, `"9":[{"addr":9,"bit":1}],"9":[]`),
		"repair null map":  replaceOnce(t, string(small), `"word_repairs":{"9":[{"addr":9,"bit":1}]}`, `"word_repairs":null`),
		"repair empty map": replaceOnce(t, string(small), `"word_repairs":{"9":[{"addr":9,"bit":1}]}`, `"word_repairs":{}`),
		"null yield":       `{"device":1,"seed":2,"result":{"engine":"","scheme":"","plan":"","report":null,"memories":[],"yield":null}}`,
		"trailing garbage": line + "x",
		"two values":       line + line,
		"type mismatch":    `{"device":1,"seed":2,"result":{"engine":1,"scheme":"","plan":"","report":null,"memories":null}}`,
		"empty":            ``,
		"null":             `null`,
		"array":            `[]`,
	}
	for name, v := range variants {
		checkDecode(t, name, []byte(v))
	}
}

// replaceOnce returns s with its first old replaced by new.
func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	i := bytes.Index([]byte(s), []byte(old))
	if i < 0 {
		t.Fatalf("%q not in line", old)
	}
	return s[:i] + new + s[i+len(old):]
}

// TestDecodeDeviceResultRejectsTornLines: every strict prefix of a
// canonical line — what a server killed mid-write leaves — fails both
// the decode and the skim.
func TestDecodeDeviceResultRejectsTornLines(t *testing.T) {
	lines := [][]byte{heteroLine(t)}
	for _, dr := range fleetResults(t, smallPlan(), 2, WithRepair(Budget{SpareWords: 1, SpareCells: 2})) {
		b, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	for _, line := range lines {
		for n := range len(line) {
			var dr DeviceResult
			if DecodeDeviceResult(line[:n], &dr) == nil || SkimDeviceResult(line[:n]) {
				t.Fatalf("prefix of %d/%d bytes accepted: %q", n, len(line), line[:n])
			}
		}
	}
}

// TestWireCodecAllocations pins the codec's allocation budget: encoding
// into a warm buffer and skimming allocate nothing, and the typed
// decode allocates no more than json.Unmarshal does on the same line.
func TestWireCodecAllocations(t *testing.T) {
	hetero := fleetResults(t, HeterogeneousExample(), 1, WithDRF())[0]
	repaired := handResult("r", 10, 0, &Allocation{
		WordRepairs: map[int][]Cell{9: {{Addr: 9, Bit: 1}}, 10: {{Addr: 10, Bit: 0}}},
		CellRepairs: []Cell{{Addr: 3, Bit: 1}},
	})
	buf := make([]byte, 0, 64<<10)
	for name, dr := range map[string]DeviceResult{"hetero": hetero, "repair": repaired} {
		if n := testing.AllocsPerRun(50, func() {
			if _, err := dr.AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: AppendJSON into a warm buffer: %v allocs, want 0", name, n)
		}
	}

	line := heteroLine(t)
	if n := testing.AllocsPerRun(50, func() {
		if !SkimDeviceResult(line) {
			t.Fatal("hetero line not canonical")
		}
	}); n != 0 {
		t.Errorf("SkimDeviceResult: %v allocs, want 0", n)
	}

	var dr DeviceResult
	fast := testing.AllocsPerRun(50, func() {
		if err := DecodeDeviceResult(line, &dr); err != nil {
			t.Fatal(err)
		}
	})
	ref := testing.AllocsPerRun(50, func() {
		var v DeviceResult
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatal(err)
		}
	})
	if fast > ref {
		t.Errorf("DecodeDeviceResult: %v allocs, json.Unmarshal %v; want no more", fast, ref)
	}
	t.Logf("hetero line %d B: DecodeDeviceResult %v allocs, json.Unmarshal %v", len(line), fast, ref)
}

// TestDecodeDeviceResultSlabAllocs pins the decode of one hetero line
// (12 arrays of four element types) to at most five allocations: the
// Result and Report together, and one slab per element type. The
// scratch pool drops a quarter of its Puts under -race, so it counts
// the least of twenty decodes.
func TestDecodeDeviceResultSlabAllocs(t *testing.T) {
	line := heteroLine(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var dr DeviceResult
	least := ^uint64(0)
	for range 20 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodeDeviceResult(line, &dr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > 5 {
		t.Errorf("DecodeDeviceResult of a hetero line: %d allocs, want <= 5", least)
	}
}

// TestDecodeDeviceResultArraysOwnTheirCapacity: every decoded array
// ends its capacity at its own last element, so appending to any one
// of them — they share slabs — leaves the rest of the value equal to
// json.Unmarshal's. Nil and empty arrays stay nil and empty.
func TestDecodeDeviceResultArraysOwnTheirCapacity(t *testing.T) {
	for name, dr := range codecCases(t) {
		line, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		var want, got DeviceResult
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if err := DecodeDeviceResult(line, &got); err != nil {
			t.Fatal(err)
		}
		eachSlice(reflect.ValueOf(got), func(s reflect.Value) {
			if s.Cap() != s.Len() {
				t.Errorf("%s: decoded %v has len %d, cap %d", name, s.Type(), s.Len(), s.Cap())
			}
			reflect.Append(s, junk(s.Type().Elem()))
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: appending to a decoded array changed another one", name)
		}
	}
}

// eachSlice calls fn on every slice reachable from v, outer first.
func eachSlice(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachSlice(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			eachSlice(v.Field(i), fn)
		}
	case reflect.Slice:
		fn(v)
		for i := range v.Len() {
			eachSlice(v.Index(i), fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			eachSlice(it.Value(), fn)
		}
	}
}

// junk is a value of struct type t with every int field -7: no
// decoded element looks like it.
func junk(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Int {
			f.SetInt(-7)
		}
	}
	return v
}

// FuzzDecodeDeviceResult: whatever the input, DecodeDeviceResult agrees
// with json.Unmarshal (value and error), the skim agrees with the fast
// path, a line the fast path accepts loses acceptance when torn, and
// any value json.Unmarshal produces re-encodes through AppendJSON to
// json.Marshal's bytes.
func FuzzDecodeDeviceResult(f *testing.F) {
	for _, dr := range fleetResults(f, smallPlan(), 2, WithDRF(), WithRepair(Budget{SpareWords: 1, SpareCells: 1})) {
		b, err := json.Marshal(dr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, "fuzz", line)
		if SkimDeviceResult(line) {
			step := max(1, len(line)/64)
			for n := 0; n < len(line); n += step {
				var dr DeviceResult
				if DecodeDeviceResult(line[:n], &dr) == nil || SkimDeviceResult(line[:n]) {
					t.Fatalf("prefix of %d/%d bytes accepted: %q", n, len(line), line[:n])
				}
			}
		}
		var v DeviceResult
		if json.Unmarshal(line, &v) != nil {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %q, %v; json.Marshal = %q", got, err, want)
		}
	})
}

// BenchmarkDeviceResultCodec times one heterogeneous result line
// through the codec and, for reference, through encoding/json.
func BenchmarkDeviceResultCodec(b *testing.B) {
	dr := fleetResults(b, HeterogeneousExample(), 1, WithDRF())[0]
	line := heteroLine(b)
	buf := make([]byte, 0, 2*len(line))
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"AppendJSON", func() (err error) { buf, err = dr.AppendJSON(buf[:0]); return err }},
		{"Decode", func() error { var v DeviceResult; return DecodeDeviceResult(line, &v) }},
		{"Skim", func() error {
			if !SkimDeviceResult(line) {
				return errors.New("line not canonical")
			}
			return nil
		}},
		{"json.Marshal", func() error { _, err := json.Marshal(dr); return err }},
		{"json.Unmarshal", func() error { var v DeviceResult; return json.Unmarshal(line, &v) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(line)))
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
