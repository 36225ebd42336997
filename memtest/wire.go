package memtest

// The fleet result line codec: the NDJSON form of one DeviceResult that
// memtestd spools and streams and its clients read back. Failure
// records dominate the line, so the generic reflection-driven
// encoding/json round trip cost more than diagnosing the device. The
// codec here is hand-written for this one type tree and is pinned
// against encoding/json, which stays the reference: AppendJSON must
// produce json.Marshal's bytes, and DecodeDeviceResult must produce
// json.Unmarshal's value (differential tests and FuzzDecodeDeviceResult
// in wire_test.go). For that reason no memtest type implements
// json.Marshaler or json.Unmarshaler — encoding/json never sees this
// codec, so it stays an independent oracle.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// AppendJSON appends the JSON encoding of r to dst and returns the
// extended buffer. The bytes are exactly those json.Marshal(r) returns:
// fields in declaration order, omitempty honoured, nil pointers, slices
// and maps as null, integer map keys sorted as strings, encoding/json's
// float format and its HTML-safe string escaping. Like json.Marshal it
// fails on a NaN or infinite float, returning dst unextended and a
// *json.UnsupportedValueError. Appending into a buffer with enough
// capacity does not allocate.
func (r DeviceResult) AppendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"device":`...)
	b = strconv.AppendInt(b, int64(r.Device), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, r.Seed, 10)
	b = append(b, `,"result":`...)
	b, err := appendResult(b, r.Result)
	if err != nil {
		return dst, err
	}
	return append(b, '}'), nil
}

func appendResult(b []byte, r *Result) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	b = append(b, `{"engine":`...)
	b = appendString(b, r.Engine)
	b = append(b, `,"scheme":`...)
	b = appendString(b, r.Scheme)
	b = append(b, `,"plan":`...)
	b = appendString(b, r.Plan)
	b = append(b, `,"report":`...)
	b, err := appendReport(b, r.Report)
	if err != nil {
		return b, err
	}
	b = append(b, `,"memories":`...)
	if r.Memories == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Memories {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDiagnosis(b, &r.Memories[i])
		}
		b = append(b, ']')
	}
	if y := r.Yield; y != nil {
		b = append(b, `,"yield":{"memories":`...)
		b = strconv.AppendInt(b, int64(y.Memories), 10)
		b = append(b, `,"repairable":`...)
		b = strconv.AppendInt(b, int64(y.Repairable), 10)
		b = append(b, `,"total_located":`...)
		b = strconv.AppendInt(b, int64(y.TotalLocated), 10)
		b = append(b, `,"total_unrepaired":`...)
		b = strconv.AppendInt(b, int64(y.TotalUnrepaired), 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendReport(b []byte, r *Report) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	b = append(b, `{"scheme":`...)
	b = appendString(b, r.Scheme)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, r.Cycles, 10)
	b = append(b, `,"clock_ns":`...)
	b, err := appendFloat(b, r.ClockNs)
	if err != nil {
		return b, err
	}
	b = append(b, `,"retention_ns":`...)
	if b, err = appendFloat(b, r.RetentionNs); err != nil {
		return b, err
	}
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(r.Iterations), 10)
	b = append(b, `,"memories":`...)
	if r.Memories == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range r.Memories {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendMemoryReport(b, &r.Memories[i])
	}
	return append(b, "]}"...), nil
}

func appendMemoryReport(b []byte, m *MemoryReport) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(m.Index), 10)
	b = append(b, `,"words":`...)
	b = strconv.AppendInt(b, int64(m.Words), 10)
	b = append(b, `,"width":`...)
	b = strconv.AppendInt(b, int64(m.Width), 10)
	if len(m.Failures) > 0 {
		b = append(b, `,"failures":[`...)
		for i := range m.Failures {
			if i > 0 {
				b = append(b, ',')
			}
			f := &m.Failures[i]
			b = append(b, `{"memory":`...)
			b = strconv.AppendInt(b, int64(f.Memory), 10)
			b = append(b, `,"logical_addr":`...)
			b = strconv.AppendInt(b, int64(f.LogicalAddr), 10)
			b = append(b, `,"physical_addr":`...)
			b = strconv.AppendInt(b, int64(f.PhysicalAddr), 10)
			b = append(b, `,"bit":`...)
			b = strconv.AppendInt(b, int64(f.Bit), 10)
			b = append(b, `,"element":`...)
			b = strconv.AppendInt(b, int64(f.Element), 10)
			b = append(b, `,"background":`...)
			b = strconv.AppendInt(b, int64(f.Background), 10)
			b = append(b, `,"op":`...)
			b = strconv.AppendInt(b, int64(f.Op), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"located":`...)
	b = appendCells(b, m.Located)
	return append(b, '}')
}

func appendDiagnosis(b []byte, d *Diagnosis) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, d.Name)
	b = append(b, `,"words":`...)
	b = strconv.AppendInt(b, int64(d.Words), 10)
	b = append(b, `,"width":`...)
	b = strconv.AppendInt(b, int64(d.Width), 10)
	b = append(b, `,"located":`...)
	b = appendCells(b, d.Located)
	b = append(b, `,"injected":`...)
	b = strconv.AppendInt(b, int64(d.Injected), 10)
	b = append(b, `,"detectable":`...)
	b = strconv.AppendInt(b, int64(d.Detectable), 10)
	b = append(b, `,"truth_located":`...)
	b = strconv.AppendInt(b, int64(d.TruthLocated), 10)
	b = append(b, `,"false_positives":`...)
	b = strconv.AppendInt(b, int64(d.FalsePositives), 10)
	if a := d.Repair; a != nil {
		b = append(b, `,"repair":{`...)
		sep := false
		if len(a.WordRepairs) > 0 {
			b = append(b, `"word_repairs":`...)
			b = appendWordRepairs(b, a.WordRepairs)
			sep = true
		}
		if len(a.CellRepairs) > 0 {
			if sep {
				b = append(b, ',')
			}
			b = append(b, `"cell_repairs":`...)
			b = appendCells(b, a.CellRepairs)
			sep = true
		}
		if len(a.Unrepaired) > 0 {
			if sep {
				b = append(b, ',')
			}
			b = append(b, `"unrepaired":`...)
			b = appendCells(b, a.Unrepaired)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendCells(b []byte, cs []Cell) []byte {
	if cs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, c := range cs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"addr":`...)
		b = strconv.AppendInt(b, int64(c.Addr), 10)
		b = append(b, `,"bit":`...)
		b = strconv.AppendInt(b, int64(c.Bit), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendWordRepairs writes a non-empty word-repair map with its keys in
// encoding/json's order: sorted as decimal strings, so "10" precedes
// "9". Key sets up to 16 sort on the stack.
func appendWordRepairs(b []byte, m map[int][]Cell) []byte {
	var stack [16]int
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareDecimal)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, `":`...)
		b = appendCells(b, m[k])
	}
	return append(b, '}')
}

// compareDecimal orders integers by their decimal strings.
func compareDecimal(x, y int) int {
	var bx, by [20]byte
	return bytes.Compare(strconv.AppendInt(bx[:0], int64(x), 10), strconv.AppendInt(by[:0], int64(y), 10))
}

// appendFloat writes f as encoding/json does: the shortest
// round-tripping decimal, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's escaping:
// control characters, '"', '\\' and the HTML-sensitive '<', '>' and '&'
// are escaped, invalid UTF-8 becomes \ufffd, and U+2028/U+2029 are
// escaped for JSONP safety.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DecodeDeviceResult decodes one NDJSON result line into *dr,
// overwriting it. The outcome — the value stored and whether an error
// is returned — is exactly that of json.Unmarshal(line, dr) into a zero
// DeviceResult, for every input. A line in the canonical layout
// AppendJSON writes (no whitespace, fields in declaration order,
// strings without escapes) is parsed directly in one pass; anything
// else — whitespace, reordered or unknown keys, escapes, a torn line —
// is handed to json.Unmarshal.
//
// The decoded value owns its storage. A canonical line costs one
// allocation for its Result and Report, plus one exact-size slab per
// element type (failure records, cells, memory reports, diagnoses):
// every array is a window of its slab whose capacity ends at its own
// last element, so appending to one never writes into its neighbour.
func DecodeDeviceResult(line []byte, dr *DeviceResult) error {
	sc := scratchPool.Get().(*decodeScratch)
	out, ok := sc.decode(line)
	scratchPool.Put(sc)
	if ok {
		*dr = out
		return nil
	}
	// The fallback decodes into its own value, so dr itself never
	// reaches encoding/json and a caller's DeviceResult can stay on
	// its stack.
	var v DeviceResult
	err := json.Unmarshal(line, &v)
	*dr = v
	return err
}

// SkimDeviceResult reports whether line is a well-formed DeviceResult
// in the canonical layout — exactly the lines DecodeDeviceResult parses
// without falling back to json.Unmarshal. It validates the whole line,
// numbers and UTF-8 included, without building the value and without
// allocating. A false result means only "not canonical": the line may
// still be valid JSON.
func SkimDeviceResult(line []byte) bool {
	d := lineDecoder{b: line}
	var out DeviceResult
	return d.deviceResult(&out) && d.i == len(line)
}

// lineDecoder is the single-pass parser behind DecodeDeviceResult and
// SkimDeviceResult. It accepts only the canonical layout and reports
// false on the first deviation. In build mode it collects array
// elements on pooled scratch stacks and leaves each closed array as a
// view of its stack, which decodeScratch.decode then moves into the
// line's slabs; in skim mode (build false) it runs the same grammar
// and checks but builds nothing.
type lineDecoder struct {
	b     []byte
	i     int
	build bool
	sc    *decodeScratch
}

// decodeScratch is one decoder's reusable element stacks. No array
// type nests inside an array of its own type, so an array's elements
// are always the tail of its stack when the array closes, and a line's
// arrays of one type lie on their stack in the order they closed.
type decodeScratch struct {
	recs  []FailureRecord
	cells []Cell
	mems  []MemoryReport
	diags []Diagnosis
	// names interns the strings of recent lines (engine, scheme, plan
	// and memory names repeat on every line of a job), so a decoded
	// line allocates its strings only the first time they appear.
	names [32]string
	next  int
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// decode parses one canonical line in build mode and, when it is
// accepted, settles the value's arrays into slabs. The stacks are left
// empty either way.
func (sc *decodeScratch) decode(line []byte) (DeviceResult, bool) {
	d := lineDecoder{b: line, build: true, sc: sc}
	var out DeviceResult
	ok := d.deviceResult(&out) && d.i == len(line)
	if ok && out.Result != nil {
		sc.settle(out.Result)
	}
	sc.reset()
	return out, ok
}

// settle copies each scratch stack once into an exact-size slab and
// re-points every array of r, which the parse left as a view of its
// stack, at the same elements in the slab. It walks r in the order the
// parse closed the arrays, so one cursor per slab finds each array's
// window. Word-repair map values are the exception: they are copied
// out when they close (see wordRepairs) and are not on the stacks.
func (sc *decodeScratch) settle(r *Result) {
	recs, cells := slices.Clone(sc.recs), slices.Clone(sc.cells)
	var atRec, atCell int
	if rep := r.Report; rep != nil {
		var atMem int
		rep.Memories = carve(slices.Clone(sc.mems), &atMem, rep.Memories)
		for i := range rep.Memories {
			m := &rep.Memories[i]
			m.Failures = carve(recs, &atRec, m.Failures)
			m.Located = carve(cells, &atCell, m.Located)
		}
	}
	var atDiag int
	r.Memories = carve(slices.Clone(sc.diags), &atDiag, r.Memories)
	for i := range r.Memories {
		g := &r.Memories[i]
		g.Located = carve(cells, &atCell, g.Located)
		if a := g.Repair; a != nil {
			a.CellRepairs = carve(cells, &atCell, a.CellRepairs)
			a.Unrepaired = carve(cells, &atCell, a.Unrepaired)
		}
	}
}

// carve returns the slab window that replaces a settled array: the
// next len(view) elements after *at, capped at its own end. Nil and
// empty arrays are no window and are returned as they are.
func carve[T any](slab []T, at *int, view []T) []T {
	if len(view) == 0 {
		return view
	}
	lo, hi := *at, *at+len(view)
	*at = hi
	return slab[lo:hi:hi]
}

// reset empties the stacks, dropping the references the parse left
// behind.
func (sc *decodeScratch) reset() {
	clear(sc.mems)
	clear(sc.diags)
	sc.recs, sc.cells, sc.mems, sc.diags = sc.recs[:0], sc.cells[:0], sc.mems[:0], sc.diags[:0]
}

func (sc *decodeScratch) intern(b []byte) string {
	for _, s := range sc.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(s) <= 64 {
		sc.names[sc.next] = s
		sc.next = (sc.next + 1) % len(sc.names)
	}
	return s
}

// ptrTo returns a pointer to a heap copy of v. The parsers fill stack
// values and only build mode moves them to the heap, so a skim never
// allocates.
func ptrTo[T any](v T) *T { return &v }

// tail is the closed array above base on the scratch stack s, left in
// place as a view for decodeScratch.settle to move.
func tail[T any](s []T, base int) []T { return s[base:len(s):len(s)] }

// takeCells moves one closed cell array — the cells above base — off
// the scratch stack into an exact-size slice.
func (sc *decodeScratch) takeCells(base int) []Cell {
	out := make([]Cell, len(sc.cells)-base)
	copy(out, sc.cells[base:])
	sc.cells = sc.cells[:base]
	return out
}

func (d *lineDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// next consumes the separator after an array element: it reports more
// for ',' and !more for the closing ']', and ok false otherwise.
func (d *lineDecoder) next() (more, ok bool) {
	switch {
	case d.lit(","):
		return true, true
	case d.lit("]"):
		return false, true
	}
	return false, false
}

// arrayOpen consumes the start of an array value. It reports items
// when elements follow '['; for null and [] it stores nil or (in build
// mode) an empty slice in *dst and reports !items.
func arrayOpen[T any](d *lineDecoder, dst *[]T) (items, ok bool) {
	switch {
	case d.lit("null"):
		*dst = nil
		return false, true
	case !d.lit("["):
		return false, false
	case d.lit("]"):
		if d.build {
			*dst = []T{}
		}
		return false, true
	}
	return true, true
}

// num64 parses a JSON integer in int64 range. It reads at most 19
// digits, which cannot overflow a uint64; a longer integer, a fraction
// or an exponent leaves a digit, '.' or 'e' that the following literal
// rejects.
func (d *lineDecoder) num64(dst *int64) bool {
	i := d.i
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	if i >= len(d.b) || !isDigit(d.b[i]) {
		return false
	}
	var u uint64
	if d.b[i] == '0' {
		i++
	} else {
		for end := min(len(d.b), i+19); i < end && isDigit(d.b[i]); i++ {
			u = u*10 + uint64(d.b[i]-'0')
		}
	}
	switch {
	case !neg && u <= math.MaxInt64:
		*dst = int64(u)
	case neg && u <= 1<<63:
		*dst = -int64(u)
	default:
		return false
	}
	d.i = i
	return true
}

func (d *lineDecoder) num(dst *int) bool {
	var v int64
	if !d.num64(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// float parses a JSON number with strconv.ParseFloat, as encoding/json
// does, rejecting out-of-range values. Canonical floats are at most 26
// bytes; longer tokens are left to json.Unmarshal so the conversion
// stays on the stack.
func (d *lineDecoder) float(dst *float64) bool {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i-d.i > 32 {
		return false
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		return false
	}
	d.i = i
	*dst = f
	return true
}

// str parses a JSON string holding no escapes and no control
// characters, whose bytes are valid UTF-8 — the strings json.Unmarshal
// returns verbatim.
func (d *lineDecoder) str(dst *string) bool {
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		return false
	}
	start, ascii := d.i+1, true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := b[start:i]
			if !ascii && !utf8.Valid(s) {
				return false
			}
			if d.build {
				*dst = d.sc.intern(s)
			}
			d.i = i + 1
			return true
		case c == '\\' || c < 0x20:
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return false
}

// resultBlock is a decoded Result and its Report in one allocation.
type resultBlock struct {
	res Result
	rep Report
}

func (d *lineDecoder) deviceResult(r *DeviceResult) bool {
	if !(d.lit(`{"device":`) && d.num(&r.Device) && d.lit(`,"seed":`) && d.num64(&r.Seed) && d.lit(`,"result":`)) {
		return false
	}
	if !d.lit("null") {
		var blk resultBlock
		hasReport, ok := d.result(&blk)
		if !ok {
			return false
		}
		if d.build {
			h := ptrTo(blk)
			if hasReport {
				h.res.Report = &h.rep
			}
			r.Result = &h.res
		}
	}
	return d.lit("}")
}

// result parses a Result into blk.res and its report, when not null,
// into blk.rep; it reports whether a report was present.
func (d *lineDecoder) result(blk *resultBlock) (hasReport, ok bool) {
	r := &blk.res
	if !(d.lit(`{"engine":`) && d.str(&r.Engine) && d.lit(`,"scheme":`) && d.str(&r.Scheme) &&
		d.lit(`,"plan":`) && d.str(&r.Plan) && d.lit(`,"report":`)) {
		return false, false
	}
	if !d.lit("null") {
		if !d.report(&blk.rep) {
			return false, false
		}
		hasReport = true
	}
	if !(d.lit(`,"memories":`) && d.diagnoses(&r.Memories)) {
		return false, false
	}
	if d.lit(`,"yield":`) && !d.lit("null") {
		var y YieldStats
		if !(d.lit(`{"memories":`) && d.num(&y.Memories) && d.lit(`,"repairable":`) && d.num(&y.Repairable) &&
			d.lit(`,"total_located":`) && d.num(&y.TotalLocated) &&
			d.lit(`,"total_unrepaired":`) && d.num(&y.TotalUnrepaired) && d.lit("}")) {
			return false, false
		}
		if d.build {
			r.Yield = ptrTo(y)
		}
	}
	return hasReport, d.lit("}")
}

func (d *lineDecoder) report(r *Report) bool {
	if !(d.lit(`{"scheme":`) && d.str(&r.Scheme) && d.lit(`,"cycles":`) && d.num64(&r.Cycles) &&
		d.lit(`,"clock_ns":`) && d.float(&r.ClockNs) && d.lit(`,"retention_ns":`) && d.float(&r.RetentionNs) &&
		d.lit(`,"iterations":`) && d.num(&r.Iterations) && d.lit(`,"memories":`)) {
		return false
	}
	items, ok := arrayOpen(d, &r.Memories)
	if !ok {
		return false
	}
	var base int
	if d.build {
		base = len(d.sc.mems)
	}
	for more := items; more; {
		var m MemoryReport
		if !d.memoryReport(&m) {
			return false
		}
		if d.build {
			d.sc.mems = append(d.sc.mems, m)
		}
		if more, ok = d.next(); !ok {
			return false
		}
	}
	if items && d.build {
		r.Memories = tail(d.sc.mems, base)
	}
	return d.lit("}")
}

func (d *lineDecoder) memoryReport(m *MemoryReport) bool {
	if !(d.lit(`{"index":`) && d.num(&m.Index) && d.lit(`,"words":`) && d.num(&m.Words) &&
		d.lit(`,"width":`) && d.num(&m.Width)) {
		return false
	}
	if d.lit(`,"failures":`) {
		items, ok := arrayOpen(d, &m.Failures)
		if !ok {
			return false
		}
		var base int
		if d.build {
			base = len(d.sc.recs)
		}
		for more := items; more; {
			var f FailureRecord
			if !(d.lit(`{"memory":`) && d.num(&f.Memory) && d.lit(`,"logical_addr":`) && d.num(&f.LogicalAddr) &&
				d.lit(`,"physical_addr":`) && d.num(&f.PhysicalAddr) && d.lit(`,"bit":`) && d.num(&f.Bit) &&
				d.lit(`,"element":`) && d.num(&f.Element) && d.lit(`,"background":`) && d.num(&f.Background) &&
				d.lit(`,"op":`) && d.num(&f.Op) && d.lit("}")) {
				return false
			}
			if d.build {
				d.sc.recs = append(d.sc.recs, f)
			}
			if more, ok = d.next(); !ok {
				return false
			}
		}
		if items && d.build {
			m.Failures = tail(d.sc.recs, base)
		}
	}
	return d.lit(`,"located":`) && d.cells(&m.Located) && d.lit("}")
}

func (d *lineDecoder) cells(dst *[]Cell) bool {
	items, ok := arrayOpen(d, dst)
	if !ok {
		return false
	}
	var base int
	if d.build {
		base = len(d.sc.cells)
	}
	for more := items; more; {
		var c Cell
		if !(d.lit(`{"addr":`) && d.num(&c.Addr) && d.lit(`,"bit":`) && d.num(&c.Bit) && d.lit("}")) {
			return false
		}
		if d.build {
			d.sc.cells = append(d.sc.cells, c)
		}
		if more, ok = d.next(); !ok {
			return false
		}
	}
	if items && d.build {
		*dst = tail(d.sc.cells, base)
	}
	return true
}

func (d *lineDecoder) diagnoses(dst *[]Diagnosis) bool {
	items, ok := arrayOpen(d, dst)
	if !ok {
		return false
	}
	var base int
	if d.build {
		base = len(d.sc.diags)
	}
	for more := items; more; {
		var g Diagnosis
		if !d.diagnosis(&g) {
			return false
		}
		if d.build {
			d.sc.diags = append(d.sc.diags, g)
		}
		if more, ok = d.next(); !ok {
			return false
		}
	}
	if items && d.build {
		*dst = tail(d.sc.diags, base)
	}
	return true
}

func (d *lineDecoder) diagnosis(g *Diagnosis) bool {
	if !(d.lit(`{"name":`) && d.str(&g.Name) && d.lit(`,"words":`) && d.num(&g.Words) &&
		d.lit(`,"width":`) && d.num(&g.Width) && d.lit(`,"located":`) && d.cells(&g.Located) &&
		d.lit(`,"injected":`) && d.num(&g.Injected) && d.lit(`,"detectable":`) && d.num(&g.Detectable) &&
		d.lit(`,"truth_located":`) && d.num(&g.TruthLocated) &&
		d.lit(`,"false_positives":`) && d.num(&g.FalsePositives)) {
		return false
	}
	if d.lit(`,"repair":`) && !d.lit("null") {
		var a Allocation
		if !d.allocation(&a) {
			return false
		}
		if d.build {
			g.Repair = ptrTo(a)
		}
	}
	return d.lit("}")
}

// allocation parses a repair allocation: each of its three omitempty
// fields may be absent, but those present keep declaration order.
func (d *lineDecoder) allocation(a *Allocation) bool {
	if !d.lit("{") {
		return false
	}
	first := true
	if d.key(&first, `"word_repairs":`) && !d.wordRepairs(&a.WordRepairs) {
		return false
	}
	if d.key(&first, `"cell_repairs":`) && !d.cells(&a.CellRepairs) {
		return false
	}
	if d.key(&first, `"unrepaired":`) && !d.cells(&a.Unrepaired) {
		return false
	}
	return d.lit("}")
}

// key consumes an optional object key, preceded by a comma unless it
// is the object's first; on a mismatch it consumes nothing.
func (d *lineDecoder) key(first *bool, k string) bool {
	at := d.i
	if !*first && !d.lit(",") {
		return false
	}
	if !d.lit(k) {
		d.i = at
		return false
	}
	*first = false
	return true
}

func (d *lineDecoder) wordRepairs(dst *map[int][]Cell) bool {
	if d.lit("null") {
		*dst = nil
		return true
	}
	if !d.lit("{") {
		return false
	}
	var m map[int][]Cell
	if d.build {
		m = make(map[int][]Cell)
		*dst = m
	}
	if d.lit("}") {
		return true
	}
	for {
		var k int
		var cs []Cell
		var base int
		if d.build {
			base = len(d.sc.cells)
		}
		if !(d.lit(`"`) && d.num(&k) && d.lit(`":`) && d.cells(&cs)) {
			return false
		}
		if d.build {
			// A later duplicate key replaces this value, so the walk in
			// settle could not find it by position: copy it out now.
			if len(cs) > 0 {
				cs = d.sc.takeCells(base)
			}
			m[k] = cs
		}
		switch {
		case d.lit(","):
		case d.lit("}"):
			return true
		default:
			return false
		}
	}
}
