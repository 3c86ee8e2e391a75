package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Tracer streams events in the Chrome trace_event JSON format (the
// "JSON Array Format" with an object wrapper), loadable in Perfetto or
// chrome://tracing. Timestamps are the VM's *simulated* cycle clock, not
// wall time: one trace microsecond equals one modeled cycle, so a span's
// on-screen duration is its modeled cycle cost (at the modeled 2.3 GHz a
// trace "µs" is ~0.43 real ns; only relative widths matter).
//
// A nil *Tracer is the disabled state: every method is nil-receiver-safe
// and returns immediately, so instrumentation sites call methods on a
// possibly-nil tracer without branching. The VM hot loop additionally
// keeps its cycle accounting out of the tracer entirely — tracing on or
// off never changes modeled results (asserted by a differential test in
// internal/bench).
//
// A Tracer value is one lane of a trace: NewTracer returns the root lane
// and BeginProcess opens further ones. A lane's pid and clock never change
// after it is created, so VMs running in parallel over one trace each stamp
// their own events with their own clock; only the sink is shared.
type Tracer struct {
	*traceSink
	pid   int
	clock func() uint64
}

// traceSink is the output stream every lane of one trace writes to.
type traceSink struct {
	mu    sync.Mutex
	w     *bufio.Writer
	first bool
	lanes int // process lanes opened so far
	err   error
	tap   func(body string)
}

// Trace document schema identifiers. The schema/version pair rides in the
// trace's top-level object next to the standard trace_event keys.
const (
	TraceSchema        = "carat.trace"
	TraceSchemaVersion = 1
)

// NewTracer starts a trace stream on w. clock supplies simulated-cycle
// timestamps for the root lane's Instant events (nil reads as cycle 0);
// every VM run gets a lane with its own clock from BeginProcess. Call Close
// to terminate the JSON document. A nil w makes a sink-less tracer that
// only feeds taps (see SetTap) — the telemetry server uses this to serve
// windowed traces without writing a file.
func NewTracer(w io.Writer, clock func() uint64) *Tracer {
	t := &Tracer{traceSink: &traceSink{first: true}, clock: clock}
	if w != nil {
		t.w = bufio.NewWriter(w)
		t.w.WriteString(TraceHeader())
	}
	return t
}

// SetTap installs (or clears, with nil) a callback that receives every
// event body — the JSON object content without the surrounding braces —
// in emission order. The callback runs with the tracer's lock held, so it
// must be fast and must not call back into the tracer.
func (t *Tracer) SetTap(tap func(body string)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tap = tap
	t.mu.Unlock()
}

// TraceDoc is a carat.trace document as it decodes. Every event the tracer
// writes is a TraceEvent.
type TraceDoc struct {
	Schema          string       `json:"schema"`
	Version         int          `json:"version"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// TraceEvent is one trace_event object: a span (ph "X"), an instant (ph
// "i", scope s "t") or a process-name record (ph "M").
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	S    string         `json:"s,omitempty"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceHeader returns the opening of a carat.trace document, for the tracer
// and for callers re-framing tapped events into a complete trace.
func TraceHeader() string {
	return fmt.Sprintf("{\"schema\":%q,\"version\":%d,\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
		TraceSchema, TraceSchemaVersion)
}

// TraceFooter returns the closing of a carat.trace document.
func TraceFooter() string { return "\n]}\n" }

// Now reads this lane's simulated-cycle clock (0 when it has none or the
// tracer is nil). The clock is the caller's own: it is read outside the
// sink lock, on the goroutine that emits the event.
func (t *Tracer) Now() uint64 {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock()
}

// BeginProcess opens a new trace process (a new pid lane) named name and
// returns the handle that writes to it, stamping Instant events with clock
// — one per VM run, so workloads in a bench sweep stay separate in the
// viewer whether they run one after another or in parallel.
func (t *Tracer) BeginProcess(name string, clock func() uint64) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes++
	lane := &Tracer{traceSink: t.traceSink, pid: t.lanes, clock: clock}
	t.event(`"name":"process_name","ph":"M","pid":` + strconv.Itoa(lane.pid) +
		`,"tid":1,"args":{"name":` + quote(name) + `}`)
	return lane
}

// Arg is one key/value pair attached to a trace event's args object.
type Arg struct {
	Key   string
	Value any
}

// A builds an Arg.
func A(key string, value any) Arg { return Arg{Key: key, Value: value} }

// SpanAt emits a complete span (ph "X") covering simulated cycles
// [startCyc, startCyc+durCyc) in category cat.
func (t *Tracer) SpanAt(name, cat string, startCyc, durCyc uint64, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	b.WriteString(`"name":`)
	b.WriteString(quote(name))
	b.WriteString(`,"cat":`)
	b.WriteString(quote(cat))
	b.WriteString(`,"ph":"X","ts":`)
	b.WriteString(strconv.FormatUint(startCyc, 10))
	b.WriteString(`,"dur":`)
	b.WriteString(strconv.FormatUint(durCyc, 10))
	t.finishEvent(&b, args)
}

// Instant emits an instant event (ph "i") at the current simulated cycle.
func (t *Tracer) Instant(name, cat string, args ...Arg) {
	if t == nil {
		return
	}
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instantAt(name, cat, now, args)
}

// InstantAt emits an instant event at an explicit simulated cycle.
func (t *Tracer) InstantAt(name, cat string, tsCyc uint64, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instantAt(name, cat, tsCyc, args)
}

func (t *Tracer) instantAt(name, cat string, tsCyc uint64, args []Arg) {
	var b strings.Builder
	b.WriteString(`"name":`)
	b.WriteString(quote(name))
	b.WriteString(`,"cat":`)
	b.WriteString(quote(cat))
	b.WriteString(`,"ph":"i","s":"t","ts":`)
	b.WriteString(strconv.FormatUint(tsCyc, 10))
	t.finishEvent(&b, args)
}

// finishEvent appends pid/tid and args to a half-built event body and
// writes it. Caller holds t.mu.
func (t *Tracer) finishEvent(b *strings.Builder, args []Arg) {
	pid := t.pid
	if pid == 0 {
		pid = 1
	}
	b.WriteString(`,"pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"tid":1`)
	if len(args) > 0 {
		b.WriteString(`,"args":{`)
		for i, a := range args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(quote(a.Key))
			b.WriteByte(':')
			b.WriteString(encodeValue(a.Value))
		}
		b.WriteByte('}')
	}
	t.event(b.String())
}

// event writes one event object body (without braces). Caller holds t.mu.
func (t *Tracer) event(body string) {
	if t.tap != nil {
		t.tap(body)
	}
	if t.w == nil || t.err != nil {
		return
	}
	if t.first {
		t.first = false
	} else {
		t.w.WriteByte(',')
	}
	t.w.WriteByte('\n')
	t.w.WriteByte('{')
	t.w.WriteString(body)
	if _, err := t.w.WriteString("}"); err != nil {
		t.err = err
	}
}

// Close terminates the trace document and flushes it. Returns the first
// write error, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w == nil {
		return t.err
	}
	t.w.WriteString(TraceFooter())
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	t.w = nil
	return t.err
}

// quote JSON-escapes a string. Event and metric names are plain ASCII, so
// the simple escaper keeps output byte-stable for golden-file tests.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, "\\u%04x", c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// encodeValue encodes an Arg value. Integers and booleans stay native;
// everything else becomes a string.
func encodeValue(v any) string {
	switch x := v.(type) {
	case uint64:
		return strconv.FormatUint(x, 10)
	case uint32:
		return strconv.FormatUint(uint64(x), 10)
	case uint:
		return strconv.FormatUint(uint64(x), 10)
	case int64:
		return strconv.FormatInt(x, 10)
	case int32:
		return strconv.FormatInt(int64(x), 10)
	case int:
		return strconv.Itoa(x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case string:
		return quote(x)
	default:
		return quote(fmt.Sprint(x))
	}
}
