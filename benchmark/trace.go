package main

import "time"

// span is one timed interval at a layer boundary. The benchmark records
// spans from outside, around its adapter calls into each package; nothing
// inside the program under test is instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int32  `json:"op"`     // spans of one op share this id
	// Work is how much the span processed, in the unit its layer metric
	// divides by (IR instructions, guest instructions, MB, steps).
	Work float64 `json:"work,omitempty"`
}

// opRecord ties an op id to its class and to the host-speed factor measured
// around it, so span times can be put in reference-host time afterwards.
type opRecord struct {
	ID     int32   `json:"id"`
	Pass   string  `json:"pass"` // workload whose cycle produced the op
	Class  string  `json:"class"`
	Factor float64 `json:"speed_factor"`
}

// tracer keeps spans in memory; a nil tracer records nothing, which is how
// the untraced timed phase runs. One tracer belongs to one goroutine.
type tracer struct {
	t0    time.Time
	pass  string
	spans []span
	ops   []opRecord
	open  []int32
	op    int32
}

func newTracer(pass string) *tracer {
	return &tracer{t0: time.Now(), pass: pass, op: -1}
}

// beginOp starts a new op; spans opened until the next beginOp carry its id.
func (t *tracer) beginOp(class string) {
	if t == nil {
		return
	}
	t.op = int32(len(t.ops))
	t.ops = append(t.ops, opRecord{ID: t.op, Pass: t.pass, Class: class, Factor: 1})
}

// setClass renames the current op's class once the op knows what it was.
func (t *tracer) setClass(class string) {
	if t != nil {
		t.ops[t.op].Class = class
	}
}

// setFactor stamps the ops from index from on with the speed factor of the
// calibration pair that bracketed them.
func (t *tracer) setFactor(from int, f float64) {
	if t == nil || from < 0 {
		return
	}
	for i := from; i < len(t.ops); i++ {
		t.ops[i].Factor = f
	}
}

func (t *tracer) opCount() int {
	if t == nil {
		return 0
	}
	return len(t.ops)
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32, work float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Work = work
	t.open = t.open[:len(t.open)-1]
}

// merge appends o's spans and ops, renumbering them; used to fold the
// per-client tracers of serve-mixed and the sweep passes into one trace.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	spanOff, opOff := int32(len(t.spans)), int32(len(t.ops))
	shift := int64(o.t0.Sub(t.t0))
	for _, s := range o.spans {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += spanOff
		}
		if s.Op >= 0 {
			s.Op += opOff
		}
		t.spans = append(t.spans, s)
	}
	for _, op := range o.ops {
		op.ID += opOff
		t.ops = append(t.ops, op)
	}
}

// spanStat aggregates the spans of one name within one pass, in
// reference-host nanoseconds.
type spanStat struct {
	count int
	total float64   // Σ duration
	self  float64   // Σ duration minus the part child spans cover
	work  float64   // Σ Work
	durs  []float64 // each span's duration
	works []float64 // each span's Work
	ops   []int32   // each span's op id
}

// aggregate groups a pass's spans by name. A span's time is scaled by the
// speed factor of the op it belongs to.
func (t *tracer) aggregate(pass string) map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Op < 0 || t.ops[s.Op].Pass != pass {
			continue
		}
		f := t.ops[s.Op].Factor
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) * f
		self := float64(s.End-s.Start-child[i]) * f
		st.count++
		st.total += d
		st.self += self
		st.work += s.Work
		st.durs = append(st.durs, d)
		st.works = append(st.works, s.Work)
		st.ops = append(st.ops, s.Op)
	}
	return out
}
