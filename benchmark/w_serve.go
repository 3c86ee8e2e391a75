package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// memWriter is an http.ResponseWriter that keeps the response in memory and
// is reused from request to request.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{hdr: http.Header{}} }

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.code = http.StatusOK
	w.body.Reset()
}

// runReply is the part of caratd's result document the benchmark checks.
type runReply struct {
	Cached      bool    `json:"cached"`
	Exit        int64   `json:"exit"`
	Instrs      uint64  `json:"instrs"`
	Cycles      uint64  `json:"cycles"`
	GuardChecks uint64  `json:"guard_checks"`
	Output      []int64 `json:"output"`
}

type serveRequest struct {
	body []byte
	want program
}

func makeRequest(p program) serveRequest {
	body, err := json.Marshal(map[string]any{
		"tenant": "bench", "kind": "cc", "name": p.Name, "source": p.Source,
	})
	if err != nil {
		panic(err) // strings and a map of strings always marshal
	}
	return serveRequest{body, p}
}

// serveClient is one closed-loop client: its own random stream, response
// buffer and supply of never-seen sources.
type serveClient struct {
	id    int
	r     *rand.Rand
	w     *memWriter
	novel int64 // sources this client has generated
	// cycles sums the model cycles of this client's replies; the server's
	// registry has no such total.
	cycles float64
}

const (
	servePopulation = 48  // modules requested again and again
	serveZipfS      = 1.1 // popularity skew over the population
	serveNovelEvery = 8   // one request in this many carries a never-seen source
	serveBatch      = 32  // requests between two calibrations
	serveCycleReqs  = 256 // requests per client per cycle
	serveCacheSize  = 256 // caratd's default module-cache entries
	serveShadowReqs = 64  // requests replayed through shadow stages in the traced cycle
	// A tenant's 4 MB capsule holds its heap and its stack; the shadow guest
	// is not a capsule and gets vm.DefaultConfig's 1 MB stack region besides
	// its heap, so 3 MB of heap makes it zero the same number of pages.
	shadowHeapBytes = 3 << 20
)

// serveMixed drives caratd in process: every request is POST /v1/run with
// source. Seven in eight draw from a Zipf-distributed population of small
// programs that stay cached; one in eight is a larger never-seen program,
// which must compile and, once the LRU is full, evicts an entry.
type serveMixed struct {
	seed    int64
	sc      scale
	sh      *serverHandle
	pop     []serveRequest
	zipf    *zipf
	cl      []*serveClient
	ih      inputsHash
	perCyc  int
	shadowN int
	// compileMu is taken around never-seen requests in -race builds only.
	// internal/cc numbers stack slots from an unsynchronised package-level
	// counter, so two CARAT-C compiles at once are a data race (this
	// benchmark's two clients found it; README.md lists it as open). Until
	// that is fixed, serialising the compiles lets the detector watch the rest
	// of the concurrent request path instead of stopping at the first report.
	compileMu sync.Mutex
}

func newServeMixed(seed int64, sc scale) *serveMixed {
	w := &serveMixed{seed: seed, sc: sc, perCyc: serveCycleReqs, shadowN: serveShadowReqs}
	n := 2
	if runtime.NumCPU() < n {
		n = runtime.NumCPU()
	}
	if sc == scaleTest {
		w.perCyc, w.shadowN = serveBatch, 16
	}
	for i := 0; i < n; i++ {
		w.cl = append(w.cl, &serveClient{id: i, r: rand.New(rand.NewSource(seed*1000 + int64(i))), w: newMemWriter()})
	}
	return w
}

func (w *serveMixed) clients() int { return len(w.cl) }

func (w *serveMixed) setup(tr *tracer) error {
	npop := servePopulation
	if w.sc == scaleTest {
		npop = 8
	}
	r := rand.New(rand.NewSource(w.seed))
	for i := 0; i < npop; i++ {
		p := genProgram(r, "pop"+itoa(int64(i)), 2+i%3, w.seed*100_000+int64(i))
		w.ih.add(p.Source)
		w.pop = append(w.pop, makeRequest(p))
	}
	w.ih.add("client-seeds", itoa(w.seed), itoa(int64(len(w.cl))))
	w.zipf = newZipf(npop, serveZipfS)
	var err error
	if w.sh, err = bootServer(tr); err != nil {
		return err
	}
	// Bring the module cache to its steady state before anything is timed:
	// the whole population once, then never-seen sources until the LRU is
	// full, so that evictions happen from the first timed request on.
	c := w.cl[0]
	for _, rq := range w.pop {
		if _, err := w.send(nil, c, rq); err != nil {
			return err
		}
	}
	if w.sc == scaleFull {
		for i := npop; i < serveCacheSize; i++ {
			if _, err := w.send(nil, c, w.novelRequest(c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// novelRequest generates a program of 8 to 12 functions no client has sent
// before.
func (w *serveMixed) novelRequest(c *serveClient) serveRequest {
	c.novel++
	salt := w.seed*1_000_000 + int64(c.id)*100_000 + c.novel
	return makeRequest(genProgram(c.r, "novel", 8+c.r.Intn(5), salt))
}

// send drives one request through the handler and checks the reply. The
// returned duration covers the handler call alone.
func (w *serveMixed) send(tr *tracer, c *serveClient, rq serveRequest) (reply runReply, err error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(rq.body))
	if err != nil {
		return reply, err
	}
	c.w.reset()
	w.sh.serve(tr, c.w, req)
	if c.w.code != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", c.w.code, bytes.TrimSpace(c.w.body.Bytes()))
	}
	if err := json.Unmarshal(c.w.body.Bytes(), &reply); err != nil {
		return reply, err
	}
	if reply.Exit != rq.want.Exit || digestOutputs(reply.Output) != digestOutputs(rq.want.Outputs) {
		return reply, fmt.Errorf("%s: exit %d, want %d (or output differs)", rq.want.Name, reply.Exit, rq.want.Exit)
	}
	return reply, nil
}

// next picks the client's next request: position k of every block of
// serveNovelEvery is the never-seen one, the rest draw from the population.
func (w *serveMixed) next(c *serveClient, k int) serveRequest {
	if k%serveNovelEvery == serveNovelEvery-1 {
		return w.novelRequest(c)
	}
	return w.pop[w.zipf.draw(c.r)]
}

func (w *serveMixed) cycle(recs []*recorder) error {
	return runClients(len(w.cl), func(i int) error {
		c, rec := w.cl[i], recs[i]
		for k := 0; k < w.perCyc; k++ {
			rq := w.next(c, k)
			novel := k%serveNovelEvery == serveNovelEvery-1
			if novel && raceDetector {
				w.compileMu.Lock()
			}
			rec.tr.beginOp("request")
			t0 := time.Now()
			reply, err := w.send(rec.tr, c, rq)
			d := time.Since(t0)
			if novel && raceDetector {
				w.compileMu.Unlock()
			}
			class := "hot"
			if !reply.Cached {
				class = "cold"
			}
			rec.tr.setClass(class)
			rec.op(class, 1, d, err != nil)
			if err == nil {
				c.cycles += float64(reply.Cycles)
				if reply.Cached {
					rec.lat(class, float64(d))
				} else {
					rec.cold(class, float64(d))
				}
			}
			if k%serveBatch == serveBatch-1 {
				rec.calibrate()
			}
		}
		return nil
	})
}

// extraTraced replays requests one at a time and, after each, runs the same
// work through the adapter's own calls (front end, passes, signing, load,
// run, release) on a separate machine. The handler's time minus these shadow
// stages is what the server itself adds; it cannot be seen from outside any
// other way.
func (w *serveMixed) extraTraced(rec *recorder) error {
	tr := rec.tr
	sign, err := newSigner(w.seed)
	if err != nil {
		return err
	}
	mc := newMachine(1 << 26)
	compile := func(tr *tracer, p program) (*module, error) {
		m, err := frontCC(tr, p.Name, p.Source)
		if err != nil {
			return nil, err
		}
		if _, err := runPasses(tr, m); err != nil {
			return nil, err
		}
		return m, sign.signVerify(tr, m)
	}
	// The population is cached in the server; give the shadow side the
	// same head start, untraced.
	compiled := map[string]*module{}
	for _, rq := range w.pop {
		m, err := compile(nil, rq.want)
		if err != nil {
			return err
		}
		compiled[rq.want.Source] = m
	}
	c := w.cl[0]
	for k := 0; k < w.shadowN; k++ {
		rq := w.next(c, k)
		tr.beginOp("shadow-hot")
		reply, err := w.send(tr, c, rq)
		if err != nil {
			return err
		}
		id := tr.begin("server.shadow")
		m := compiled[rq.want.Source]
		if !reply.Cached {
			tr.setClass("shadow-cold")
			if m, err = compile(tr, rq.want); err != nil {
				return err
			}
		}
		if m == nil {
			return fmt.Errorf("%s answered cached:true but was never compiled", rq.want.Name)
		}
		g, err := mc.load(tr, m, guestOpts{heapBytes: shadowHeapBytes})
		if err != nil {
			return err
		}
		if _, err = g.run("vm.run"); err != nil {
			return err
		}
		if err = g.release(); err != nil {
			return err
		}
		tr.end(id, 1)
		if k%serveBatch == serveBatch-1 {
			rec.calibrate()
		}
	}
	rec.calibrate()
	return nil
}

// serveCounters maps the counts serve-mixed reports to the server registry's
// counters they sum.
var serveCounters = map[string][]string{
	"vm.instrs":                     {"carat.vm.instrs"},
	"vm.guard_checks":               {"carat.vm.guard_checks"},
	"vm.closure.deopts":             {"carat.vm.closure.deopts"},
	"vm.closure.blocks":             {"carat.vm.closure.blocks"},
	"vm.closure.ic_hits":            {"carat.vm.closure.ic_hits"},
	"vm.closure.ic_misses":          {"carat.vm.closure.ic_misses"},
	"guard.xcache.hits":             {"carat.vm.xcache.hits"},
	"guard.xcache.misses":           {"carat.vm.xcache.misses"},
	"kernel.page_allocs":            {"carat.kernel.page_allocs"},
	"kernel.page_moves":             {"carat.kernel.page_moves"},
	"passes.guards_injected":        {"carat.passes.guards_injected"},
	"passes.guards_remaining":       {"carat.passes.guards_remaining"},
	"analysis.cache_hits":           {"carat.passes.analysis.hits"},
	"analysis.cache_misses":         {"carat.passes.analysis.misses"},
	"server.module_cache.hits":      {"carat.server.module_cache.hits"},
	"server.module_cache.misses":    {"carat.server.module_cache.misses"},
	"server.module_cache.evictions": {"carat.server.module_cache.evictions"},
	"server.rejections":             {"carat.server.admission_rejections", "carat.server.quota_rejections"},
}

func (w *serveMixed) counts() map[string]float64 {
	out := map[string]float64{}
	for _, c := range w.cl {
		out["vm.cycles"] += c.cycles
	}
	reg := w.sh.counters()
	for name, sources := range serveCounters {
		for _, src := range sources {
			out[name] += float64(reg[src])
		}
	}
	return out
}

func (w *serveMixed) inputsSHA() string { return w.ih.String() }
