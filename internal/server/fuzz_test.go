package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRunRequest sends arbitrary bodies to POST /v1/run and /v1/modules
// through Handler().ServeHTTP on a small machine, one server for the whole
// run, so the module cache and the tenants carry over from input to input.
// Whatever the body, the daemon must not panic, must answer 2xx or 4xx (429
// included) — a 5xx is a request it should have refused or served — and
// must be back at its baseline afterwards: the machine owns the pages it
// owned before, and every tenant holds no slot and no page.
func FuzzRunRequest(f *testing.F) {
	run := func(req runRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(true, run(runRequest{Tenant: "t", Source: progChain, Name: "chain", Seed: 7}))
	f.Add(false, run(runRequest{Tenant: "t", Source: progSum, Level: "guards"}))
	f.Add(true, run(runRequest{Ref: "sha256:0000", Tenant: "t"}))
	hostile, err := filepath.Glob("../ir/testdata/hostile/*.cir")
	if err != nil || len(hostile) == 0 {
		f.Fatalf("hostile modules: %v, %v", hostile, err)
	}
	for _, file := range hostile {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(true, run(runRequest{Tenant: "t", Kind: "cir", Source: string(src)}))
		f.Add(false, run(runRequest{Tenant: "h", Kind: "cir", Source: string(src)}))
	}
	for _, body := range []string{
		`{"tenant":"t","source":"func main(): int { return 1; }"`, // truncated
		`{"kind":"cir","sou`,
		`{"seed": 1e400, "source": "func main(): int { return 2; }"}`,
		`{"seed": 99999999999999999999, "source": "func main(): int { return 3; }"}`,
		`{"seed": -1.5, "tenant": "t", "source": "func main(): int { return 4; }"}`,
		`{"source": "func main(): int { while (1) { } return 0; }", "level": "none"}`,
		`{"kind":"cir","source":"module \"big\"\nglobal @a : [100000000 x i64]\nfunc @main() -> i64 {\nentry:\n  ret i64 0\n}"}`,
		`[]`, `null`, ``,
	} {
		f.Add(true, []byte(body))
	}

	cfg := testConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 18
	cfg.StackBytes = 1 << 15
	cfg.MaxInstrs = 2_000_000
	cfg.MaxBodyBytes = 1 << 16
	cfg.CacheEntries = 16
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	s.StartBackground()
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	owned := s.kern.OwnedPageCount()

	f.Fuzz(func(t *testing.T, toRun bool, body []byte) {
		path := "/v1/modules"
		if toRun {
			path = "/v1/run"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if code := w.Code; code < 200 || code >= 500 || (code >= 300 && code < 400) {
			t.Errorf("%s: status %d: %s", path, code, w.Body.Bytes())
		}
		if got := s.kern.OwnedPageCount(); got != owned {
			t.Errorf("%s: the machine owns %d pages after the request, %d before", path, got, owned)
		}
		s.tenMu.Lock()
		defer s.tenMu.Unlock()
		for name, ten := range s.tenants {
			ten.mu.Lock()
			if ten.running != 0 || ten.pages != 0 {
				t.Errorf("%s: tenant %q still holds %d slots and %d pages", path, name, ten.running, ten.pages)
			}
			ten.mu.Unlock()
		}
	})
}
