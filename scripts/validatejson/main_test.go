package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"carat/internal/bench"
	"carat/internal/cc"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/server"
	"carat/internal/vm"
	"carat/internal/workload"
)

const guestSource = `
func main(): int {
    var buf = malloc(64);
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { buf[i] = i * 3; s = s + buf[i]; }
    free(buf);
    print_int(s);
    return s;
}`

// encode is what every producer's WriteJSON does.
func encode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// producerOutputs runs every producer of a carat.* document once, small,
// and returns what each wrote, keyed by the producer.
func producerOutputs(t *testing.T) map[string][]byte {
	out := map[string][]byte{}

	reg := obs.NewRegistry()
	var policy *mmpolicy.Document
	var buf bytes.Buffer
	o := bench.Options{Scale: workload.ScaleTest, Workers: 1, Obs: reg,
		PolicySink: func(d *mmpolicy.Document) { policy = d }}
	if err := bench.RunJSON("defrag", o, &buf); err != nil {
		t.Fatal(err)
	}
	out["bench.RunJSON"] = bytes.Clone(buf.Bytes())
	if policy == nil {
		t.Fatal("defrag gave no policy document")
	}
	out["mmpolicy.Document"] = encode(t, policy)

	buf.Reset()
	reg.Histogram("carat.test.hist").Observe(42)
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out["obs.Registry"] = bytes.Clone(buf.Bytes())

	buf.Reset()
	tr := obs.NewTracer(&buf, func() uint64 { return 7 })
	lane := tr.BeginProcess("lane", func() uint64 { return 9 })
	lane.SpanAt("move", "runtime", 10, 5, obs.A("pages", 1))
	lane.Instant("policy.move", "policy", obs.A("reason", "test"))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out["obs.Tracer"] = bytes.Clone(buf.Bytes())

	s := obs.NewSampler(64)
	track := s.NewTrack()
	track.Sample(1000, func() string { return "main;hot" })
	track.FoldPhase("move", 300)
	out["obs.Sampler"] = encode(t, s.Snapshot())

	soak := mmpolicy.SoakDocument{Schema: mmpolicy.SoakSchema, Version: mmpolicy.SoakVersion, Steps: 40}
	soak.Seeds = append(soak.Seeds, mmpolicy.SoakSeed(1, soak.Steps, nil))
	soak.Passed = 1
	out["mmpolicy.SoakSeed"] = encode(t, soak)

	cfg := server.DefaultServerConfig()
	cfg.MemBytes, cfg.HeapBytes, cfg.StackBytes = 1<<26, 1<<20, 1<<17
	cfg.Ballast.Disabled = true
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := encode(t, map[string]any{"tenant": "t", "source": guestSource, "seed": 1})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/run: %d %s", rec.Code, rec.Body)
	}
	out["caratd /v1/run"] = rec.Body.Bytes()

	m, err := cc.Compile("guest", guestSource)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := vm.DefaultConfig()
	vcfg.MemBytes, vcfg.HeapBytes = 1<<22, 1<<18
	v, err := vm.Load(m, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	out["vm.Report"] = encode(t, v.Report(ret))
	return out
}

// TestRoundTrip sends every producer's output through the schema table: each
// must pass, every schema must have a producer here, and each document must
// be refused at its version plus one and with a field its type does not
// declare.
func TestRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for producer, data := range producerOutputs(t) {
		if err := validate(bytes.NewReader(data)); err != nil {
			t.Errorf("%s: %v", producer, err)
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		schema := doc["schema"].(string)
		seen[schema] = true

		bumped := encode(t, withField(doc, "version", doc["version"].(float64)+1))
		if validate(bytes.NewReader(bumped)) == nil {
			t.Errorf("%s: a %s document at version %v+1 passed", producer, schema, doc["version"])
		}
		extra := encode(t, withField(doc, "not_declared", 1))
		if validate(bytes.NewReader(extra)) == nil {
			t.Errorf("%s: a %s document with an undeclared field passed", producer, schema)
		}
	}
	for schema := range schemas {
		if !seen[schema] {
			t.Errorf("no producer in this test writes %s", schema)
		}
	}
}

func withField(doc map[string]any, key string, val any) map[string]any {
	c := make(map[string]any, len(doc)+1)
	for k, v := range doc {
		c[k] = v
	}
	c[key] = val
	return c
}

// TestValidateRejectsInconsistentDocuments: a document that decodes but
// disagrees with itself fails its type's Validate.
func TestValidateRejectsInconsistentDocuments(t *testing.T) {
	for name, doc := range map[string]any{
		"profile stacks": &obs.ProfileDoc{Schema: obs.ProfileSchema, Version: obs.ProfileSchemaVersion,
			IntervalCycles: 1, TotalSamples: 2, Stacks: []obs.FoldedStack{{Stack: "a", Phase: "exec", Samples: 1}},
			PhaseTotals: map[string]uint64{"exec": 2}},
		"policy p99": &mmpolicy.Document{Schema: mmpolicy.Schema, Version: mmpolicy.SchemaVersion, PauseP99Cycles: 5},
	} {
		if validate(bytes.NewReader(encode(t, doc))) == nil {
			t.Errorf("%s: an inconsistent document passed", name)
		}
	}
}

// TestDesignSchemaTable: every row of DESIGN.md's schema table names a
// schema this table knows, at the version its Go type declares, and every
// schema has a row.
func TestDesignSchemaTable(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(carat\\.[a-z.]+)` \\| (\\d+) \\|")
	rows := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(design), -1) {
		name, version := m[1], m[2]
		rows[name] = true
		s, ok := schemas[name]
		if !ok {
			t.Errorf("DESIGN.md lists %s, which no Go type declares", name)
			continue
		}
		if version != strconv.Itoa(s.version) {
			t.Errorf("DESIGN.md lists %s at v%s; its Go type declares v%d", name, version, s.version)
		}
	}
	for name := range schemas {
		if !rows[name] {
			t.Errorf("DESIGN.md's schema table has no row for %s", name)
		}
	}
	if !strings.Contains(string(design), "### Machine-readable output schemas") {
		t.Error("DESIGN.md lost its schema section")
	}
}

// TestDocsNameLiveIdentifiers fails when DESIGN.md or README.md names, in
// backticks, pkg.Ident where pkg is a package under internal/, Ident is
// exported and no file of pkg, test files included, declares it: a function,
// method, type, variable or constant by that name. A deletion that leaves the
// docs naming what it deleted fails here.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	declared := map[string]map[string]bool{} // package directory name -> identifiers
	err := filepath.WalkDir("../../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if declared[pkg] == nil {
			declared[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declared[pkg][decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[pkg][spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[pkg][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	name := regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(text), -1) {
			for _, m := range name.FindAllStringSubmatch(s, -1) {
				if ids, ok := declared[m[1]]; ok && !ids[m[2]] {
					t.Errorf("%s names %s.%s in %s, which internal/%s does not declare", doc, m[1], m[2], s, m[1])
				}
			}
		}
	}
}
